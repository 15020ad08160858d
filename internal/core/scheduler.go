package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Run simulates the configured GAIA cluster over the workload trace and
// returns cluster-level accounting. The input trace is never modified: an
// already-normalized trace (the output of workload.NewTrace) is shared
// as-is, so many concurrent Runs over the same trace cost no per-run
// copies. Runs are deterministic for a given (Config, trace).
//
// By default the scheduler streams each finished job into a metrics
// accumulator and keeps no per-job state beyond the jobs in flight, so
// memory is column-sized (tens of bytes per job) regardless of trace
// length; Config.RetainJobs additionally materializes the classic
// Result.Jobs records for per-job consumers. Aggregates are identical in
// both modes.
func Run(cfg Config, jobs *workload.Trace) (res *metrics.Result, err error) {
	return RunContext(context.Background(), cfg, jobs)
}

// interruptStride is how many simulation events execute between
// cancellation probes in RunContext. Coarse enough to keep the event loop
// hot, fine enough that a canceled year-long run stops within well under a
// millisecond of work.
const interruptStride = 4096

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx every few thousand events and, once ctx is done, abandons the
// simulation and returns ctx's error. A run that completes is bit-identical
// to Run — the probe never reorders or drops events — so cached and
// uncancelled results are unaffected. Serving layers use this to make a
// client disconnect actually stop the simulation work it requested.
func RunContext(ctx context.Context, cfg Config, jobs *workload.Trace) (res *metrics.Result, err error) {
	// A run shorter than one probe stride never polls, so an already-dead
	// context is rejected up front rather than simulated to completion.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Scheduler invariant violations surface as panics deep in event
	// callbacks; convert them to errors at the API boundary.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: run failed: %v", r)
		}
	}()

	trace := normalizedTrace(jobs)

	// The elastic specs are keyed by normalized job ID, so the spec trace
	// must wrap this run's jobs — anything else would silently misapply
	// curves and edges across renumbered IDs.
	if cfg.Elastic != nil && cfg.Elastic.Jobs != jobs && cfg.Elastic.Jobs != trace {
		return nil, errors.New("core: config.Elastic must wrap the trace passed to Run")
	}

	// Decision-pure configurations skip the event engine entirely: the
	// direct path decides every job in parallel and replays accounting
	// over sorted endpoints, bit-identical to the engine (direct.go). A
	// pinned Mechanism makes the config ineligible; a dynamic fallback
	// (errDirectFallback) re-runs on the engine.
	if cfg.directEligible() {
		res, err := runDirect(ctx, cfg, trace)
		if !errors.Is(err, errDirectFallback) {
			return res, err
		}
	}

	bounds := cfg.queueBounds()

	pool, err := cloud.NewReservedPool(cfg.Reserved)
	if err != nil {
		return nil, err
	}
	evict, err := cloud.NewEvictionModel(cfg.EvictionRate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &scheduler{
		cfg:    cfg,
		ctx:    cfg.policyContext(trace),
		engine: cfg.newEngine(),
		pool:   pool,
		evict:  evict,
		acc:    metrics.NewAccumulator(len(trace.Jobs), cfg.Horizon),
	}
	if cfg.RetainJobs {
		// A normalized trace numbers jobs 0..n-1, so each job's record
		// lives at results[job.ID]: no append growth, no final sort.
		s.results = make([]metrics.JobResult, len(trace.Jobs))
	}
	if et := cfg.Elastic; et != nil && et.ManagedCount() > 0 {
		s.el = newElasticState(s, et)
		if et.HasEdges() {
			s.ctx.SlackFn = et.Slack
		}
	}
	// The scheduler's event loop allocates nothing per event in steady
	// state: the normalized trace's arrivals feed straight from the trace
	// slice (no materialized arrival events), every queued event is a
	// typed action record — a jobState on the start/finish path, a segment
	// on the spot, checkpoint and suspend-resume paths, the elastic state
	// for its hourly tick — recycled through the run's slabs, and the
	// engine's arena recycles fired events. No path passes a closure to
	// the engine. What remains per job is the policy's own output (a
	// suspend-resume plan) and, on the elastic path, its job record. Queue
	// classification happens on the per-event copy of the job, never on
	// the (shared, immutable) trace.
	s.engine.SetSource(len(trace.Jobs),
		func(i int) simtime.Time { return trace.Jobs[i].Arrival },
		sim.PriorityArrival,
		func(i int) {
			job := trace.Jobs[i]
			job.Queue = workload.ClassifyLength(job.Length, bounds)
			s.arrive(job)
		})
	if ctx.Done() != nil {
		s.engine.SetInterrupt(interruptStride, func() error { return ctx.Err() })
	}
	s.engine.Run()
	if err := s.engine.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}

	res = &metrics.Result{
		Label:    cfg.Label,
		Region:   cfg.Carbon.Region(),
		Workload: trace.Name,
		Reserved: cfg.Reserved,
		Horizon:  cfg.Horizon,
		Pricing:  cfg.Pricing,
		Jobs:     s.results,
	}
	res.AttachAccumulator(s.acc)
	return res, nil
}

// newEngine returns an event engine on the queue cfg's Mechanism names:
// the reference heap for HeapEngine, the timing wheel otherwise.
func (c Config) newEngine() *sim.Engine {
	e := sim.NewEngine()
	if c.Mechanism == HeapEngine {
		e.SetQueue(sim.QueueHeap)
	}
	return e
}

// normalizedTrace returns jobs itself when it already satisfies the
// invariants workload.NewTrace establishes — sorted by arrival, IDs
// numbered in order, every job valid — and a normalizing copy otherwise.
// The fast path is what makes a 30-cell sweep share one immutable trace
// instead of deep-copying it 30 times.
func normalizedTrace(jobs *workload.Trace) *workload.Trace {
	for i, j := range jobs.Jobs {
		if j.ID != i || (i > 0 && jobs.Jobs[i-1].Arrival > j.Arrival) || j.Validate() != nil {
			return workload.MustTrace(jobs.Name, jobs.Jobs)
		}
	}
	return jobs
}

// scheduler is the run-scoped state machine driven by the event engine.
type scheduler struct {
	cfg     Config
	ctx     *policy.Context
	engine  *sim.Engine
	pool    *cloud.ReservedPool
	evict   *cloud.EvictionModel
	waiting waitQueue
	acc     *metrics.Accumulator
	// el is the malleable-job machinery, nil unless the run's Elastic
	// trace has managed jobs (elastic.go).
	el *elasticState
	// results holds the retained per-job records (RetainJobs only).
	results []metrics.JobResult
	// jobs and segs recycle the event records: a jobState from arrival to
	// finish, a segment from its first event to its last.
	jobs slab[jobState]
	segs slab[segment]
	// plan is the reused buffer for a normalized suspend-resume plan,
	// which is consumed (turned into segments) as soon as it is built.
	plan []simtime.Interval
}

// slab recycles one kind of event record. get takes a released record or
// carves a fresh one from the current chunk; chunks double from 16 to 256
// records, so a run's record storage is bounded by its peak in-flight
// count and costs a handful of allocations, not one per job or event.
type slab[T any] struct {
	chunk []T
	size  int // length of the last chunk
	free  []*T
}

// get returns a record with stale contents; the caller overwrites it.
func (p *slab[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	if len(p.chunk) == 0 {
		p.size = min(max(2*p.size, 16), 256)
		p.chunk = make([]T, p.size)
	}
	x := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return x
}

// put releases a record for reuse.
func (p *slab[T]) put(x *T) { p.free = append(p.free, x) }

// jobState phases dispatched by Fire.
const (
	phaseStart uint8 = iota
	phasePlannedStart
	phaseFinish
)

// jobState carries one in-flight job through its scheduled events. It is
// the engine Action for the hot start/finish path (no closures, and the
// record recycles through the scheduler's jobs slab when the job
// completes), the work-conservation waiter entry, and — in streaming
// mode — the scratch storage for the job's accounting record.
type jobState struct {
	s     *scheduler
	job   workload.Job
	rec   *metrics.JobResult
	phase uint8
	// reserved/end parameterize the phaseFinish action.
	reserved int
	end      simtime.Time
	// scratch is the streaming-mode accounting record (rec points here);
	// with RetainJobs rec points into scheduler.results instead.
	scratch metrics.JobResult
	// Work-conservation waiter state: the policy-chosen start event and
	// the position in the planned-start heap.
	plannedStart simtime.Time
	startEvent   sim.Handle
	index        int
}

// Fire dispatches the jobState's scheduled phase.
func (js *jobState) Fire() {
	switch js.phase {
	case phaseStart:
		js.s.startJob(js)
	case phasePlannedStart:
		js.s.startPlanned(js)
	case phaseFinish:
		js.s.pool.Release(js.reserved)
		js.s.finish(js, js.end)
	}
}

// newJobState takes a recycled jobState for an arriving job and points
// its accounting record at the retained slice or the embedded scratch
// record.
func (s *scheduler) newJobState(job workload.Job) *jobState {
	js := s.jobs.get()
	*js = jobState{s: s, job: job}
	if s.results != nil {
		js.rec = &s.results[job.ID]
	} else {
		js.rec = &js.scratch
	}
	return js
}

// arrive handles a job submission.
func (s *scheduler) arrive(job workload.Job) {
	// Managed (malleable or DAG) jobs divert into the elastic machinery;
	// every other job — including all jobs of a degenerate elastic trace —
	// continues through the rigid path below untouched.
	if s.el != nil && s.el.et.Managed(job.ID) {
		s.el.arrive(job)
		return
	}
	now := s.engine.Now()
	js := s.newJobState(job)
	rec := js.rec
	rec.JobID = job.ID
	rec.Queue = job.Queue
	rec.User = job.User
	rec.CPUs = job.CPUs
	rec.Length = job.Length
	rec.Arrival = now
	rec.BaselineCarbon = s.carbonOf(simtime.Interval{
		Start: now, End: now.Add(job.Length),
	}, job.CPUs)

	if s.spotEligible(job) {
		s.scheduleSpot(js)
		return
	}

	// RES-First work conservation: run immediately when the job fits in
	// idle reserved capacity — those units are pre-paid either way.
	if s.cfg.WorkConserving && s.pool.Idle() >= job.CPUs {
		s.startJob(js)
		return
	}

	d := s.cfg.Policy.Decide(job, now, s.ctx)
	if err := d.Validate(job, now); err != nil {
		panic(fmt.Sprintf("policy %s: %v", s.cfg.Policy.Name(), err))
	}

	if d.IsPlan() {
		if s.cfg.WorkConserving {
			panic(fmt.Sprintf("policy %s: suspend-resume plans cannot be work-conserving", s.cfg.Policy.Name()))
		}
		s.schedulePlan(js, d.Plan)
		return
	}

	if s.cfg.WorkConserving {
		js.phase = phasePlannedStart
		js.plannedStart = d.Start
		js.startEvent = s.engine.ScheduleAction(d.Start, sim.PriorityStart, js)
		heap.Push(&s.waiting, js)
		return
	}
	js.phase = phaseStart
	s.engine.ScheduleAction(d.Start, sim.PriorityStart, js)
}

// spotEligible reports whether the job is routed to spot capacity.
func (s *scheduler) spotEligible(job workload.Job) bool {
	return s.cfg.SpotMaxLen > 0 && job.Length <= s.cfg.SpotMaxLen
}

// startPlanned fires when a waiting job's carbon-aware start time arrives
// without a reserved unit having freed up first.
func (s *scheduler) startPlanned(js *jobState) {
	heap.Remove(&s.waiting, js.index)
	s.startJob(js)
}

// startJob begins uninterruptible execution now, filling from idle
// reserved units first and on-demand for the remainder (the resource
// manager's placement rule, §4.1). The same jobState record becomes the
// finish action — no allocation on the hot path.
func (s *scheduler) startJob(js *jobState) {
	now := s.engine.Now()
	reserved := s.pool.Acquire(js.job.CPUs)
	onDemand := js.job.CPUs - reserved
	iv := simtime.Interval{Start: now, End: now.Add(js.job.Length)}
	js.rec.Start = now
	s.account(js.rec, iv, reserved, onDemand, 0, false)
	js.phase = phaseFinish
	js.reserved = reserved
	js.end = iv.End
	s.engine.ScheduleAction(iv.End, sim.PriorityFinish, js)
}

// segKind names the event a segment record fires as.
type segKind uint8

const (
	// segClaim takes reserved-first capacity for iv, books it and becomes
	// the segRelease event at iv.End.
	segClaim segKind = iota
	// segRelease returns the claimed reserved units; when iv.End == end it
	// also finishes the job.
	segRelease
	// segSpot books iv on spot capacity; when iv.End == end it becomes the
	// job's segFinish event.
	segSpot
	// segWaste books iv on spot capacity as eviction waste.
	segWaste
	// segCheckpoint books a checkpointed spot run evicted at iv.End: the
	// first dur of iv was saved by checkpoints, the rest is waste.
	segCheckpoint
	// segFinish completes the job at end.
	segFinish
)

// segment is the engine Action for every event of the spot, checkpoint
// and suspend-resume paths: one execution interval of one job. Records
// come from the scheduler's slab and return to its free list after their
// last event; a record that schedules a follow-on (claim → release, spot →
// finish) reschedules itself, so each interval costs one record however
// many events it fires.
type segment struct {
	js   *jobState
	kind segKind
	iv   simtime.Interval
	// end is the job's completion instant: the segment whose interval
	// ends there completes the job. Zero (never a completion instant, as
	// every job has positive length) marks a segment that does not.
	end simtime.Time
	// reserved is the claimed unit count between segClaim and segRelease.
	reserved int
	// dur is segCheckpoint's saved (useful) prefix of iv.
	dur simtime.Duration
}

// newSegment takes a recycled segment record for one of js's intervals.
func (s *scheduler) newSegment(js *jobState, kind segKind, iv simtime.Interval, end simtime.Time) *segment {
	g := s.segs.get()
	*g = segment{js: js, kind: kind, iv: iv, end: end}
	return g
}

// Fire runs the segment's event. Every path that does not reschedule the
// record recycles it; the job state is read first, because finish
// recycles that too.
func (g *segment) Fire() {
	js := g.js
	s := js.s
	cpus := js.job.CPUs
	switch g.kind {
	case segClaim:
		g.reserved = s.pool.Acquire(cpus)
		s.account(js.rec, g.iv, g.reserved, cpus-g.reserved, 0, false)
		g.kind = segRelease
		s.engine.ScheduleAction(g.iv.End, sim.PriorityFinish, g)
		return
	case segRelease:
		s.pool.Release(g.reserved)
		if g.iv.End == g.end {
			s.finish(js, g.end)
		}
	case segSpot:
		s.account(js.rec, g.iv, 0, 0, cpus, false)
		if g.iv.End == g.end {
			g.kind = segFinish
			s.engine.ScheduleAction(g.end, sim.PriorityFinish, g)
			return
		}
	case segWaste:
		s.account(js.rec, g.iv, 0, 0, cpus, true)
	case segCheckpoint:
		useful := simtime.Interval{Start: g.iv.Start, End: g.iv.Start.Add(g.dur)}
		s.account(js.rec, useful, 0, 0, cpus, false)
		s.account(js.rec, simtime.Interval{Start: useful.End, End: g.iv.End}, 0, 0, cpus, true)
	case segFinish:
		s.finish(js, g.end)
	}
	s.segs.put(g)
}

// normalizePlan is policy.NormalizePlan into the scheduler's reused plan
// buffer; the result is valid until the next call.
func (s *scheduler) normalizePlan(plan []simtime.Interval, length simtime.Duration) []simtime.Interval {
	s.plan = policy.AppendNormalizedPlan(s.plan[:0], plan, length)
	return s.plan
}

// schedulePlan executes a suspend-resume plan: each interval independently
// claims reserved-first capacity at its start and releases it at its end.
func (s *scheduler) schedulePlan(js *jobState, plan []simtime.Interval) {
	plan = s.normalizePlan(plan, js.job.Length)
	js.rec.Start = plan[0].Start
	last := plan[len(plan)-1].End
	for _, iv := range plan {
		s.engine.ScheduleAction(iv.Start, sim.PriorityStart, s.newSegment(js, segClaim, iv, last))
	}
}

// scheduleSpot runs a spot-eligible job: the policy's carbon-aware
// schedule executes on spot capacity; if the spot allocation is revoked,
// all progress is lost (the paper's assumption) and the job restarts
// immediately on on-demand capacity — falling back to idle reserved units
// first under Spot-RES.
func (s *scheduler) scheduleSpot(js *jobState) {
	now := s.engine.Now()
	job := js.job
	d := s.cfg.Policy.Decide(job, now, s.ctx)
	if err := d.Validate(job, now); err != nil {
		panic(fmt.Sprintf("policy %s: %v", s.cfg.Policy.Name(), err))
	}
	var one [1]simtime.Interval
	plan := d.Plan
	if !d.IsPlan() {
		one[0] = simtime.Interval{Start: d.Start, End: d.Start.Add(job.Length)}
		plan = one[:]
	} else {
		plan = s.normalizePlan(plan, job.Length)
	}

	if s.cfg.CheckpointInterval > 0 && len(plan) == 1 {
		s.scheduleCheckpointedSpot(js, plan[0].Start)
		return
	}

	// Sample the eviction process over the planned execution. Checks
	// occur at whole run-hours within each contiguous interval.
	evictAt := simtime.Time(-1)
	for _, iv := range plan {
		if at, ev := s.evict.SampleEviction(iv.Start, iv.Len()); ev {
			evictAt = at
			break
		}
	}

	js.rec.Start = plan[0].Start
	if evictAt < 0 {
		// Clean spot execution.
		last := plan[len(plan)-1].End
		for _, iv := range plan {
			s.engine.ScheduleAction(iv.Start, sim.PriorityStart, s.newSegment(js, segSpot, iv, last))
		}
		return
	}

	// Evicted: all execution up to evictAt is waste; restart on demand.
	js.rec.Evictions = 1
	for _, iv := range plan {
		if iv.Start >= evictAt {
			break
		}
		if iv.End > evictAt {
			iv.End = evictAt
		}
		s.engine.ScheduleAction(iv.Start, sim.PriorityStart, s.newSegment(js, segWaste, iv, 0))
	}
	s.scheduleRestart(js, evictAt, job.Length)
}

// scheduleRestart queues an evicted job's restart at evictAt: the
// remaining work runs on reserved-first capacity and completes the job.
func (s *scheduler) scheduleRestart(js *jobState, evictAt simtime.Time, remaining simtime.Duration) {
	iv := simtime.Interval{Start: evictAt, End: evictAt.Add(remaining)}
	s.engine.ScheduleAction(evictAt, sim.PriorityEvict, s.newSegment(js, segClaim, iv, iv.End))
}

// scheduleCheckpointedSpot runs a spot job that checkpoints after every
// CheckpointInterval of useful work (each checkpoint costing
// CheckpointOverhead of extra runtime). An eviction loses only the
// progress since the last completed checkpoint; the remainder resumes on
// on-demand capacity (reserved-first), checkpoint-free.
func (s *scheduler) scheduleCheckpointedSpot(js *jobState, start simtime.Time) {
	job := js.job
	ckInt := s.cfg.CheckpointInterval
	ckOver := s.cfg.CheckpointOverhead
	// Checkpoints strictly inside the job (none at completion).
	numCk := int((job.Length - 1) / ckInt)
	padded := job.Length + simtime.Duration(numCk)*ckOver
	cycle := ckInt + ckOver

	js.rec.Start = start
	evictAt, evicted := s.evict.SampleEviction(start, padded)
	if !evicted {
		// Clean run: whole padded execution on spot. The finish is queued
		// now, ahead of the start, so it is its own record.
		iv := simtime.Interval{Start: start, End: start.Add(padded)}
		s.engine.ScheduleAction(start, sim.PriorityStart, s.newSegment(js, segSpot, iv, 0))
		s.engine.ScheduleAction(iv.End, sim.PriorityFinish, s.newSegment(js, segFinish, iv, iv.End))
		return
	}

	js.rec.Evictions = 1
	ran := evictAt.Sub(start)
	savedCycles := int(ran / cycle)
	if savedCycles > numCk {
		savedCycles = numCk
	}
	savedWork := simtime.Duration(savedCycles) * ckInt
	// Everything run on spot is billed/emitted; only savedWork of it is
	// useful, the rest is eviction waste.
	g := s.newSegment(js, segCheckpoint, simtime.Interval{Start: start, End: evictAt}, 0)
	g.dur = savedWork
	s.engine.ScheduleAction(start, sim.PriorityStart, g)
	s.scheduleRestart(js, evictAt, job.Length-savedWork)
}

// finish closes a job's record, folds it into the streaming accumulator,
// recycles the jobState, and — under work conservation — hands freed
// reserved units to the earliest-planned waiting jobs.
func (s *scheduler) finish(js *jobState, at simtime.Time) {
	rec := js.rec
	rec.Finish = at
	rec.Waiting = at.Sub(rec.Arrival) - rec.Length
	s.acc.AddJob(rec)
	s.jobs.put(js)
	if s.cfg.WorkConserving {
		s.drainWaiting()
	}
}

// drainWaiting starts waiting jobs (earliest planned start first) while
// they fit entirely into idle reserved capacity — the RES-First rule: a
// freed reserved server immediately picks up the next queued job instead
// of idling until that job's carbon-optimal start.
func (s *scheduler) drainWaiting() {
	for s.waiting.Len() > 0 {
		w := s.waiting[0]
		if s.pool.Idle() < w.job.CPUs {
			return
		}
		heap.Pop(&s.waiting)
		s.engine.Cancel(w.startEvent)
		s.startJob(w)
	}
}

// carbonOf converts execution over iv into grams of CO2eq using the
// realized trace.
func (s *scheduler) carbonOf(iv simtime.Interval, cpus int) float64 {
	return s.cfg.Power.Carbon(s.cfg.Carbon.Integral(iv), cpus)
}

// account books one execution interval split across purchase options: the
// scalar totals go to the job record, the usage bins stream into the
// accumulator, and the per-job Segment is materialized only when records
// are retained.
func (s *scheduler) account(rec *metrics.JobResult, iv simtime.Interval, reserved, onDemand, spot int, wasted bool) {
	hours := iv.Len().Hours()
	carbonG := s.carbonOf(iv, reserved+onDemand+spot)
	cost := (float64(onDemand)*s.cfg.Pricing.HourlyRate(cloud.OnDemand) +
		float64(spot)*s.cfg.Pricing.HourlyRate(cloud.Spot)) * hours

	rec.Carbon += carbonG
	rec.UsageCost += cost
	rec.CPUHours[cloud.Reserved] += float64(reserved) * hours
	rec.CPUHours[cloud.OnDemand] += float64(onDemand) * hours
	rec.CPUHours[cloud.Spot] += float64(spot) * hours
	s.acc.AddUsage(iv, reserved, onDemand, spot)
	if s.results != nil {
		rec.Segments = append(rec.Segments, metrics.Segment{
			Interval: iv,
			Reserved: reserved,
			OnDemand: onDemand,
			Spot:     spot,
			Wasted:   wasted,
		})
	}
	if wasted {
		rec.WastedCPUHours += float64(reserved+onDemand+spot) * hours
		rec.WastedCarbon += carbonG
		rec.WastedCost += cost
	}
}

// waitQueue is a heap of work-conservation waiters ordered by planned
// start, then job ID for determinism.
type waitQueue []*jobState

func (q waitQueue) Len() int { return len(q) }

func (q waitQueue) Less(i, j int) bool {
	if q[i].plannedStart != q[j].plannedStart {
		return q[i].plannedStart < q[j].plannedStart
	}
	return q[i].job.ID < q[j].job.ID
}

func (q waitQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *waitQueue) Push(x any) {
	w := x.(*jobState)
	w.index = len(*q)
	*q = append(*q, w)
}

func (q *waitQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}
