package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// yearSweepWorkload is a seeded 1M-job Alibaba year on SA-AU under
// Carbon-Time: one direct core.Run, then a reserved-capacity sweep
// through runcache with a fresh disk directory (cold: decide once, replay
// the plan for the other cells, write the artifacts), then the same sweep
// from a new cache on that directory (warm: disk reads and decode). The
// direct path, the decide phase, the plan tier and the codecs do nearly
// all the work here and none in engine-mix.
var yearSweepWorkload = bench{
	name:  "year-sweep",
	setup: setupYearSweep,
}

type yearRunner struct {
	jobs    *workload.Trace
	direct  core.Config
	cells   []core.Config
	workDir string
	// checkCell is the plan-replayed cell compared with a fresh core.Run.
	checkCell int
	// diskProblems counts unusable disk entries runcache logged.
	diskProblems int
	planHits     int
	diskHits     int
	// warm is the last pass's disk-warm cache, kept reachable so the
	// live heap counts the results a caller would hold.
	warm *runcache.Cache
}

func setupYearSweep(cfg config, tr *tracer) (runner, error) {
	root := tr.root("year-sweep.setup")
	defer root.end()
	sp := tr.child(root, "carbon.generate")
	ci := carbon.RegionSAAU.GenerateYear(cfg.seed)
	sp.end()
	sp = tr.child(root, "workload.generate")
	jobs := fixedProfile(workload.AlibabaPAI()).GenerateByCount(rand.New(rand.NewSource(cfg.seed)), cfg.size.yearJobs, 350*simtime.Day)
	sp.end()
	r := &yearRunner{
		jobs:      jobs,
		direct:    core.Config{Policy: policy.CarbonTime{}, Carbon: ci, Reserved: 500},
		workDir:   cfg.workDir,
		checkCell: cfg.size.sweepCells / 2,
	}
	for i := 0; i < cfg.size.sweepCells; i++ {
		r.cells = append(r.cells, core.Config{Policy: policy.CarbonTime{}, Carbon: ci, Reserved: 200 + 100*i})
	}
	return r, nil
}

// resultSum identifies a result's encoded accumulator by length and
// checksum, so a sweep's cells need not all stay in memory as bytes.
type resultSum struct {
	n   int
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func sumOf(b []byte) resultSum { return resultSum{len(b), crc32.Checksum(b, castagnoli)} }

func encodeResult(res *metrics.Result) []byte { return metrics.EncodeAccumulator(res.Accumulator()) }

func (r *yearRunner) pass(tr *tracer, rep *report, idx int) (cold, warm cost) {
	r.warm = nil
	root := tr.root("year-sweep.pass")
	defer root.end()

	sp := tr.child(root, "core.run")
	res, err := core.Run(r.direct, r.jobs)
	sp.end()
	rep.op(checkRun("direct run", res, err, r.jobs.Len()))
	res = nil
	runtime.GC()

	dir := filepath.Join(r.workDir, fmt.Sprintf("year-sweep-%d-%d", os.Getpid(), idx))
	defer os.RemoveAll(dir)
	if err := os.RemoveAll(dir); err != nil {
		rep.op(err)
		return cold, warm
	}
	logf := func(string, ...any) { r.diskProblems++ }

	coldCache := runcache.New()
	coldCache.Logf = logf
	if err := coldCache.SetDir(dir); err != nil {
		rep.op(err)
		return cold, warm
	}
	sums := make([]resultSum, len(r.cells))
	var checkBytes []byte
	var coldResults []*metrics.Result
	r.planHits = 0
	coldSp := tr.child(root, "year-sweep.cold")
	for i, cfg := range r.cells {
		cs := tr.child(coldSp, "runcache.cold_cell")
		var res *metrics.Result
		var oc runcache.Outcome
		var err error
		cold.time(func() { res, oc, err = coldCache.Run(cfg, r.jobs) })
		cs.end()
		if oc == runcache.PlanHit {
			r.planHits++
		}
		err = checkRun(fmt.Sprintf("cold cell %d", i), res, err, r.jobs.Len())
		if err == nil {
			b := encodeResult(res)
			sums[i] = sumOf(b)
			if i == r.checkCell {
				checkBytes = b
				if oc != runcache.PlanHit {
					err = fmt.Errorf("cold cell %d was %v, want a plan replay", i, oc)
				}
			}
			if tr.on.Load() && len(coldResults) < 2 {
				coldResults = append(coldResults, res)
			}
		}
		rep.op(err)
	}
	coldSp.end()
	if idx == 0 && checkBytes != nil {
		res, err := core.Run(r.cells[r.checkCell], r.jobs)
		if err == nil {
			err = checkSameBytes("plan-replayed cell vs fresh core.Run", checkBytes, encodeResult(res))
		}
		rep.op(err)
	}
	checkBytes = nil
	coldCache = nil // drop the cold tier's accumulators before the warm sweep
	// Flush the cold sweep's writes and garbage first, so the warm sweep
	// is not billed for the cold one's write-back and collection.
	syscall.Sync()
	runtime.GC()

	warmCache := runcache.New()
	warmCache.Logf = logf
	if err := warmCache.SetDir(dir); err != nil {
		rep.op(err)
		return cold, warm
	}
	r.diskHits = 0
	warmSp := tr.child(root, "year-sweep.warm")
	for i, cfg := range r.cells {
		cs := tr.child(warmSp, "runcache.disk_cell")
		var res *metrics.Result
		var oc runcache.Outcome
		var err error
		warm.time(func() { res, oc, err = warmCache.Run(cfg, r.jobs) })
		cs.end()
		if oc == runcache.DiskHit {
			r.diskHits++
		}
		err = checkRun(fmt.Sprintf("disk-warm cell %d", i), res, err, r.jobs.Len())
		if err == nil && oc != runcache.DiskHit {
			err = fmt.Errorf("disk-warm cell %d was %v, want a disk hit", i, oc)
		}
		if err == nil {
			err = checkSameSum(fmt.Sprintf("disk-warm cell %d vs cold", i), sums[i], sumOf(encodeResult(res)))
		}
		rep.op(err)
	}
	warmSp.end()
	r.warm = warmCache
	if r.diskProblems > 0 {
		rep.op(fmt.Errorf("runcache logged %d unusable disk entries", r.diskProblems))
		r.diskProblems = 0
	}
	if tr.on.Load() {
		r.traceLayers(tr, root, rep, coldResults)
	}
	return cold, warm
}

// traceLayers times, in traced passes only, the layer calls the cache
// makes internally: the decide phase, each cell's plan replay, the cache
// keys, the aggregate queries and the codecs.
func (r *yearRunner) traceLayers(tr *tracer, root spanRef, rep *report, results []*metrics.Result) {
	ctx := context.Background()
	sp := tr.child(root, "core.decide")
	plan, err := core.DecidePlan(ctx, r.cells[0], r.jobs)
	sp.end()
	if err != nil {
		rep.op(err)
		return
	}
	for _, cfg := range r.cells {
		sp := tr.child(root, "core.fingerprint")
		_, ok1 := cfg.Fingerprint(r.jobs)
		_, ok2 := cfg.DecisionFingerprint(r.jobs)
		sp.end()
		sp = tr.child(root, "core.replay")
		res, err := core.RunWithPlan(ctx, cfg, r.jobs, plan)
		sp.end()
		if err == nil && !(ok1 && ok2) {
			err = errors.New("sweep cell not fingerprintable")
		}
		rep.op(checkRun("plan replay", res, err, r.jobs.Len()))
	}
	for _, res := range results {
		sp := tr.child(root, "metrics.summary")
		summary := fmt.Sprint(res.TotalCarbon(), res.BaselineCarbon(), res.TotalCost(), res.MeanWaiting(),
			res.MeanCompletion(), res.WaitingPercentile(0.95), res.ReservedUtilization(), res.CPUHoursByOption())
		sp.end()
		sp = tr.child(root, "metrics.encode")
		b := encodeResult(res)
		sp.end()
		sp = tr.child(root, "metrics.decode")
		acc, err := metrics.DecodeAccumulator(b)
		sp.end()
		if err == nil && acc.JobCount() != r.jobs.Len() {
			err = fmt.Errorf("decoded %d jobs (summary %s)", acc.JobCount(), summary)
		}
		rep.op(err)
	}
	sp = tr.child(root, "core.plan_encode")
	b := core.EncodeDecisionPlan(plan)
	sp.end()
	sp = tr.child(root, "core.plan_decode")
	p2, err := core.DecodeDecisionPlan(b)
	sp.end()
	if err == nil && p2.NumJobs() != plan.NumJobs() {
		err = fmt.Errorf("decoded plan covers %d jobs, want %d", p2.NumJobs(), plan.NumJobs())
	}
	rep.op(err)
}

func (r *yearRunner) finish(spans []span, rep *report) {
	for _, m := range []struct{ span, metric, unit string }{
		{"carbon.generate", "carbon.generate_ms", "ms"},
		{"workload.generate", "workload.generate_ms", "ms"},
		{"core.run", "core.run_ms", "ms"},
		{"core.decide", "core.decide_ms", "ms"},
		{"core.replay", "core.replay_ms", "ms"},
		{"core.fingerprint", "core.fingerprint_us", "us"},
		{"runcache.cold_cell", "runcache.cold_cell_ms", "ms"},
		{"runcache.disk_cell", "runcache.disk_cell_ms", "ms"},
		{"metrics.summary", "metrics.summary_ms", "ms"},
		{"metrics.encode", "metrics.encode_ms", "ms"},
		{"metrics.decode", "metrics.decode_ms", "ms"},
		{"core.plan_encode", "core.plan_encode_ms", "ms"},
		{"core.plan_decode", "core.plan_decode_ms", "ms"},
	} {
		rep.spanMetric(spans, m.span, m.metric, m.unit)
	}
	rep.setLayer("runcache.plan_hits", float64(r.planHits), "count")
	rep.setLayer("runcache.disk_hits", float64(r.diskHits), "count")
}

func (r *yearRunner) close() {}

// checkRun turns a failed run or one that did not complete every job
// into an error.
func checkRun(what string, res interface{ JobCount() int }, err error, want int) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if got := res.JobCount(); got != want {
		return fmt.Errorf("%s completed %d of %d jobs", what, got, want)
	}
	return nil
}

func checkSameBytes(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: %d encoded bytes differ from the %d expected", what, len(got), len(want))
	}
	return nil
}

func checkSameSum(what string, want, got resultSum) error {
	if want != got {
		return fmt.Errorf("%s: encoded result %+v, want %+v", what, got, want)
	}
	return nil
}
