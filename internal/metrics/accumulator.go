package metrics

import (
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Accumulator is the streaming metrics sink the scheduler feeds as jobs
// execute. It keeps, instead of per-job records:
//
//   - compact columnar (SoA) arrays indexed by job ID — waiting, length,
//     carbon, baseline carbon, usage cost, queue tag — the exact inputs of
//     the percentile, CDF and total queries, stored in ID order so every
//     derived float64 sum runs in the same deterministic order as a scan
//     over retained JobResult records and is bit-identical to it;
//   - fused scalar totals folded in as each job finishes (CPU·hours by
//     option, eviction counts, wasted work);
//   - hourly usage bins in integer minute-CPU units, an online replacement
//     for replaying every execution segment (UsageSeries): per-hour sums
//     of small integers are exact in float64, so the binned series equals
//     the segment replay bit for bit.
//
// At ~41 bytes per job this is what lets one binary serve million-job
// traces; full JobResult retention (~230 bytes per job plus segment
// slices) stays available behind core's RetainJobs flag.
type Accumulator struct {
	waitings  []simtime.Duration
	lengths   []simtime.Duration
	carbons   []float64
	baselines []float64
	costs     []float64
	queues    []uint8

	cpuHours                              [3]float64
	evictions                             int
	wastedCPUHours, wastedCarbon, wastedC float64

	// usage[option][hour] holds CPU·minutes of allocation in that hour.
	// The bins grow on demand past the initial horizon so execution
	// spilling over the accounting horizon is never silently dropped.
	usage [3][]int64
}

// NewAccumulator sizes the columns for a trace of n jobs (IDs 0..n-1) and
// the usage bins for the given accounting horizon.
func NewAccumulator(n int, horizon simtime.Duration) *Accumulator {
	a := &Accumulator{
		waitings:  make([]simtime.Duration, n),
		lengths:   make([]simtime.Duration, n),
		carbons:   make([]float64, n),
		baselines: make([]float64, n),
		costs:     make([]float64, n),
		queues:    make([]uint8, n),
	}
	slots := int(horizon / simtime.Hour)
	if slots < 0 {
		slots = 0
	}
	for o := range a.usage {
		a.usage[o] = make([]int64, slots)
	}
	return a
}

// JobCount returns the number of jobs the columns cover.
func (a *Accumulator) JobCount() int { return len(a.waitings) }

// AddJob folds one finished job's record into the columns and totals. It
// must be called exactly once per job, with rec.JobID in [0, n).
func (a *Accumulator) AddJob(rec *JobResult) {
	i := rec.JobID
	a.waitings[i] = rec.Waiting
	a.lengths[i] = rec.Length
	a.carbons[i] = rec.Carbon
	a.baselines[i] = rec.BaselineCarbon
	a.costs[i] = rec.UsageCost
	a.queues[i] = uint8(rec.Queue)
	for o := range a.cpuHours {
		a.cpuHours[o] += rec.CPUHours[o]
	}
	a.evictions += rec.Evictions
	a.wastedCPUHours += rec.WastedCPUHours
	a.wastedCarbon += rec.WastedCarbon
	a.wastedC += rec.WastedCost
}

// The sharded-fill API below decomposes AddJob for producers that compute
// per-job metrics out of finish order (core's direct-execution run path):
// PutJob writes the order-free ID-indexed columns, AddCPUHours folds the
// order-sensitive float totals, and a UsageShard fill (ShardUsage, Add,
// MergeUsage) bins usage from concurrent shards with no shared writes. Splitting the fold out is what makes the
// decomposition exact: every float64 the accumulator ever sums across jobs
// is either stored per job (columns — summation order fixed at query time)
// or folded here by the caller in the engine's finish order, and the usage
// bins are integers, whose sums do not depend on order or grouping, so a
// sharded fill is bit-identical to a sequential AddJob+AddUsage stream.
// The remaining totals (evictions, wasted work) and the spot bins are only
// ever incremented by zero in the configurations that shard (no spot, no
// evictions), so skipping them changes nothing.

// PutJob writes job i's order-free columns. Concurrent callers are safe
// iff they cover disjoint job IDs; each ID must be written exactly once.
func (a *Accumulator) PutJob(i int, waiting, length simtime.Duration, carbon, baseline float64, q workload.Queue) {
	a.waitings[i] = waiting
	a.lengths[i] = length
	a.carbons[i] = carbon
	a.baselines[i] = baseline
	a.queues[i] = uint8(q)
}

// PutCost writes job i's usage-cost column under the same disjoint-ID
// contract as PutJob.
func (a *Accumulator) PutCost(i int, cost float64) { a.costs[i] = cost }

// AddCPUHours folds one job's per-option CPU·hours into the running
// totals. Float addition is order-sensitive, so callers must invoke this
// sequentially in the exact finish order the event engine would produce.
func (a *Accumulator) AddCPUHours(h [3]float64) {
	for o := range a.cpuHours {
		a.cpuHours[o] += h[o]
	}
}

// GrowUsage extends the usage bins to cover an execution ending at end,
// replicating AddUsage's on-demand growth rule so a pre-grown accumulator
// is indistinguishable from one grown incrementally to the same maximum.
// A sharded fill must pre-grow with the latest end it will bin before
// calling ShardUsage: shards cannot resize bins they share.
func (a *Accumulator) GrowUsage(end simtime.Time) {
	e := int64(end)
	if e <= 0 {
		return
	}
	lastHour := int((e - 1) / 60)
	if need := lastHour + 1; need > len(a.usage[0]) {
		for o := range a.usage {
			a.usage[o] = append(a.usage[o], make([]int64, need-len(a.usage[o]))...)
		}
	}
}

// shardOptions are the purchase options a UsageShard bins, by column.
var shardOptions = [2]cloud.Option{cloud.Reserved, cloud.OnDemand}

// A UsageShard bins the reserved and on-demand usage of one shard of a
// concurrent fill in O(1) per interval, whatever its length. It keeps one
// difference column per option, whose prefix sum is the shard's bins: a
// job's partial first and last hours and the run of whole hours between
// them are each a +/− pair, and the pairs meeting at the same index fold
// into one write, so an interval costs at most four writes per option.
// Shards write only their own columns, so a fill needs no atomics.
// Columns are indexed like shardOptions.
type UsageShard struct {
	diff [2][]int64
}

// ShardUsage starts a concurrent fill of a's bins with k shards, reusing
// the columns of buf (nil is fine), and returns shards[:k]. a's bins must
// already cover every interval the fill will add (GrowUsage). Shard 0's
// difference columns are a's own reserved and on-demand bins, rewritten
// in difference form, so a one-shard fill needs no scratch at all; the
// other shards own zeroed columns. Each shard must be used by one
// goroutine at a time, and a's bins must not be read until MergeUsage
// ends the fill.
func (a *Accumulator) ShardUsage(buf []UsageShard, k int) []UsageShard {
	if k == 0 {
		return buf[:0]
	}
	if cap(buf) < k {
		buf = append(buf[:cap(buf)], make([]UsageShard, k-cap(buf))...)
	}
	shards := buf[:k]
	n := len(a.usage[0])
	for c, o := range shardOptions {
		bins := a.usage[o]
		for h := n - 1; h > 0; h-- {
			bins[h] -= bins[h-1]
		}
		for i := range shards {
			sh := &shards[i]
			switch {
			case i == 0:
				sh.diff[c] = bins
			case cap(sh.diff[c]) < n:
				sh.diff[c] = make([]int64, n)
			default:
				sh.diff[c] = sh.diff[c][:n]
				clear(sh.diff[c])
			}
		}
	}
	return shards
}

// Add bins one execution interval's reserved and on-demand allocation,
// with AddUsage's arithmetic. An interval past the bins ShardUsage sized
// panics rather than silently dropping usage.
func (s *UsageShard) Add(iv simtime.Interval, reserved, onDemand int) {
	st, e := int64(iv.Start), int64(iv.End)
	if st < 0 {
		st = 0
	}
	if st >= e {
		return
	}
	first, last := int(st/60), int((e-1)/60)
	n := len(s.diff[0])
	if last >= n {
		panic("metrics: UsageShard.Add past GrowUsage horizon")
	}
	for c, units := range [2]int{reserved, onDemand} {
		if units == 0 {
			continue
		}
		u := int64(units)
		d := s.diff[c]
		// tail is the usage in hour last (the whole interval when it
		// lies in one hour). The −tail closing it would land one past
		// the bins when last is the final hour, where no prefix sum
		// reaches, so it is dropped there.
		tail := u * (e - st)
		if first < last {
			head := u * (int64(first+1)*60 - st)
			tail = u * (e - int64(last)*60)
			d[first] += head
			d[first+1] += u*60 - head
			d[last] += tail - u*60
		} else {
			d[first] += tail
		}
		if last+1 < n {
			d[last+1] -= tail
		}
	}
}

// MergeUsage ends a ShardUsage fill: it adds the other shards' difference
// columns into shard 0's, which are a's bins, and prefix-sums them back
// into bins, once per option. Afterwards the shards no longer reference a.
func (a *Accumulator) MergeUsage(shards []UsageShard) {
	if len(shards) == 0 {
		return
	}
	for c, o := range shardOptions {
		bins := a.usage[o] // shard 0's column
		for k := 1; k < len(shards); k++ {
			for h, v := range shards[k].diff[c] {
				bins[h] += v
			}
		}
		for h := 1; h < len(bins); h++ {
			bins[h] += bins[h-1]
		}
	}
	shards[0].diff = [2][]int64{}
}

// AddUsage bins one execution interval's allocation per purchase option —
// the streaming equivalent of appending a Segment. Units are CPU·minutes,
// so the hourly mean is an exact integer division by 60 at query time.
// It is the event engine's sequential binning, and the reference a
// UsageShard fill must equal bin for bin.
func (a *Accumulator) AddUsage(iv simtime.Interval, reserved, onDemand, spot int) {
	s, e := int64(iv.Start), int64(iv.End)
	if s < 0 {
		s = 0
	}
	if s >= e {
		return
	}
	lastHour := int((e - 1) / 60)
	if need := lastHour + 1; need > len(a.usage[0]) {
		for o := range a.usage {
			a.usage[o] = append(a.usage[o], make([]int64, need-len(a.usage[o]))...)
		}
	}
	var byOption [3]int
	byOption[cloud.Reserved] = reserved
	byOption[cloud.OnDemand] = onDemand
	byOption[cloud.Spot] = spot
	for o, units := range byOption {
		if units == 0 {
			continue
		}
		for h := int(s / 60); h <= lastHour; h++ {
			lo, hi := int64(h)*60, int64(h+1)*60
			if lo < s {
				lo = s
			}
			if hi > e {
				hi = e
			}
			a.usage[o][h] += int64(units) * (hi - lo)
		}
	}
}

// Queue returns job i's queue tag.
func (a *Accumulator) Queue(i int) workload.Queue { return workload.Queue(a.queues[i]) }
