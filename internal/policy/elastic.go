package policy

import (
	"sort"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// ElasticJobView is the allocator-visible state of one running (or
// suspended) malleable job at a reallocation boundary. Remaining is the
// serial-equivalent work left in minutes; Replicas is the current
// allocation (0 = suspended).
type ElasticJobView struct {
	ID        int
	Queue     workload.Queue
	CPUs      int // per-replica width
	Min, Max  int
	Curve     workload.ScaleCurve
	Remaining float64
	Replicas  int
}

// ElasticAllocator reallocates replicas across the running malleable jobs
// at every hour boundary — the CarbonScaler control loop. Allocate returns
// one replica grant per view (same order). Grants are advisory: the
// scheduler clamps each to [Min, Max], forbids suspension (a zero grant)
// unless Min is 0 and the job's waiting-time guarantee still has room, and
// always honours the base width max(Min, 1). capacity is the CPU budget
// for replicas beyond the base widths (base allocations are pre-granted
// and not counted): the scheduler passes the reserved pool's idle capacity
// at the boundary, further capped by Config.ElasticCapacity when that is
// positive, so scale-ups ride capacity that is already paid for and are
// free by construction. A negative capacity (never produced by the
// scheduler) lifts the bound for direct callers.
//
// Implementations must be deterministic pure functions of their arguments
// — allocations are part of the simulation cache key via the config
// fingerprint, so hidden state would poison cached results.
type ElasticAllocator interface {
	// Name returns the allocator's display name.
	Name() string
	// Allocate chooses replica grants for the boundary at now.
	Allocate(jobs []ElasticJobView, now simtime.Time, capacity int, ctx *Context) []int
}

// StaticAlloc pins every job to its base width max(Min, 1): elasticity
// machinery on, no actual scaling — the rigid reference point of the
// elastic figure suite and the default allocator.
type StaticAlloc struct{}

// Name implements ElasticAllocator.
func (StaticAlloc) Name() string { return "Static-Min" }

// Allocate implements ElasticAllocator.
func (StaticAlloc) Allocate(jobs []ElasticJobView, _ simtime.Time, _ int, _ *Context) []int {
	grants := make([]int, len(jobs))
	for i, v := range jobs {
		grants[i] = v.Min
		if grants[i] < 1 {
			grants[i] = 1
		}
	}
	return grants
}

// GreedyMarginal is the CarbonScaler-style marginal-capacity allocator:
// each hour it compares the hour's carbon intensity against the
// forecast 24-hour mean (the "greenness" g — below 1 is a clean hour) and
// grants extra replicas to the jobs with the highest marginal throughput
// per CPU while each marginal clears ScaleThreshold·g; in dirty hours
// (g ≥ PreemptAbove) preemptible jobs (Min 0) are suspended outright.
// Replicas therefore concentrate work into the cleanest hours of the day,
// paying the scale curve's inefficiency only when the carbon price of an
// hour is low enough to cover it.
type GreedyMarginal struct {
	// ScaleThreshold is the marginal-throughput floor per unit greenness a
	// replica must clear to be granted (default 0.75).
	ScaleThreshold float64
	// PreemptAbove is the greenness at which preemptible jobs suspend
	// (default 1.25 — a quarter dirtier than the daily mean).
	PreemptAbove float64
}

// Name implements ElasticAllocator.
func (GreedyMarginal) Name() string { return "Greedy-Marginal" }

// Params returns the thresholds Allocate uses: each configured value, or
// its default (0.75, 1.25) when it is not positive.
func (a GreedyMarginal) Params() (thresh, preempt float64) {
	thresh, preempt = a.ScaleThreshold, a.PreemptAbove
	if thresh <= 0 {
		thresh = 0.75
	}
	if preempt <= 0 {
		preempt = 1.25
	}
	return thresh, preempt
}

// Allocate implements ElasticAllocator.
func (a GreedyMarginal) Allocate(jobs []ElasticJobView, now simtime.Time, capacity int, ctx *Context) []int {
	thresh, preempt := a.Params()
	g := greenness(ctx, now)

	grants := make([]int, len(jobs))
	type cand struct {
		job   int
		r     int // replica index being added (0-based marginal)
		value float64
	}
	var cands []cand
	for i, v := range jobs {
		base := v.Min
		if base < 1 {
			base = 1
		}
		if v.Min == 0 && g >= preempt {
			grants[i] = 0
			continue
		}
		grants[i] = base
		for r := base; r < v.Max; r++ {
			m := v.Curve[r]
			if m < thresh*g {
				break // marginals are non-increasing: later replicas fail too
			}
			cands = append(cands, cand{job: i, r: r, value: m / float64(v.CPUs)})
		}
	}
	// Highest marginal throughput per CPU first; ties by job then replica
	// index, which also guarantees replica r is granted before r+1.
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].value != cands[y].value {
			return cands[x].value > cands[y].value
		}
		if cands[x].job != cands[y].job {
			return jobs[cands[x].job].ID < jobs[cands[y].job].ID
		}
		return cands[x].r < cands[y].r
	})
	budget := capacity
	for _, c := range cands {
		w := jobs[c.job].CPUs
		if capacity >= 0 {
			if budget < w {
				continue
			}
			budget -= w
		}
		grants[c.job]++
	}
	return grants
}

// greenness is the hour's forecast carbon integral relative to the
// forecast daily mean: 1 means an average hour, below 1 cleaner than
// average. A zero daily integral (an all-zero trace) reports 1.
func greenness(ctx *Context, now simtime.Time) float64 {
	hour := ctx.CIS.ForecastIntegral(now, simtime.Interval{Start: now, End: now.Add(simtime.Hour)})
	day := ctx.CIS.ForecastIntegral(now, simtime.Interval{Start: now, End: now.Add(24 * simtime.Hour)})
	if day <= 0 {
		return 1
	}
	return hour / (day / 24)
}

// CriticalPathShift is the DAG-aware shifter: it runs the Carbon-Time
// objective, but a job's waiting window is capped by its precedence slack
// (Context.SlackFn, critical-path analysis over the DAG), so zero-slack
// jobs start as early as Carbon-Time's no-saving fallback would and only
// off-critical-path jobs shift — the schedule saves carbon without
// stretching the DAG's completion the way blanket shifting does. Jobs
// without precedence edges keep their full queue window, making the policy
// identical to Carbon-Time on edge-free traces.
type CriticalPathShift struct{}

// Name implements Policy.
func (CriticalPathShift) Name() string { return "Critical-Path" }

// Decide implements Policy.
func (CriticalPathShift) Decide(job workload.Job, now simtime.Time, ctx *Context) Decision {
	w := ctx.Queue(job.Queue).MaxWait
	if ctx.SlackFn != nil {
		if s, ok := ctx.SlackFn(job.ID); ok && s < w {
			w = s
		}
	}
	return carbonTimeScan(job, now, ctx, w)
}
