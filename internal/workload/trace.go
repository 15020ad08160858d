package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
)

// Trace is an ordered collection of jobs — a cluster workload. Jobs are
// kept sorted by arrival time.
type Trace struct {
	Name string
	Jobs []Job

	// fp memoizes Fingerprint. It lives on the trace, so it is collected
	// with it, and its noCopy guard makes vet flag a copied trace that
	// would otherwise carry a stale memo.
	fp atomic.Pointer[[32]byte]
}

// Fingerprint returns a content hash of the trace's scheduling-relevant
// content: the name and every job's ID, arrival, length, CPU demand and
// user. The Queue tag is deliberately excluded — the core scheduler
// re-classifies each job from its length and the configured queue bounds,
// so the tag never influences a simulation result (and AssignQueues may
// rewrite it on a trace that is otherwise shared immutably).
//
// The hash is memoized per trace instance on first use; callers must not
// mutate jobs after fingerprinting (the same immutability the concurrent
// sweep engine already relies on). It is the workload half of the
// content-addressed simulation cache key.
func (t *Trace) Fingerprint() [32]byte {
	if fp := t.fp.Load(); fp != nil {
		return *fp
	}
	h := sha256.New()
	var buf [8]byte
	le := binary.LittleEndian
	le.PutUint64(buf[:], uint64(len(t.Name)))
	h.Write(buf[:])
	h.Write([]byte(t.Name))
	le.PutUint64(buf[:], uint64(len(t.Jobs)))
	h.Write(buf[:])
	for i := range t.Jobs {
		j := &t.Jobs[i]
		le.PutUint64(buf[:], uint64(j.ID))
		h.Write(buf[:])
		le.PutUint64(buf[:], uint64(j.Arrival))
		h.Write(buf[:])
		le.PutUint64(buf[:], uint64(j.Length))
		h.Write(buf[:])
		le.PutUint64(buf[:], uint64(j.CPUs))
		h.Write(buf[:])
		le.PutUint64(buf[:], uint64(len(j.User)))
		h.Write(buf[:])
		h.Write([]byte(j.User))
	}
	fp := new([32]byte)
	h.Sum(fp[:0])
	t.fp.Store(fp)
	return *fp
}

// NewTrace builds a trace, sorting jobs by arrival and re-numbering IDs in
// arrival order. It returns an error if any job is malformed.
func NewTrace(name string, jobs []Job) (*Trace, error) {
	js := append([]Job(nil), jobs...)
	sort.SliceStable(js, func(i, j int) bool { return js[i].Arrival < js[j].Arrival })
	for i := range js {
		js[i].ID = i
		if err := js[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &Trace{Name: name, Jobs: js}, nil
}

// MustTrace is NewTrace that panics on error.
func MustTrace(name string, jobs []Job) *Trace {
	tr, err := NewTrace(name, jobs)
	if err != nil {
		panic(err)
	}
	return tr
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Span returns the duration from time 0 to the last arrival.
func (t *Trace) Span() simtime.Duration {
	if len(t.Jobs) == 0 {
		return 0
	}
	return simtime.Duration(t.Jobs[len(t.Jobs)-1].Arrival)
}

// TotalCPUHours returns the total compute volume of the trace.
func (t *Trace) TotalCPUHours() float64 {
	var total float64
	for _, j := range t.Jobs {
		total += j.CPUHours()
	}
	return total
}

// MeanLength returns the mean job length, or 0 for an empty trace.
func (t *Trace) MeanLength() simtime.Duration {
	if len(t.Jobs) == 0 {
		return 0
	}
	var total simtime.Duration
	for _, j := range t.Jobs {
		total += j.Length
	}
	return total / simtime.Duration(len(t.Jobs))
}

// MeanLengthByQueue returns the mean job length of jobs in queue q — the
// queue-wide average Javg that Lowest-Window and Carbon-Time use as a
// coarse length estimate (paper §4.2.1). It returns 0 when the queue is
// empty.
func (t *Trace) MeanLengthByQueue(q Queue) simtime.Duration {
	var total simtime.Duration
	var n int
	for _, j := range t.Jobs {
		if j.Queue == q {
			total += j.Length
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / simtime.Duration(n)
}

// AssignQueues sets each job's queue from its true length: jobs with
// Length <= shortMax go to the short queue, the rest to the long queue.
// The paper assumes users classify jobs correctly (§6.1).
func (t *Trace) AssignQueues(shortMax simtime.Duration) {
	t.ClassifyQueues([]simtime.Duration{shortMax})
}

// ClassifyQueues assigns each job to the first queue whose length bound
// admits it. bounds[i] is the inclusive maximum length of queue i, in
// ascending order; jobs longer than every bound land in queue len(bounds)
// (the unbounded last queue). An empty bounds puts every job in queue 0.
func (t *Trace) ClassifyQueues(bounds []simtime.Duration) {
	for i := range t.Jobs {
		t.Jobs[i].Queue = ClassifyLength(t.Jobs[i].Length, bounds)
	}
}

// ClassifyLength returns the queue a job of the given length belongs to
// under the ascending bounds ladder (see ClassifyQueues). It lets callers
// classify jobs on the fly without mutating a shared trace.
func ClassifyLength(length simtime.Duration, bounds []simtime.Duration) Queue {
	for k, b := range bounds {
		if length <= b {
			return Queue(k)
		}
	}
	return Queue(len(bounds))
}

// MeanLengthsByBounds returns the mean job length of every queue of the
// bounds ladder (len(bounds)+1 entries, empty queues report 0), computed
// by classifying each job on the fly. Unlike ClassifyQueues +
// MeanLengthByQueue it leaves the trace untouched, so concurrent
// simulations can share one immutable trace.
func (t *Trace) MeanLengthsByBounds(bounds []simtime.Duration) []simtime.Duration {
	totals := make([]simtime.Duration, len(bounds)+1)
	counts := make([]int, len(bounds)+1)
	for _, j := range t.Jobs {
		q := ClassifyLength(j.Length, bounds)
		totals[q] += j.Length
		counts[q]++
	}
	for i := range totals {
		if counts[i] > 0 {
			totals[i] /= simtime.Duration(counts[i])
		}
	}
	return totals
}

// FilterLength drops jobs shorter than min or longer than max, the paper's
// trace-construction rule (jobs <5 min contribute almost no carbon; jobs
// >3 days gain little from diurnal shifting). It returns a new trace.
func (t *Trace) FilterLength(min, max simtime.Duration) *Trace {
	kept := make([]Job, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		if j.Length < min || j.Length > max {
			continue
		}
		kept = append(kept, j)
	}
	return MustTrace(t.Name, kept)
}

// FilterCPUs drops jobs demanding more than max CPUs (the paper limits its
// prototype week trace to <=4-CPU jobs for budget reasons). It returns a
// new trace.
func (t *Trace) FilterCPUs(max int) *Trace {
	kept := make([]Job, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		if j.CPUs <= max {
			kept = append(kept, j)
		}
	}
	return MustTrace(t.Name, kept)
}

// SampleN uniformly samples n jobs without replacement (all jobs when
// n >= Len), preserving arrival order. This mirrors the paper's uniform
// sampling of 100k-job and 1k-job traces.
func (t *Trace) SampleN(rng *rand.Rand, n int) *Trace {
	if n >= len(t.Jobs) {
		return MustTrace(t.Name, t.Jobs)
	}
	idx := rng.Perm(len(t.Jobs))[:n]
	sort.Ints(idx)
	jobs := make([]Job, 0, n)
	for _, i := range idx {
		jobs = append(jobs, t.Jobs[i])
	}
	return MustTrace(t.Name, jobs)
}

// Replicate tiles the trace end-to-end n times (the paper's "length
// extension" for building year-long traces from shorter ones). The span of
// one tile is period; arrivals of copy k are shifted by k*period.
func (t *Trace) Replicate(n int, period simtime.Duration) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: replicate count %d must be positive", n)
	}
	if period <= 0 {
		return nil, fmt.Errorf("workload: replicate period %v must be positive", period)
	}
	jobs := make([]Job, 0, len(t.Jobs)*n)
	for k := 0; k < n; k++ {
		shift := simtime.Duration(k) * period
		for _, j := range t.Jobs {
			j.Arrival = j.Arrival.Add(shift)
			jobs = append(jobs, j)
		}
	}
	return NewTrace(t.Name, jobs)
}

// DemandSeries returns the aggregate CPU demand per hourly slot if every
// job ran immediately at arrival (the "original demand" of Figure 2a),
// covering [0, horizon).
func (t *Trace) DemandSeries(horizon simtime.Duration) []float64 {
	slots := int(horizon / simtime.Hour)
	if slots <= 0 {
		return nil
	}
	// Minute-resolution difference array, then aggregate to hourly means.
	// Partial trailing hours are dropped (the series covers whole slots).
	minutes := slots * 60
	diff := make([]int32, minutes+1)
	for _, j := range t.Jobs {
		s := int(j.Arrival)
		e := int(j.Arrival.Add(j.Length))
		if s >= minutes {
			continue
		}
		if e > minutes {
			e = minutes
		}
		diff[s] += int32(j.CPUs)
		diff[e] -= int32(j.CPUs)
	}
	out := make([]float64, slots)
	var cur int32
	for m := 0; m < minutes; m++ {
		cur += diff[m]
		out[m/60] += float64(cur)
	}
	for i := range out {
		out[i] /= 60
	}
	return out
}

// MeanDemand returns the time-averaged CPU demand over [0, horizon) —
// the paper's "mean demand" used to size reserved capacity (R in
// Figure 17).
func (t *Trace) MeanDemand(horizon simtime.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return t.TotalCPUHours() / horizon.Hours()
}

// DemandCV returns the coefficient of variation of the hourly demand
// series — the paper reports 0.8 for Mustang-HPC and 0.3 for Azure-VM
// (§6.4.4).
func (t *Trace) DemandCV(horizon simtime.Duration) float64 {
	return stats.CV(t.DemandSeries(horizon))
}

// LengthCDF returns the empirical CDF of job lengths in minutes
// (Figure 5a).
func (t *Trace) LengthCDF() *stats.ECDF {
	xs := make([]float64, len(t.Jobs))
	for i, j := range t.Jobs {
		xs[i] = float64(j.Length)
	}
	return stats.NewECDF(xs)
}

// CPUCDF returns the empirical CDF of per-job CPU demand (Figure 5b).
func (t *Trace) CPUCDF() *stats.ECDF {
	xs := make([]float64, len(t.Jobs))
	for i, j := range t.Jobs {
		xs[i] = float64(j.CPUs)
	}
	return stats.NewECDF(xs)
}
