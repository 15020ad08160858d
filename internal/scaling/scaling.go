// Package scaling implements carbon-aware *demand regulation* — the
// other carbon-saving modality the paper's conclusion defers to future
// work ("we will focus on other carbon-saving modalities, such as
// scaling") and its related work discusses as CarbonScaler: instead of
// only shifting a job in time, an elastic job changes its parallelism
// over time, running wide in clean hours and narrow (or not at all) in
// dirty ones.
//
// The planner is the greedy marginal-allocation algorithm: repeatedly buy
// the cheapest next unit of throughput, where a slot's price is
// CI(slot) / marginal throughput. A job's curve is a workload.ScaleCurve,
// the same model the elastic engine's allocators read; its marginals are
// non-increasing, so the greedy plan matches the continuous-relaxation
// optimum.
package scaling

import (
	"container/heap"
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// ElasticJob is a malleable batch job: Work serial CPU-hours that may run
// at any parallelism up to MaxParallel, with diminishing returns given by
// Curve.
type ElasticJob struct {
	Arrival simtime.Time
	// Work is the job volume in serial CPU-hours (time at k=1).
	Work float64
	// MaxParallel caps the per-slot allocation.
	MaxParallel int
	// Curve holds the job's marginal throughputs, at least MaxParallel of
	// them (workload.AmdahlCurve builds the classic speedup law).
	Curve workload.ScaleCurve
	// Deadline bounds completion at Arrival+Deadline.
	Deadline simtime.Duration
}

// Validate reports whether the job is well-formed and feasible at maximum
// parallelism within its deadline. The curve must satisfy
// workload.ScaleCurve's invariants: non-increasing marginals are what make
// PlanJob's greedy plan optimal.
func (j ElasticJob) Validate() error {
	if j.Work <= 0 {
		return fmt.Errorf("scaling: work %v must be positive", j.Work)
	}
	if j.MaxParallel < 1 {
		return fmt.Errorf("scaling: max parallelism %d must be >= 1", j.MaxParallel)
	}
	if j.Deadline <= 0 {
		return fmt.Errorf("scaling: deadline %v must be positive", j.Deadline)
	}
	if err := j.Curve.Validate(); err != nil {
		return fmt.Errorf("scaling: %w", err)
	}
	if len(j.Curve) < j.MaxParallel {
		return fmt.Errorf("scaling: curve has %d marginals for max parallelism %d", len(j.Curve), j.MaxParallel)
	}
	slots := float64(j.Deadline / simtime.Hour)
	if capacity := j.Curve.Throughput(j.MaxParallel) * slots; capacity < j.Work {
		return fmt.Errorf("scaling: infeasible: %v work > %v capacity within deadline", j.Work, capacity)
	}
	return nil
}

// Alloc is one hour-slot's parallelism in a plan.
type Alloc struct {
	Slot int // hour index
	CPUs int
}

// Plan is a per-hour parallelism schedule.
type Plan struct {
	Allocs []Alloc // ascending by slot, zero-CPU slots omitted
}

// CPUHours returns the plan's total resource consumption.
func (p Plan) CPUHours() float64 {
	var total float64
	for _, a := range p.Allocs {
		total += float64(a.CPUs)
	}
	return total
}

// Completion returns the end of the last active slot, or arrival when the
// plan is empty.
func (p Plan) Completion(arrival simtime.Time) simtime.Time {
	if len(p.Allocs) == 0 {
		return arrival
	}
	last := p.Allocs[len(p.Allocs)-1].Slot
	return simtime.Time(simtime.Duration(last+1) * simtime.Hour)
}

// Carbon returns the plan's emissions in grams given the realized trace
// and per-CPU power in kW.
func (p Plan) Carbon(tr *carbon.Trace, kwPerCPU float64) float64 {
	var g float64
	for _, a := range p.Allocs {
		iv := simtime.Interval{
			Start: simtime.Time(simtime.Duration(a.Slot) * simtime.Hour),
			End:   simtime.Time(simtime.Duration(a.Slot+1) * simtime.Hour),
		}
		g += tr.Integral(iv) * kwPerCPU * float64(a.CPUs)
	}
	return g
}

// slotState tracks a slot's current allocation in the greedy heap.
type slotState struct {
	slot  int
	ci    float64
	cpus  int
	index int
}

type slotHeap struct {
	items []*slotState
	curve workload.ScaleCurve
}

// price is the marginal carbon per unit of added throughput.
func (h *slotHeap) price(s *slotState) float64 { return s.ci / h.curve[s.cpus] }

func (h *slotHeap) Len() int { return len(h.items) }
func (h *slotHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	pa, pb := h.price(a), h.price(b)
	if pa != pb {
		return pa < pb
	}
	return a.slot < b.slot // earlier slot on ties: shorter completion
}
func (h *slotHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}
func (h *slotHeap) Push(x any) {
	s := x.(*slotState)
	s.index = len(h.items)
	h.items = append(h.items, s)
}
func (h *slotHeap) Pop() any {
	old := h.items
	n := len(old)
	s := old[n-1]
	h.items = old[:n-1]
	return s
}

// PlanJob builds the carbon-minimal parallelism schedule for the job as
// seen at its arrival, buying marginal throughput in the cheapest
// (CI/marginal-speedup) slots until the work fits. The final marginal
// unit may overshoot slightly, exactly as a real malleable job finishes
// mid-slot.
func PlanJob(job ElasticJob, cis carbon.Service) (Plan, error) {
	if err := job.Validate(); err != nil {
		return Plan{}, err
	}
	firstSlot := job.Arrival.HourIndex()
	lastSlot := (job.Arrival.Add(job.Deadline) - 1).HourIndex()

	h := &slotHeap{curve: job.Curve}
	for s := firstSlot; s <= lastSlot; s++ {
		slotStart := simtime.Time(simtime.Duration(s) * simtime.Hour)
		ci := cis.ForecastIntegral(job.Arrival, simtime.Interval{
			Start: slotStart, End: slotStart.Add(simtime.Hour),
		})
		heap.Push(h, &slotState{slot: s, ci: ci})
	}

	remaining := job.Work
	cpus := make(map[int]int)
	for remaining > 1e-12 && h.Len() > 0 {
		s := h.items[0]
		remaining -= job.Curve[s.cpus]
		s.cpus++
		cpus[s.slot] = s.cpus
		if s.cpus >= job.MaxParallel {
			heap.Pop(h)
		} else {
			heap.Fix(h, s.index)
		}
	}
	if remaining > 1e-12 {
		return Plan{}, fmt.Errorf("scaling: internal: %v work unplaced", remaining)
	}

	var plan Plan
	for s := firstSlot; s <= lastSlot; s++ {
		if k := cpus[s]; k > 0 {
			plan.Allocs = append(plan.Allocs, Alloc{Slot: s, CPUs: k})
		}
	}
	return plan, nil
}

// StaticPlan runs the job at constant parallelism k from arrival until
// the work completes (the carbon-agnostic baseline; k=1 is the paper's
// uninterruptible single-width execution).
func StaticPlan(job ElasticJob, k int) (Plan, error) {
	if err := job.Validate(); err != nil {
		return Plan{}, err
	}
	if k < 1 || k > job.MaxParallel {
		return Plan{}, fmt.Errorf("scaling: static parallelism %d out of [1, %d]", k, job.MaxParallel)
	}
	throughput := job.Curve.Throughput(k)
	remaining := job.Work
	var plan Plan
	slot := job.Arrival.HourIndex()
	for remaining > 1e-12 {
		plan.Allocs = append(plan.Allocs, Alloc{Slot: slot, CPUs: k})
		remaining -= throughput
		slot++
	}
	return plan, nil
}
