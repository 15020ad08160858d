package scaling

import (
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func cisOver(values []float64) carbon.Service {
	return carbon.NewPerfectService(carbon.MustTrace("t", values))
}

// linear is the embarrassingly-parallel curve: every replica adds one
// serial-equivalent.
func linear(n int) workload.ScaleCurve {
	c := make(workload.ScaleCurve, n)
	for i := range c {
		c[i] = 1
	}
	return c
}

func TestValidate(t *testing.T) {
	good := ElasticJob{Work: 4, MaxParallel: 4, Deadline: 24 * simtime.Hour, Curve: linear(4)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ElasticJob{
		{Work: 0, MaxParallel: 1, Deadline: simtime.Hour, Curve: linear(1)},
		{Work: 1, MaxParallel: 0, Deadline: simtime.Hour, Curve: linear(1)},
		{Work: 1, MaxParallel: 1, Deadline: 0, Curve: linear(1)},
		// Infeasible: 100 units of serial work, 2h deadline, max 2x.
		{Work: 100, MaxParallel: 2, Deadline: 2 * simtime.Hour, Curve: linear(2)},
		// No curve at all.
		{Work: 1, MaxParallel: 1, Deadline: simtime.Hour},
		// Convex: rising marginals would make the greedy plan suboptimal.
		{Work: 1, MaxParallel: 2, Deadline: simtime.Hour, Curve: workload.ScaleCurve{1, 2}},
		// Too short: 2 marginals for up to 4 replicas.
		{Work: 1, MaxParallel: 4, Deadline: simtime.Hour, Curve: linear(2)},
	}
	for i, j := range bad {
		if j.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestPlanTargetsCheapSlots(t *testing.T) {
	// Hours 2 and 3 are clean: a 4-unit linear job (max 2) should run
	// 2 CPUs in each clean hour and nothing elsewhere.
	cis := cisOver([]float64{900, 900, 50, 60, 900, 900, 900, 900})
	job := ElasticJob{
		Arrival: 0, Work: 4, MaxParallel: 2,
		Deadline: 8 * simtime.Hour, Curve: linear(2),
	}
	plan, err := PlanJob(job, cis)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocs) != 2 {
		t.Fatalf("plan = %+v", plan.Allocs)
	}
	for _, a := range plan.Allocs {
		if a.Slot != 2 && a.Slot != 3 {
			t.Errorf("allocated dirty slot %d", a.Slot)
		}
		if a.CPUs != 2 {
			t.Errorf("slot %d CPUs = %d", a.Slot, a.CPUs)
		}
	}
	if plan.CPUHours() != 4 {
		t.Errorf("cpu hours = %v", plan.CPUHours())
	}
	if plan.Completion(0) != simtime.Time(4*simtime.Hour) {
		t.Errorf("completion = %v", plan.Completion(0))
	}
}

func TestPlanRespectsDiminishingReturns(t *testing.T) {
	// With Amdahl(0.5) the second CPU adds only 1/3 throughput: when a
	// moderately clean slot exists, spreading beats piling into the
	// single cleanest slot.
	cis := cisOver([]float64{100, 120, 900, 900, 900, 900, 900, 900})
	job := ElasticJob{
		Arrival: 0, Work: 2, MaxParallel: 8,
		Deadline: 8 * simtime.Hour, Curve: workload.AmdahlCurve(0.5, 8),
	}
	plan, err := PlanJob(job, cis)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]int{}
	for _, a := range plan.Allocs {
		used[a.Slot] = a.CPUs
	}
	if used[0] == 0 || used[1] == 0 {
		t.Errorf("both clean slots should be used: %+v", plan.Allocs)
	}
	if used[2] != 0 {
		t.Errorf("dirty slot used: %+v", plan.Allocs)
	}
}

func TestPlanCoversWork(t *testing.T) {
	cis := cisOver(carbon.RegionSAAU.Generate(24*4, 1).Values())
	for _, curve := range []workload.ScaleCurve{linear(6), workload.AmdahlCurve(0.9, 6), workload.AmdahlCurve(0.5, 6)} {
		job := ElasticJob{
			Arrival: 90, Work: 10, MaxParallel: 6,
			Deadline: 36 * simtime.Hour, Curve: curve,
		}
		plan, err := PlanJob(job, cis)
		if err != nil {
			t.Fatal(err)
		}
		var done float64
		for _, a := range plan.Allocs {
			done += curve.Throughput(a.CPUs)
		}
		if done < job.Work-1e-9 {
			t.Errorf("%v: plan does %v of %v work", curve, done, job.Work)
		}
		// At most one marginal overshoot.
		if done > job.Work+curve.Throughput(job.MaxParallel) {
			t.Errorf("%v: excessive overshoot %v", curve, done)
		}
	}
}

func TestScalerNeverDirtierThanStatic(t *testing.T) {
	// The greedy plan's carbon is bounded by both static baselines on
	// any trace (it can always imitate them).
	tr := carbon.RegionSAAU.Generate(24*4, 2)
	cis := carbon.NewPerfectService(tr)
	job := ElasticJob{
		Arrival: 0, Work: 12, MaxParallel: 4,
		Deadline: 48 * simtime.Hour, Curve: linear(4),
	}
	plan, err := PlanJob(job, cis)
	if err != nil {
		t.Fatal(err)
	}
	const kw = 0.01
	planC := plan.Carbon(tr, kw)
	for _, k := range []int{1, 4} {
		static, err := StaticPlan(job, k)
		if err != nil {
			t.Fatal(err)
		}
		if c := static.Carbon(tr, kw); planC > c+1e-9 {
			t.Errorf("scaler %v dirtier than static-%d %v", planC, k, c)
		}
	}
}

func TestStaticPlan(t *testing.T) {
	job := ElasticJob{Arrival: 0, Work: 4, MaxParallel: 4, Deadline: 24 * simtime.Hour, Curve: linear(4)}
	p1, err := StaticPlan(job, 1)
	if err != nil || len(p1.Allocs) != 4 || p1.CPUHours() != 4 {
		t.Errorf("static-1 = %+v, %v", p1, err)
	}
	p4, err := StaticPlan(job, 4)
	if err != nil || len(p4.Allocs) != 1 || p4.CPUHours() != 4 {
		t.Errorf("static-4 = %+v, %v", p4, err)
	}
	if _, err := StaticPlan(job, 9); err == nil {
		t.Error("k beyond max should error")
	}
	if _, err := StaticPlan(ElasticJob{}, 1); err == nil {
		t.Error("invalid job should error")
	}
}

func TestAmdahlCostsMoreCPUHours(t *testing.T) {
	// Scaling wide with Amdahl burns more CPU-hours than serial — the
	// energy/carbon tension CarbonScaler navigates.
	job := ElasticJob{Arrival: 0, Work: 6, MaxParallel: 8, Deadline: 48 * simtime.Hour, Curve: workload.AmdahlCurve(0.9, 8)}
	cis := cisOver([]float64{10, 900, 900, 900, 900, 900, 900, 900,
		900, 900, 900, 900, 900, 900, 900, 900,
		900, 900, 900, 900, 900, 900, 900, 900,
		900, 900, 900, 900, 900, 900, 900, 900,
		900, 900, 900, 900, 900, 900, 900, 900,
		900, 900, 900, 900, 900, 900, 900, 900})
	plan, err := PlanJob(job, cis)
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := StaticPlan(job, 1)
	if plan.CPUHours() <= serial.CPUHours() {
		t.Errorf("wide plan should burn more CPU·h: %v vs %v", plan.CPUHours(), serial.CPUHours())
	}
}

func TestEmptyPlanCompletion(t *testing.T) {
	var p Plan
	if p.Completion(500) != 500 {
		t.Error("empty plan completes at arrival")
	}
}
