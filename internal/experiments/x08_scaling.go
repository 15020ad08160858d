package experiments

import (
	"fmt"
	"math/rand"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/scaling"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/stats"
	"github.com/carbonsched/gaia/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "x08-scaling",
		Title: "Extension: demand scaling as a carbon-saving modality (conclusion's future work)",
		run:   runX08Scaling,
	})
}

// runX08Scaling compares the carbon-saving modalities on elastic batch
// jobs in South Australia: running serially at arrival (NoWait), shifting
// the serial run in time, suspend-resume at unit width, and
// CarbonScaler-style width scaling (run wide in clean hours). Scaling
// trades extra CPU-hours (Amdahl inefficiency) for the freedom to
// concentrate work into the cleanest hours.
func runX08Scaling(env runEnv) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	cis := carbon.NewPerfectService(tr)
	rng := rand.New(rand.NewSource(seedWorkload + 80))

	nJobs := 300
	if env.scale == Full {
		nJobs = 3000
	}
	span := horizon(env.scale) - 4*simtime.Day
	lengths := stats.NewTruncLogNormal(rng, 1.6, 1.0, 0.5, 36) // serial hours
	curve := workload.AmdahlCurve(0.9, 8)
	jobs := make([]scaling.ElasticJob, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		jobs = append(jobs, scaling.ElasticJob{
			Arrival:     simtime.Time(rng.Float64() * float64(span)),
			Work:        lengths.Sample(),
			MaxParallel: 8,
			Curve:       curve,
			Deadline:    simtime.HoursDur(lengths.Mean()) + 48*simtime.Hour,
		})
	}

	const kw = 0.01
	type agg struct {
		carbonG, cpuH, complH float64
	}
	modalities := []string{
		"static-1 (NoWait)", "temporal shift (k=1)", "suspend-resume (k=1)", "carbon-scaler (k≤8)",
	}

	// Each job's four plans (serial, shifted, suspend-resume, scaled) are
	// computed in parallel; per-modality sums are then accumulated in job
	// order so totals match the sequential loop bit for bit.
	measure := func(plan scaling.Plan, job scaling.ElasticJob) agg {
		return agg{
			carbonG: plan.Carbon(tr, kw),
			cpuH:    plan.CPUHours(),
			complH:  plan.Completion(job.Arrival).Sub(job.Arrival).Hours(),
		}
	}
	perJob, err := par.Map(Parallelism(), jobs, func(_ int, job scaling.ElasticJob) ([4]agg, error) {
		var out [4]agg
		job.Deadline = simtime.HoursDur(job.Work) + 48*simtime.Hour
		serial, err := scaling.StaticPlan(job, 1)
		if err != nil {
			return out, err
		}
		out[0] = measure(serial, job)

		// Temporal shifting of the serial run: best contiguous start.
		shifted, err := bestShiftedSerial(job, cis, tr)
		if err != nil {
			return out, err
		}
		out[1] = measure(shifted, job)

		// Suspend-resume at unit width = scaling capped at 1.
		narrow := job
		narrow.MaxParallel = 1
		sr, err := scaling.PlanJob(narrow, cis)
		if err != nil {
			return out, err
		}
		out[2] = measure(sr, job)

		scaler, err := scaling.PlanJob(job, cis)
		if err != nil {
			return out, err
		}
		out[3] = measure(scaler, job)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	results := map[string]*agg{}
	for _, name := range modalities {
		results[name] = &agg{}
	}
	for _, out := range perJob {
		for m, name := range modalities {
			a := results[name]
			a.carbonG += out[m].carbonG
			a.cpuH += out[m].cpuH
			a.complH += out[m].complH
		}
	}

	base := results["static-1 (NoWait)"]
	t := NewTable("Extension x08 — carbon-saving modalities on elastic jobs (SA-AU, Amdahl p=0.9)",
		"modality", "carbon(norm)", "cpu·h(norm)", "mean completion(h)")
	for _, name := range modalities {
		a := results[name]
		t.AddRowf(name,
			a.carbonG/base.carbonG,
			a.cpuH/base.cpuH,
			a.complH/float64(nJobs))
	}
	t.Caption = "expectation: scaling saves the most carbon and completes faster than unit-width suspend-resume, paying extra CPU-hours (Amdahl inefficiency) — the energy-vs-carbon tension CarbonScaler navigates"
	return t, nil
}

// bestShiftedSerial finds the lowest-carbon contiguous serial (k=1) run
// within the job's deadline.
func bestShiftedSerial(job scaling.ElasticJob, cis carbon.Service, tr *carbon.Trace) (scaling.Plan, error) {
	runLen := simtime.HoursDur(job.Work)
	latest := job.Arrival.Add(job.Deadline - runLen)
	bestStart := job.Arrival
	bestC := cis.ForecastIntegral(job.Arrival, simtime.Interval{Start: job.Arrival, End: job.Arrival.Add(runLen)})
	for s := job.Arrival; s <= latest; s = s.Add(simtime.Hour) {
		c := cis.ForecastIntegral(job.Arrival, simtime.Interval{Start: s, End: s.Add(runLen)})
		if c < bestC {
			bestStart, bestC = s, c
		}
	}
	shift := job
	shift.Arrival = bestStart
	return scaling.StaticPlan(shift, 1)
}
