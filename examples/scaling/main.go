// Scaling walkthrough: carbon-aware demand regulation, the paper
// conclusion's named future work. An elastic (malleable) job widens in
// clean hours and narrows in dirty ones; the planner buys marginal
// throughput where CI / marginal-speedup is cheapest.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/scaling"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/viz"
	"github.com/carbonsched/gaia/internal/workload"
)

func main() {
	ci := carbon.RegionSAAU.Generate(72, 1)
	cis := carbon.NewPerfectService(ci)
	fmt.Println("carbon intensity (72h):", viz.Sparkline(ci.Values()))

	job := scaling.ElasticJob{
		Arrival:     0,
		Work:        16, // serial CPU-hours
		MaxParallel: 8,
		Curve:       workload.AmdahlCurve(0.9, 8),
		Deadline:    60 * simtime.Hour,
	}

	const kw = 0.01
	serial, err := scaling.StaticPlan(job, 1)
	if err != nil {
		log.Fatal(err)
	}
	scaled, err := scaling.PlanJob(job, cis)
	if err != nil {
		log.Fatal(err)
	}

	// Render the width schedule alongside the CI curve.
	width := make([]float64, 72)
	for _, a := range scaled.Allocs {
		if a.Slot < len(width) {
			width[a.Slot] = float64(a.CPUs)
		}
	}
	fmt.Println("scaled width  (72h):", viz.Sparkline(width))

	fmt.Printf("\n%-14s %10s %8s %12s\n", "plan", "carbon(g)", "cpu·h", "completion")
	for _, p := range []struct {
		name string
		plan scaling.Plan
	}{{"serial (k=1)", serial}, {"carbon-scaler", scaled}} {
		fmt.Printf("%-14s %10.1f %8.1f %12v\n",
			p.name, p.plan.Carbon(ci, kw), p.plan.CPUHours(),
			p.plan.Completion(job.Arrival).Sub(job.Arrival))
	}
	fmt.Println("\nthe width curve is the CI curve upside down: the job runs wide in")
	fmt.Println("the solar trough, pays Amdahl overhead, and cuts carbon well below")
	fmt.Println("anything temporal shifting alone can reach (experiment x08).")
}
