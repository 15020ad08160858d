package experiments

import (
	"fmt"
	"math"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "fig08",
		Title: "Normalized carbon and waiting time across policies (week trace, SA-AU)",
		run:   runFig08,
	})
	register(Experiment{
		ID:    "fig09",
		Title: "CDF of carbon savings by job length (Carbon-Time, Alibaba, SA-AU)",
		run:   runFig09,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Carbon, cost and waiting across policies with reserved capacity",
		run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Reserved-capacity sweep under RES-First-Carbon-Time",
		run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Spot and reserved instance combinations",
		run:   runFig12,
	})
}

// prototypeCarbon returns the 10-day SA-AU slice used by the prototype
// experiments (week of jobs plus scheduling slack).
func prototypeCarbon() (*carbon.Trace, error) {
	return regionTrace("SA-AU").Slice(0, 10*24)
}

// weekConfig is the base configuration of the prototype experiments.
func weekConfig(p policy.Policy, tr *carbon.Trace) core.Config {
	return core.Config{
		Policy:  p,
		Carbon:  tr,
		Horizon: 10 * simtime.Day,
		Seed:    seedEviction,
	}
}

// weekReserved returns the paper-equivalent reserved sizes for the
// prototype trace: the paper's R=9 and R=6 are roughly half and a third
// of its week trace's mean demand, so we scale to ours.
func weekReserved() (rHalf, rThird int) {
	demand := prototypeWeek().MeanDemand(simtime.Week)
	return int(math.Round(demand / 2)), int(math.Round(demand / 3))
}

// runFig08 reproduces Figure 8: six policies on on-demand capacity only;
// carbon and waiting normalized to the worst policy per metric.
// Paper shape: suspend-resume (WaitAwhile, Ecovisor) lowest carbon but
// highest waiting; Lowest-Window within ~16 % of WaitAwhile's carbon;
// Carbon-Time halves WaitAwhile's waiting at ~23 % more carbon.
func runFig08(env runEnv) (fmt.Stringer, error) {
	tr, err := prototypeCarbon()
	if err != nil {
		return nil, err
	}
	jobs := prototypeWeek()
	policies := []policy.Policy{
		policy.NoWait{}, policy.LowestSlot{}, policy.LowestWindow{},
		policy.CarbonTime{}, policy.Ecovisor{}, policy.WaitAwhile{},
	}
	cells := make([]cell, 0, len(policies))
	for _, p := range policies {
		cells = append(cells, cell{weekConfig(p, tr), jobs})
	}
	results, err := env.runCells("fig08", cells)
	if err != nil {
		return nil, err
	}
	var maxCarbon, maxWait float64
	for _, res := range results {
		maxCarbon = math.Max(maxCarbon, res.TotalCarbon())
		maxWait = math.Max(maxWait, res.MeanWaiting().Hours())
	}
	t := NewTable("Figure 8 — normalized carbon and waiting (on-demand only, SA-AU)",
		"policy", "carbon(norm)", "waiting(norm)", "carbon(kg)", "wait(h)")
	for _, res := range results {
		t.AddRowf(res.Label,
			res.TotalCarbon()/maxCarbon,
			res.MeanWaiting().Hours()/maxWait,
			res.TotalCarbonKg(),
			res.MeanWaiting().Hours())
	}
	t.Caption = "paper shape: WaitAwhile/Ecovisor lowest carbon + highest waiting; Carbon-Time ≈50% of WaitAwhile's waiting"
	return t, nil
}

// runFig09 reproduces Figure 9: the cumulative share of total carbon
// savings contributed by jobs up to each length, under Carbon-Time on the
// year-long Alibaba trace in South Australia. Paper: <1 h jobs ≈10 % of
// savings, 3-12 h ≈50 %, >24 h ≈7.5 %.
func runFig09(env runEnv) (fmt.Stringer, error) {
	results, err := env.runCells("fig09", []cell{{
		cfg: core.Config{
			Policy: policy.CarbonTime{},
			Carbon: regionTrace("SA-AU"),
		},
		jobs: yearTrace("alibaba", env.scale),
	}})
	if err != nil {
		return nil, err
	}
	cdf := results[0].SavingsByLengthCDF()
	t := NewTable("Figure 9 — cumulative fraction of carbon savings by job length",
		"job length ≤", "savings fraction")
	points := []struct {
		label string
		min   float64
	}{
		{"5min", 5}, {"30min", 30}, {"1h", 60}, {"3h", 3 * 60},
		{"6h", 6 * 60}, {"12h", 12 * 60}, {"24h", 24 * 60}, {"60h", 60 * 60},
	}
	for _, p := range points {
		t.AddRowf(p.label, cdf.At(p.min))
	}
	t.Caption = fmt.Sprintf(
		"shares: <1h %.1f%%, 3-12h %.1f%%, >24h %.1f%% (paper: ≈10%%, ≈50%%, ≈7.5%%)",
		100*cdf.At(60),
		100*(cdf.At(12*60)-cdf.At(3*60)),
		100*(1-cdf.At(24*60)))
	return t, nil
}

// runFig10 reproduces Figure 10: six policies with reserved capacity
// (the paper's R=9 on its week trace; scaled to ours), reporting carbon,
// cost and waiting normalized to the worst per metric.
func runFig10(env runEnv) (fmt.Stringer, error) {
	tr, err := prototypeCarbon()
	if err != nil {
		return nil, err
	}
	jobs := prototypeWeek()
	rHalf, _ := weekReserved()

	mk := func(p policy.Policy, workConserving bool) cell {
		cfg := weekConfig(p, tr)
		cfg.Reserved = rHalf
		cfg.WorkConserving = workConserving
		return cell{cfg, jobs}
	}
	cells := []cell{
		mk(policy.NoWait{}, false),
		mk(policy.AllWait{}, true),
		mk(policy.WaitAwhile{}, false),
		mk(policy.Ecovisor{}, false),
		mk(policy.CarbonTime{}, false),
		mk(policy.CarbonTime{}, true), // RES-First-Carbon-Time
	}
	results, err := env.runCells("fig10", cells)
	if err != nil {
		return nil, err
	}
	var maxCarbon, maxCost, maxWait float64
	for _, res := range results {
		maxCarbon = math.Max(maxCarbon, res.TotalCarbon())
		maxCost = math.Max(maxCost, res.TotalCost())
		maxWait = math.Max(maxWait, res.MeanWaiting().Hours())
	}
	t := NewTable(fmt.Sprintf("Figure 10 — policies with R=%d reserved (SA-AU)", rHalf),
		"policy", "carbon(norm)", "cost(norm)", "waiting(norm)", "cost($)", "resUtil")
	for _, res := range results {
		t.AddRowf(res.Label,
			res.TotalCarbon()/maxCarbon,
			res.TotalCost()/maxCost,
			safeDiv(res.MeanWaiting().Hours(), maxWait),
			res.TotalCost(),
			res.ReservedUtilization())
	}
	t.Caption = "paper shape: NoWait worst carbon; AllWait-Threshold cheapest, worst waiting; suspend-resume costliest; RES-First-Carbon-Time balances"
	return t, nil
}

// runFig11 reproduces Figure 11: sweeping reserved capacity under
// RES-First-Carbon-Time. Cost falls to a valley near the mean demand then
// rises; carbon savings shrink as reserved capacity grows; waiting
// strictly decreases.
func runFig11(env runEnv) (fmt.Stringer, error) {
	tr, err := prototypeCarbon()
	if err != nil {
		return nil, err
	}
	jobs := prototypeWeek()
	demand := jobs.MeanDemand(simtime.Week)
	// Cell 0 is the NoWait baseline; the rest sweep reserved capacity.
	cells := []cell{{weekConfig(policy.NoWait{}, tr), jobs}}
	var sizes []int
	for frac := 0.0; frac <= 1.51; frac += 0.125 {
		r := int(math.Round(frac * demand))
		cfg := weekConfig(policy.CarbonTime{}, tr)
		cfg.Reserved = r
		cfg.WorkConserving = true
		cells = append(cells, cell{cfg, jobs})
		sizes = append(sizes, r)
	}
	results, err := env.runCells("fig11", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t := NewTable("Figure 11 — reserved sweep, RES-First-Carbon-Time vs NoWait(R=0) (SA-AU)",
		"reserved", "carbon(norm)", "cost(norm)", "wait(h)", "resUtil")
	for i, res := range results[1:] {
		rel := res.CompareTo(base)
		t.AddRowf(sizes[i], rel.Carbon, rel.Cost, res.MeanWaiting().Hours(), res.ReservedUtilization())
	}
	t.Caption = fmt.Sprintf("mean demand = %.1f CPUs; paper shape: cost valley near mean demand, carbon rises and waiting falls with R", demand)
	return t, nil
}

// runFig12 reproduces Figure 12: spot-only, and spot+reserved mixes.
// Paper shape: Spot-First keeps Carbon-Time's carbon at ≈17 % lower cost;
// Spot-RES trades carbon for further cost cuts as reserved grows.
func runFig12(env runEnv) (fmt.Stringer, error) {
	tr, err := prototypeCarbon()
	if err != nil {
		return nil, err
	}
	jobs := prototypeWeek()
	rHalf, rThird := weekReserved()

	var cells []cell
	add := func(label string, p policy.Policy, reserved int, spot bool, workConserving bool) {
		cfg := weekConfig(p, tr)
		cfg.Reserved = reserved
		cfg.WorkConserving = workConserving
		if spot {
			cfg.SpotMaxLen = 2 * simtime.Hour
		}
		cfg.Label = fmt.Sprintf("%s(R=%d)", label, reserved)
		cells = append(cells, cell{cfg, jobs})
	}
	add("Carbon-Time", policy.CarbonTime{}, 0, false, false)
	add("Spot-First-Carbon-Time", policy.CarbonTime{}, 0, true, false)
	add("Spot-First-Ecovisor", policy.Ecovisor{}, 0, true, false)
	add("Spot-RES-Carbon-Time", policy.CarbonTime{}, rHalf, true, true)
	add("Spot-RES-Carbon-Time", policy.CarbonTime{}, rThird, true, true)

	results, err := env.runCells("fig12", cells)
	if err != nil {
		return nil, err
	}
	var maxCarbon, maxCost, maxWait float64
	for _, res := range results {
		maxCarbon = math.Max(maxCarbon, res.TotalCarbon())
		maxCost = math.Max(maxCost, res.TotalCost())
		maxWait = math.Max(maxWait, res.MeanWaiting().Hours())
	}
	t := NewTable("Figure 12 — spot and reserved combinations (SA-AU, eviction rate 0)",
		"config", "carbon(norm)", "cost(norm)", "waiting(norm)", "cost($)")
	for _, res := range results {
		t.AddRowf(res.Label,
			res.TotalCarbon()/maxCarbon,
			res.TotalCost()/maxCost,
			safeDiv(res.MeanWaiting().Hours(), maxWait),
			res.TotalCost())
	}
	t.Caption = "paper shape: Spot-First preserves Carbon-Time's carbon at lower cost; adding reserved cuts cost but yields carbon"
	return t, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
