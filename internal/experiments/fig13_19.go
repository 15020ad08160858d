package experiments

import (
	"fmt"
	"math"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Carbon and waiting across workload traces and policies (CA-US)",
		run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Carbon saved per waiting hour vs waiting-time thresholds",
		run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Normalized carbon across regions and workloads (Carbon-Time)",
		run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Normalized and total saved carbon across regions (Alibaba)",
		run:   runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Cost and carbon with reserved capacity across workload traces (SA-AU)",
		run:   runFig17,
	})
	register(Experiment{
		ID:    "fig18",
		Title: "Spot-First cost/carbon vs J^max and eviction rate (Azure, SA-AU)",
		run:   runFig18,
	})
	register(Experiment{
		ID:    "fig19",
		Title: "Hybrid spot+reserved sweep at 10% eviction (Azure, SA-AU)",
		run:   runFig19,
	})
}

// families in the paper's presentation order.
var figFamilies = []string{"mustang", "alibaba", "azure"}

// runFig13 reproduces Figure 13: four policies on the three year-long
// traces in California. Carbon is normalized to NoWait; waiting to the
// worst policy per trace. Paper shape: WaitAwhile saves most carbon at the
// worst waiting (Mustang −26 %, Azure −19 %); Lowest-Window retains ≈68 %
// of that saving on Mustang but only ≈44 % on Azure; Carbon-Time cuts
// waiting ≈20 % versus Lowest-Window at similar carbon.
func runFig13(env runEnv) (fmt.Stringer, error) {
	carbonTr := regionTrace("CA-US")
	policies := []policy.Policy{
		policy.LowestWindow{}, policy.CarbonTime{}, policy.Ecovisor{}, policy.WaitAwhile{},
	}
	// Per family: one NoWait baseline cell followed by the four policies.
	stride := 1 + len(policies)
	var cells []cell
	for _, fam := range figFamilies {
		jobs := yearTrace(fam, env.scale)
		cells = append(cells, cell{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs})
		for _, p := range policies {
			cells = append(cells, cell{core.Config{Policy: p, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs})
		}
	}
	all, err := env.runCells("fig13", cells)
	if err != nil {
		return nil, err
	}
	t := NewTable("Figure 13 — normalized carbon (vs NoWait) and waiting (vs worst) in CA-US",
		"trace", "policy", "carbon(norm)", "waiting(norm)", "wait(h)", "savingRetained")
	for fi, fam := range figFamilies {
		group := all[fi*stride : (fi+1)*stride]
		base, results := group[0], group[1:]
		var maxWait float64
		for _, res := range results {
			maxWait = math.Max(maxWait, res.MeanWaiting().Hours())
		}
		// WaitAwhile's saving is the reference for "savings retained".
		waSaving := 1 - results[len(results)-1].TotalCarbon()/base.TotalCarbon()
		for _, res := range results {
			saving := 1 - res.TotalCarbon()/base.TotalCarbon()
			t.AddRowf(fam, res.Label,
				res.TotalCarbon()/base.TotalCarbon(),
				safeDiv(res.MeanWaiting().Hours(), maxWait),
				res.MeanWaiting().Hours(),
				safeDiv(saving, waSaving))
		}
	}
	t.Caption = "paper: WaitAwhile saves 26% (Mustang) / 19% (Azure); Lowest-Window retains 68% vs 44% of it; Carbon-Time ≈20% less waiting than Lowest-Window"
	return t, nil
}

// runFig14 reproduces Figure 14: carbon saved per waiting hour while
// sweeping one queue's waiting threshold and pinning the other
// (paper: W_short ∈ 0..24 h with W_long=24 h; W_long ∈ 0..84 h with
// W_short=6 h). Carbon-Time should dominate Lowest-Window on savings per
// waiting hour everywhere, with diminishing returns beyond ≈12 h.
func runFig14(env runEnv) (fmt.Stringer, error) {
	carbonTr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", env.scale)
	asCfg := func(w simtime.Duration) simtime.Duration {
		if w == 0 {
			return -1 // explicit zero (0 would select the default)
		}
		return w
	}
	mk := func(p policy.Policy, wShort, wLong simtime.Duration) cell {
		return cell{core.Config{
			Policy:    p,
			Carbon:    carbonTr,
			Horizon:   horizon(env.scale),
			WaitShort: asCfg(wShort),
			WaitLong:  asCfg(wLong),
		}, jobs}
	}

	// Cell 0 is the NoWait baseline; each sweep point contributes a
	// Lowest-Window and a Carbon-Time cell.
	shortWs := []int{0, 3, 6, 9, 12, 18, 24}
	longWs := []int{0, 12, 24, 36, 48, 60, 72, 84}
	cells := []cell{{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs}}
	for _, w := range shortWs {
		cells = append(cells,
			mk(policy.LowestWindow{}, simtime.Duration(w)*simtime.Hour, 24*simtime.Hour),
			mk(policy.CarbonTime{}, simtime.Duration(w)*simtime.Hour, 24*simtime.Hour))
	}
	for _, w := range longWs {
		cells = append(cells,
			mk(policy.LowestWindow{}, 6*simtime.Hour, simtime.Duration(w)*simtime.Hour),
			mk(policy.CarbonTime{}, 6*simtime.Hour, simtime.Duration(w)*simtime.Hour))
	}
	results, err := env.runCells("fig14", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	perHour := func(res *metrics.Result) (gPerHour, savingPct float64) {
		savedG := base.TotalCarbon() - res.TotalCarbon()
		return safeDiv(savedG, res.TotalWaitingHours()), 100 * (1 - res.TotalCarbon()/base.TotalCarbon())
	}

	idx := 1
	shortSweep := NewTable("Figure 14a — saved carbon per waiting hour vs W_short (W_long = 24h)",
		"W_short(h)", "Lowest-Window g/h", "Carbon-Time g/h", "LW saving%", "CT saving%")
	for _, w := range shortWs {
		lw, lwPct := perHour(results[idx])
		ct, ctPct := perHour(results[idx+1])
		idx += 2
		shortSweep.AddRowf(w, lw, ct, lwPct, ctPct)
	}

	longSweep := NewTable("Figure 14b — saved carbon per waiting hour vs W_long (W_short = 6h)",
		"W_long(h)", "Lowest-Window g/h", "Carbon-Time g/h", "LW saving%", "CT saving%")
	for _, w := range longWs {
		lw, lwPct := perHour(results[idx])
		ct, ctPct := perHour(results[idx+1])
		idx += 2
		longSweep.AddRowf(w, lw, ct, lwPct, ctPct)
	}
	longSweep.Caption = "paper shape: Carbon-Time ≥ Lowest-Window per waiting hour; diminishing returns beyond ≈12h for long jobs"
	return Tables{shortSweep, longSweep}, nil
}

// runFig15 reproduces Figure 15: Carbon-Time's normalized carbon across
// the five evaluation regions and three workloads. Paper: SA-AU saves the
// most (≈27.5 %), KY-US almost nothing (≈1 %).
func runFig15(env runEnv) (fmt.Stringer, error) {
	// One (NoWait, Carbon-Time) cell pair per region × family.
	var cells []cell
	for _, region := range evaluationRegions() {
		carbonTr := regionTrace(region)
		for _, fam := range figFamilies {
			jobs := yearTrace(fam, env.scale)
			cells = append(cells,
				cell{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs},
				cell{core.Config{Policy: policy.CarbonTime{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs})
		}
	}
	results, err := env.runCells("fig15", cells)
	if err != nil {
		return nil, err
	}
	t := NewTable("Figure 15 — normalized carbon vs NoWait (Carbon-Time policy)",
		"region", "mustang", "alibaba", "azure")
	idx := 0
	for _, region := range evaluationRegions() {
		row := []any{region}
		for range figFamilies {
			base, res := results[idx], results[idx+1]
			idx += 2
			row = append(row, res.TotalCarbon()/base.TotalCarbon())
		}
		t.AddRowf(row...)
	}
	t.Caption = "paper: high-variability regions (SA-AU ≈0.725) save most; stable high-CI regions (KY-US ≈0.99) save least; waiting time is region-independent"
	return t, nil
}

// runFig16 reproduces Figure 16: normalized carbon and total saved
// kilograms for the Alibaba trace across regions — total savings depend on
// the region's absolute CI, not just its variability.
func runFig16(env runEnv) (fmt.Stringer, error) {
	jobs := yearTrace("alibaba", env.scale)
	var cells []cell
	for _, region := range evaluationRegions() {
		carbonTr := regionTrace(region)
		cells = append(cells,
			cell{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs},
			cell{core.Config{Policy: policy.CarbonTime{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs})
	}
	results, err := env.runCells("fig16", cells)
	if err != nil {
		return nil, err
	}
	t := NewTable("Figure 16 — Alibaba trace: normalized carbon and total savings (Carbon-Time)",
		"region", "carbon(norm)", "saved(kg)", "total(kg)")
	for i, region := range evaluationRegions() {
		base, res := results[2*i], results[2*i+1]
		t.AddRowf(region,
			res.TotalCarbon()/base.TotalCarbon(),
			base.TotalCarbonKg()-res.TotalCarbonKg(),
			res.TotalCarbonKg())
	}
	t.Caption = "paper: regions with similar total savings can differ ≈20% in normalized savings — judge by total reduction"
	return t, nil
}

// runFig17 reproduces Figure 17: cost and carbon across the three traces
// with R = each trace's mean demand, in South Australia. Paper shape:
// AllWait-Threshold cheapest/highest-carbon; Ecovisor costliest;
// RES-First-Carbon-Time lands within ≈9 % of the cheapest cost at close to
// Ecovisor's carbon; high-demand-variability traces (Mustang) save more
// carbon but less cost.
func runFig17(env runEnv) (fmt.Stringer, error) {
	carbonTr := regionTrace("SA-AU")
	type entry struct {
		p  policy.Policy
		wc bool
	}
	entries := []entry{
		{policy.AllWait{}, true},
		{policy.Ecovisor{}, false},
		{policy.CarbonTime{}, false},
		{policy.CarbonTime{}, true}, // RES-First
	}
	var cells []cell
	rs := make([]int, len(figFamilies))
	for fi, fam := range figFamilies {
		jobs := yearTrace(fam, env.scale)
		rs[fi] = int(math.Round(meanDemand(fam, env.scale)))
		for _, e := range entries {
			cells = append(cells, cell{core.Config{
				Policy:         e.p,
				Carbon:         carbonTr,
				Horizon:        horizon(env.scale),
				Reserved:       rs[fi],
				WorkConserving: e.wc,
			}, jobs})
		}
	}
	all, err := env.runCells("fig17", cells)
	if err != nil {
		return nil, err
	}
	t := NewTable("Figure 17 — policies with R = mean demand (SA-AU)",
		"trace", "R", "policy", "carbon(norm)", "cost(norm)", "resUtil")
	for fi, fam := range figFamilies {
		results := all[fi*len(entries) : (fi+1)*len(entries)]
		var maxCarbon, maxCost float64
		for _, res := range results {
			maxCarbon = math.Max(maxCarbon, res.TotalCarbon())
			maxCost = math.Max(maxCost, res.TotalCost())
		}
		for _, res := range results {
			t.AddRowf(fam, rs[fi], res.Label,
				res.TotalCarbon()/maxCarbon,
				res.TotalCost()/maxCost,
				res.ReservedUtilization())
		}
	}
	t.Caption = "paper shape: AllWait cheapest + dirtiest; Ecovisor costliest; RES-First-Carbon-Time bridges; Mustang (demand CV 0.8) saves more carbon, Azure (CV 0.3) more cost"
	return t, nil
}

// runFig18 reproduces Figure 18: Spot-First-Carbon-Time on the Azure
// trace, sweeping the maximum job length placed on spot (J^max) against
// eviction rates. Paper shape: with zero evictions longer J^max always
// helps cost at unchanged carbon; at 15 % eviction extending beyond ≈6 h
// buys no cost and adds up to ≈12 % carbon.
func runFig18(env runEnv) (fmt.Stringer, error) {
	carbonTr := regionTrace("SA-AU")
	jobs := yearTrace("azure", env.scale)
	evicts := []float64{0, 0.05, 0.10, 0.15}
	jmaxes := []int{2, 6, 12, 18, 24}
	// Cell 0 is the NoWait baseline; the rest sweep (eviction, Jmax).
	cells := []cell{{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs}}
	for _, evict := range evicts {
		for _, jmax := range jmaxes {
			cells = append(cells, cell{core.Config{
				Policy:       policy.CarbonTime{},
				Carbon:       carbonTr,
				Horizon:      horizon(env.scale),
				SpotMaxLen:   simtime.Duration(jmax) * simtime.Hour,
				EvictionRate: evict,
				Seed:         seedEviction,
			}, jobs})
		}
	}
	results, err := env.runCells("fig18", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t := NewTable("Figure 18 — Spot-First-Carbon-Time vs NoWait(on-demand), Azure trace (SA-AU)",
		"evict%", "Jmax(h)", "carbon(norm)", "cost(norm)", "evictions")
	idx := 1
	for _, evict := range evicts {
		for _, jmax := range jmaxes {
			res := results[idx]
			idx++
			rel := res.CompareTo(base)
			t.AddRowf(100*evict, jmax, rel.Carbon, rel.Cost, res.TotalEvictions())
		}
	}
	t.Caption = "paper shape: at 0% eviction longer Jmax strictly cuts cost; at 15% beyond 6h no cost benefit and up to +12% carbon"
	return t, nil
}

// runFig19 reproduces Figure 19: the combined Spot-RES-Carbon-Time on the
// Azure trace at 10 % eviction, sweeping reserved capacity for several
// J^max values. Paper shape: every curve has a cost valley; splitting
// demand between spot and reserved keeps several % carbon savings at the
// valley.
func runFig19(env runEnv) (fmt.Stringer, error) {
	carbonTr := regionTrace("SA-AU")
	jobs := yearTrace("azure", env.scale)
	demand := meanDemand("azure", env.scale)
	// Cell 0 is the NoWait baseline; the rest sweep (Jmax, reserved).
	cells := []cell{{core.Config{Policy: policy.NoWait{}, Carbon: carbonTr, Horizon: horizon(env.scale)}, jobs}}
	type point struct{ jmax, r int }
	var points []point
	for _, jmax := range []int{0, 2, 6, 12} {
		for frac := 0.0; frac <= 1.21; frac += 0.2 {
			r := int(math.Round(frac * demand))
			cfg := core.Config{
				Policy:         policy.CarbonTime{},
				Carbon:         carbonTr,
				Horizon:        horizon(env.scale),
				Reserved:       r,
				WorkConserving: true,
				EvictionRate:   0.10,
				Seed:           seedEviction,
			}
			if jmax > 0 {
				cfg.SpotMaxLen = simtime.Duration(jmax) * simtime.Hour
			}
			cells = append(cells, cell{cfg, jobs})
			points = append(points, point{jmax, r})
		}
	}
	results, err := env.runCells("fig19", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t := NewTable("Figure 19 — Spot-RES-Carbon-Time, 10% eviction, Azure trace (SA-AU)",
		"Jmax(h)", "reserved", "carbon(norm)", "cost(norm)")
	for i, res := range results[1:] {
		rel := res.CompareTo(base)
		t.AddRowf(points[i].jmax, points[i].r, rel.Carbon, rel.Cost)
	}
	t.Caption = fmt.Sprintf("mean demand = %.0f CPUs; paper shape: cost valleys below mean demand; larger Jmax shifts the valley down and keeps more carbon savings", demand)
	return t, nil
}
