package experiments

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "x07-carbontax",
		Title: "Extension: carbon tax folds the trade-off into cost (Discussion §7)",
		run:   runX07CarbonTax,
	})
}

// runX07CarbonTax realizes the paper's Discussion: assign an explicit
// price to carbon so that a purely cost-minimizing scheduler becomes
// carbon-aware. On an ERCOT-like grid (Figure 20: energy price and CI
// only weakly correlated, ≈0.16-0.26), a scheduler that chases the
// cheapest energy windows under a combined tariff
//
//	w(t) = energyPrice(t) + tax × CI(t)
//
// is swept over tax ∈ {0, 50, 100, 200, 500, 2000} $/tonne. At tax 0 it
// optimizes the bill and saves carbon only incidentally; as the tax grows
// its schedule converges to the carbon-optimal one.
func runX07CarbonTax(env runEnv) (fmt.Stringer, error) {
	hours := int(horizon(env.scale)/60) / 60 * 60 // whole hours of the horizon
	ci, price := carbon.DefaultERCOTModel().Generate(hours+7*24, seedCarbon+100)
	jobs := yearTrace("alibaba", env.scale)

	// billFor measures the energy bill of a schedule by re-running the
	// identical decisions with the price series as the "carbon" trace:
	// the resulting "emissions" are ∫ price × power dt, i.e. dollars
	// (per kW of draw, scaled by the power model).
	priceVals := make([]float64, hours)
	for i := range priceVals {
		v := price.At(simtime.Time(simtime.Duration(i) * simtime.Hour))
		if v < 0 {
			v = 0 // negative-price hours bill as zero, keeping traces valid
		}
		priceVals[i] = v
	}
	priceTrace := carbon.MustTrace("TX-price", priceVals)

	// Baselines on the Texas grid (carbon-agnostic, carbon-optimal, and
	// the carbon-agnostic energy bill) run as one parallel batch.
	baselines, err := env.runCells("x07-carbontax", []cell{
		{core.Config{Policy: policy.NoWait{}, Carbon: ci, Horizon: horizon(env.scale)}, jobs},
		{core.Config{Policy: policy.LowestWindow{}, Carbon: ci, Horizon: horizon(env.scale)}, jobs},
		{core.Config{Policy: policy.NoWait{}, Carbon: priceTrace, Horizon: horizon(env.scale)}, jobs},
	})
	if err != nil {
		return nil, err
	}
	base, carbonOpt, baseBill := baselines[0], baselines[1], baselines[2]

	// Each tax level contributes two cells: schedule against its combined
	// tariff, then re-run the identical schedule against the price trace
	// to measure the bill. Both cells share the tariff CIS and differ only
	// in the accounting ("carbon") trace, so the decision-plan tier
	// decides each tax level once and replays the bill run from the
	// shared plan.
	taxes := []float64{0, 50, 100, 200, 500, 2000}
	taxCells := make([]cell, 0, 2*len(taxes))
	for _, tax := range taxes {
		// Combined tariff in $/kWh: price/1000 ($/MWh→$/kWh) plus
		// tax ($/tonne) × CI (g/kWh) / 1e6 (g→tonne).
		tariff := make([]float64, hours)
		for i := range tariff {
			w := priceVals[i]/1000 + tax*ci.Value(i)/1e6
			tariff[i] = w * 1000 // scale up: trace values stay well-conditioned
		}
		tariffTrace := carbon.MustTrace("TX-tariff", tariff)
		cfg := core.Config{
			Policy:  policy.LowestWindow{}, // cost-only: chases cheap tariff windows
			Carbon:  ci,
			CIS:     carbon.NewPerfectService(tariffTrace),
			Horizon: horizon(env.scale),
		}
		billCfg := cfg
		billCfg.Carbon = priceTrace
		taxCells = append(taxCells, cell{cfg, jobs}, cell{billCfg, jobs})
	}
	taxResults, err := env.runCells("x07-carbontax", taxCells)
	if err != nil {
		return nil, err
	}
	type taxRun struct {
		res, bill *metrics.Result
	}
	runs := make([]taxRun, len(taxes))
	for i := range taxes {
		runs[i] = taxRun{taxResults[2*i], taxResults[2*i+1]}
	}

	t := NewTable("Extension x07 — cost-only scheduling under a carbon tax (Alibaba, ERCOT-like grid)",
		"tax $/tonne", "carbon(norm)", "share of carbon-opt savings", "bill(norm)")
	optSaving := 1 - carbonOpt.TotalCarbon()/base.TotalCarbon()
	for i, tax := range taxes {
		res, bill := runs[i].res, runs[i].bill
		saving := 1 - res.TotalCarbon()/base.TotalCarbon()
		t.AddRowf(tax,
			res.TotalCarbon()/base.TotalCarbon(),
			safeDiv(saving, optSaving),
			bill.TotalCarbon()/baseBill.TotalCarbon())
	}
	t.Caption = fmt.Sprintf(
		"carbon-optimal (Lowest-Window on CI) reaches %.3f normalized carbon; a rising tax drives the cost-only scheduler toward it while the bill advantage shrinks — the Discussion's point that a tax collapses the three-way trade-off",
		carbonOpt.TotalCarbon()/base.TotalCarbon())
	return t, nil
}
