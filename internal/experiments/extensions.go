package experiments

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/forecast"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Extensions beyond the paper's figures: ablations of GAIA's assumptions
// (perfect forecasts, queue-average length estimates) and the paper's
// stated future work (suspend-resume without exact lengths). IDs sort
// after the figures as "x01"..."x03".

func init() {
	register(Experiment{
		ID:    "x01-forecast",
		Title: "Ablation: Carbon-Time savings under imperfect CI forecasts",
		run:   runX01Forecast,
	})
	register(Experiment{
		ID:    "x02-estimates",
		Title: "Ablation: sensitivity of Lowest-Window/Carbon-Time to the Javg estimate",
		run:   runX02Estimates,
	})
	register(Experiment{
		ID:    "x03-suspend",
		Title: "Extension: suspend-resume GAIA without exact job lengths (future work §4.1)",
		run:   runX03Suspend,
	})
}

// runX01Forecast checks the paper's perfect-forecast assumption two ways:
// synthetic multiplicative noise growing with lead time, and a real
// trained forecaster (forecast.SeasonalNaive) that only sees past data.
func runX01Forecast(env runEnv) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", env.scale)
	seasonal, err := forecast.NewSeasonalNaive(tr, 28, 0.9)
	if err != nil {
		return nil, err
	}

	t := NewTable("Extension x01 — Carbon-Time savings vs CIS quality (Alibaba, SA-AU)",
		"CIS", "carbon(norm)", "savings%", "wait(h)")
	rows := []struct {
		name string
		cis  carbon.Service
	}{
		{"perfect", carbon.NewPerfectService(tr)},
		{"noise 5%/day", carbon.NewNoisyService(tr, 0.05, seedCarbon+50)},
		{"noise 20%/day", carbon.NewNoisyService(tr, 0.20, seedCarbon+50)},
		{"noise 40%/day", carbon.NewNoisyService(tr, 0.40, seedCarbon+50)},
		{"seasonal-naive (trained)", seasonal},
	}
	// Cell 0 is the shared NoWait baseline (cacheable across figures);
	// the noisy/seasonal CIS rows bypass the cache by design.
	cells := []cell{{cfg: core.Config{Policy: policy.NoWait{}, Carbon: tr, Horizon: horizon(env.scale)}, jobs: jobs}}
	for _, r := range rows {
		cells = append(cells, cell{cfg: core.Config{
			Policy:  policy.CarbonTime{},
			Carbon:  tr,
			CIS:     r.cis,
			Horizon: horizon(env.scale),
		}, jobs: jobs})
	}
	results, err := env.runCells("x01-forecast", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, r := range rows {
		res := results[i+1]
		t.AddRowf(r.name,
			res.TotalCarbon()/base.TotalCarbon(),
			100*(1-res.TotalCarbon()/base.TotalCarbon()),
			res.MeanWaiting().Hours())
	}
	t.Caption = "expectation: savings degrade gracefully — most shifting targets the next diurnal trough, where forecast error is small"

	acc := NewTable("Forecaster accuracy (seasonal-naive, SA-AU)",
		"lead (h)", "MAPE", "RMSE (g/kWh)")
	for _, a := range seasonal.Evaluate([]int{1, 6, 12, 24, 48}) {
		acc.AddRowf(a.LeadHours, a.MAPE, a.RMSE)
	}
	return Tables{t, acc}, nil
}

// runX02Estimates perturbs the queue-average length estimate Javg that
// length-oblivious policies plan with, quantifying how coarse the
// "historical queue average" may be before savings collapse.
func runX02Estimates(env runEnv) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", env.scale)
	trueShort := jobs.MeanLengthByQueue(workload.QueueShort)
	trueLong := jobs.MeanLengthByQueue(workload.QueueLong)
	scales := []float64{0.25, 0.5, 1, 2, 4}
	// Cell 0 is the shared NoWait baseline; then (LW, CT) per scale.
	cells := []cell{{cfg: core.Config{Policy: policy.NoWait{}, Carbon: tr, Horizon: horizon(env.scale)}, jobs: jobs}}
	for _, scaleF := range scales {
		override := map[workload.Queue]simtime.Duration{
			workload.QueueShort: simtime.Duration(float64(trueShort) * scaleF),
			workload.QueueLong:  simtime.Duration(float64(trueLong) * scaleF),
		}
		for _, p := range []policy.Policy{policy.LowestWindow{}, policy.CarbonTime{}} {
			cells = append(cells, cell{cfg: core.Config{
				Policy:            p,
				Carbon:            tr,
				Horizon:           horizon(env.scale),
				AvgLengthOverride: override,
			}, jobs: jobs})
		}
	}
	results, err := env.runCells("x02-estimates", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	t := NewTable("Extension x02 — savings vs Javg estimate scale (Alibaba, SA-AU)",
		"Javg scale", "LW carbon(norm)", "CT carbon(norm)", "LW wait(h)", "CT wait(h)")
	for i, scaleF := range scales {
		lw, ct := results[1+2*i], results[2+2*i]
		t.AddRowf(scaleF,
			lw.TotalCarbon()/base.TotalCarbon(), ct.TotalCarbon()/base.TotalCarbon(),
			lw.MeanWaiting().Hours(), ct.MeanWaiting().Hours())
	}
	t.Caption = "expectation: robust to severalfold estimate error (mildly favouring under-estimates, whose shorter windows lock onto troughs) — why coarse queue averages suffice"
	return t, nil
}

// runX03Suspend evaluates the paper's future work: adding suspend-resume
// to GAIA's own (length-oblivious) scheduling. WaitAwhile-Est plans
// lowest-carbon slots for the queue-average length; the simulator adapts
// the plan to each job's true length.
func runX03Suspend(env runEnv) (fmt.Stringer, error) {
	tr := regionTrace("SA-AU")
	jobs := yearTrace("alibaba", env.scale)
	t := NewTable("Extension x03 — suspend-resume without exact lengths (Alibaba, SA-AU)",
		"policy", "knows J", "suspends", "carbon(norm)", "wait(h)")
	rows := []struct {
		p      policy.Policy
		knowsJ string
		susp   string
	}{
		{policy.CarbonTime{}, "avg", "no"},
		{policy.LowestWindow{}, "avg", "no"},
		{policy.WaitAwhileEst{}, "avg", "yes"},
		{policy.WaitAwhile{}, "exact", "yes"},
	}
	// Cell 0 is the shared NoWait baseline, then one cell per row.
	cells := []cell{{cfg: core.Config{Policy: policy.NoWait{}, Carbon: tr, Horizon: horizon(env.scale)}, jobs: jobs}}
	for _, r := range rows {
		cells = append(cells, cell{cfg: core.Config{Policy: r.p, Carbon: tr, Horizon: horizon(env.scale)}, jobs: jobs})
	}
	results, err := env.runCells("x03-suspend", cells)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, r := range rows {
		res := results[i+1]
		t.AddRowf(res.Label, r.knowsJ, r.susp,
			res.TotalCarbon()/base.TotalCarbon(),
			res.MeanWaiting().Hours())
	}
	t.Caption = "expectation: estimate-based suspend-resume recovers a large share of exact WaitAwhile's extra savings over uninterruptible GAIA policies"
	return t, nil
}
