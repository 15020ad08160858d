package experiments

import (
	"fmt"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/par"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/viz"
)

func init() {
	register(Experiment{
		ID:    "fig20",
		Title: "Carbon intensity vs energy price on an ERCOT-like grid",
		run:   runFig20,
	})
}

// runFig20 reproduces Figure 20 (Discussion): two consecutive days of
// carbon intensity and wholesale energy price on a Texas-like grid,
// plus the year-long correlation coefficient (paper: 0.16). The point:
// on some days the price valley aligns with the carbon valley and a
// single schedule optimizes both; on others they conflict and private
// cloud operators face their own carbon-cost trade-off.
func runFig20(runEnv) (fmt.Stringer, error) {
	ci, price := carbon.DefaultERCOTModel().Generate(24*365, seedCarbon+100)
	corr, err := carbon.CarbonPriceCorrelation(ci, price)
	if err != nil {
		return nil, err
	}

	// Find an aligned day followed closely by a conflicting day, like the
	// paper's June 7-8 pair.
	argminHour := func(day int, f func(h int) float64) int {
		best, bh := f(0), 0
		for h := 1; h < 24; h++ {
			if v := f(h); v < best {
				best, bh = v, h
			}
		}
		return bh
	}
	dayGap := func(day int) int {
		cMin := argminHour(day, func(h int) float64 { return ci.Value(day*24 + h) })
		pMin := argminHour(day, func(h int) float64 {
			return price.At(simtime.Time(simtime.Duration(day*24+h) * simtime.Hour))
		})
		d := cMin - pMin
		if d < 0 {
			d = -d
		}
		return d
	}
	// Scan all days' carbon-vs-price minima gaps in parallel, then pick
	// the first qualifying days in order (identical to a sequential scan).
	gaps, err := par.MapN(Parallelism(), 364, func(d int) (int, error) {
		return dayGap(d), nil
	})
	if err != nil {
		return nil, err
	}
	alignedDay, conflictDay := -1, -1
	for d, gap := range gaps {
		if gap <= 2 && alignedDay < 0 {
			alignedDay = d
		}
		if gap >= 8 && conflictDay < 0 {
			conflictDay = d
		}
		if alignedDay >= 0 && conflictDay >= 0 {
			break
		}
	}

	t := NewTable("Figure 20 — hourly carbon intensity and energy price (two illustrative days)",
		"day", "hour", "CI(g/kWh)", "price($/MWh)")
	for _, d := range []struct {
		label string
		day   int
	}{{"aligned", alignedDay}, {"conflict", conflictDay}} {
		if d.day < 0 {
			continue
		}
		for h := 0; h < 24; h += 3 {
			idx := d.day*24 + h
			t.AddRowf(d.label, h, ci.Value(idx),
				price.At(simtime.Time(simtime.Duration(idx)*simtime.Hour)))
		}
	}
	caption := fmt.Sprintf("year-long carbon-price correlation: %.3f (paper: 0.16); aligned day=%d conflict day=%d",
		corr, alignedDay, conflictDay)
	for _, d := range []struct {
		label string
		day   int
	}{{"aligned ", alignedDay}, {"conflict", conflictDay}} {
		if d.day < 0 {
			continue
		}
		ciVals := make([]float64, 24)
		prVals := make([]float64, 24)
		for h := 0; h < 24; h++ {
			idx := d.day*24 + h
			ciVals[h] = ci.Value(idx)
			prVals[h] = price.At(simtime.Time(simtime.Duration(idx) * simtime.Hour))
		}
		caption += fmt.Sprintf("\n%s day: CI %s  price %s",
			d.label, viz.Sparkline(ciVals), viz.Sparkline(prVals))
	}
	t.Caption = caption
	return t, nil
}
