package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"

	"github.com/carbonsched/gaia/internal/experiments"
	"github.com/carbonsched/gaia/internal/runcache"
)

// suiteWorkload renders every registered figure at quick scale: a cold
// render against a fresh simulation cache, then a warm re-render against
// the cache the cold render filled. It is the reproduction's user-facing
// job (gaia-exp -all) and the only workload where the in-memory cache
// tier's dedup and hits matter. The figures use their own fixed seeds, so
// --seed does not apply.
var suiteWorkload = bench{
	name:      "suite",
	setup:     setupSuite,
	setupOnce: true,
}

type suiteRunner struct {
	figs []experiments.Experiment
	// counts is the first cold pass's cache accounting; every later cold
	// pass must repeat it exactly.
	counts *experiments.CellStats
}

// setupSuite's one render fills the experiments' process-lifetime
// fixtures (workload and carbon traces, oracle tables), which later cold
// renders reuse; only the simulation cache is fresh per pass. Those
// fixtures exist once per process, so set-up runs once and setup_s is
// that first render.
func setupSuite(cfg config, tr *tracer) (runner, error) {
	r := &suiteRunner{figs: experiments.All()}
	experiments.SetCache(runcache.New())
	sp := tr.root("suite.setup")
	for _, e := range r.figs {
		fs := tr.child(sp, "experiments.setup."+e.ID)
		_, err := e.Run(experiments.Quick)
		fs.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	sp.end()
	return r, nil
}

func (r *suiteRunner) pass(tr *tracer, rep *report, idx int) (cold, warm cost) {
	experiments.ResetCacheStats()
	experiments.SetCache(runcache.New())
	texts := make([]string, len(r.figs))
	errs := make([]error, len(r.figs))
	sp := tr.root("suite.cold")
	cold.time(func() {
		for i, e := range r.figs {
			fs := tr.child(sp, "experiments."+e.ID)
			var out fmt.Stringer
			out, errs[i] = e.Run(experiments.Quick)
			if errs[i] == nil {
				texts[i] = out.String()
			}
			fs.end()
		}
	})
	sp.end()
	for i, e := range r.figs {
		if errs[i] == nil {
			errs[i] = checkFigure(e.ID, texts[i])
		}
		rep.op(errs[i])
	}
	_, _, total := experiments.CacheStats()
	if r.counts == nil {
		r.counts = &total
	} else {
		rep.op(checkCounts(*r.counts, total))
	}

	warmTexts := make([]string, len(r.figs))
	runtime.GC()
	sp = tr.root("suite.warm")
	warm.time(func() {
		for i, e := range r.figs {
			fs := tr.child(sp, "experiments.warm."+e.ID)
			var out fmt.Stringer
			out, errs[i] = e.Run(experiments.Quick)
			if errs[i] == nil {
				warmTexts[i] = out.String()
			}
			fs.end()
		}
	})
	sp.end()
	for i, e := range r.figs {
		if errs[i] == nil {
			errs[i] = checkWarmFigure(e.ID, texts[i], warmTexts[i])
		}
		rep.op(errs[i])
	}
	return cold, warm
}

func (r *suiteRunner) finish(spans []span, rep *report) {
	for _, e := range r.figs {
		rep.spanMetric(spans, "experiments."+e.ID, "experiments."+e.ID+"_ms", "ms")
	}
	c := *r.counts
	rep.setLayer("runcache.cells", float64(c.Total()), "count")
	rep.setLayer("runcache.computed", float64(c.Computed), "count")
	rep.setLayer("runcache.hits", float64(c.Hits), "count")
	rep.setLayer("runcache.dedups", float64(c.Dedups), "count")
	rep.setLayer("runcache.bypassed", float64(c.Bypassed), "count")
	rep.setLayer("runcache.plan_hits", float64(c.PlanHits), "count")
	rep.setLayer("runcache.avoided_ratio", float64(c.Avoided())/float64(max(c.Total(), 1)), "ratio")
}

func (r *suiteRunner) close() {}

// checkFigure compares a figure's quick-scale text with its digest
// pinned in figures.go.
func checkFigure(id, text string) error {
	want, ok := figureDigests[id]
	if !ok {
		return fmt.Errorf("figure %s has no pinned digest", id)
	}
	if got := digest(text); got != want {
		return fmt.Errorf("figure %s: text digest %s, pinned %s", id, got, want)
	}
	return nil
}

// checkWarmFigure requires the warm render to equal the cold one.
func checkWarmFigure(id, cold, warm string) error {
	if cold != warm {
		return fmt.Errorf("figure %s: warm render differs from cold render", id)
	}
	return nil
}

// checkCounts requires a cold pass's cache accounting to repeat exactly.
func checkCounts(first, now experiments.CellStats) error {
	if first != now {
		return fmt.Errorf("cold-pass cache counts %+v differ from the first pass's %+v", now, first)
	}
	return nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// pinFigures prints figures.go: the digest of every figure's quick-scale
// text. Re-pin only for an intended change of figure output.
func pinFigures(stdout, stderr io.Writer) int {
	experiments.SetCache(runcache.New())
	fmt.Fprint(stdout, "package main\n\n// figureDigests pins the sha256 of every figure's quick-scale text.\n// Regenerate with: go run . -pin-figures > figures.go\nvar figureDigests = map[string]string{\n")
	for _, e := range experiments.All() {
		out, err := e.Run(experiments.Quick)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "\t%q: %q,\n", e.ID, digest(out.String()))
	}
	fmt.Fprint(stdout, "}\n")
	return 0
}
