package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/workload"
)

// The figure differentials pin every alternative run mechanism against
// the whole suite: each row re-renders every figure with one adjust
// transform applied to every simulated config, and each figure must match
// the baseline (Auto mechanism, cache off) byte for byte. Together with
// the core package's differentials this is the contract that lets Run
// pick its mechanism silently — no figure can tell the direct path, the
// wheel engine, the heap engine, retained mode or the degenerate elastic
// wrap apart. Heap-vs-wheel holds by transitivity: both equal the
// baseline.
//
// Rows run in parallel with each other: the transform travels in the
// figure's runEnv, never through process-global state, and each row
// passes its cache explicitly.

// diffPass is one render of the suite within a row.
type diffPass struct {
	label string
	// cached passes share one fresh cache across the row (and its
	// figures); the others run uncached.
	cached bool
	adjust func(*core.Config, *workload.Trace)
}

func pinMechanism(m core.Mechanism) func(*core.Config, *workload.Trace) {
	return func(c *core.Config, _ *workload.Trace) { c.Mechanism = m }
}

// wrapDegenerate wraps rigid configs in the degenerate elastic contract;
// configs that already carry elastic specs (x09, x10) keep them.
func wrapDegenerate(c *core.Config, jobs *workload.Trace) {
	if c.Elastic == nil {
		c.Elastic = workload.Degenerate(jobs)
	}
}

// differentials holds the rows, keyed by the test that runs each one.
var differentials = map[string][]diffPass{
	"TestFiguresIdenticalAcrossRetentionModes": {{label: "retained",
		adjust: func(c *core.Config, _ *workload.Trace) { c.RetainJobs = true }}},
	"TestFiguresIdenticalAcrossRunPaths":    {{label: "engine", adjust: pinMechanism(core.Engine)}},
	"TestFiguresIdenticalAcrossEventQueues": {{label: "heap engine", adjust: pinMechanism(core.HeapEngine)}},
	"TestFiguresIdenticalElasticDegenerate": {{label: "degenerate wrap, cache off", adjust: wrapDegenerate}},
	// Wrapped configs fingerprint under their own elastic block, so the
	// cache stores them without colliding with rigid entries: the warm
	// rigid pass must still match.
	"TestFiguresIdenticalElasticDegenerateCached": {
		{label: "degenerate wrap, cache on", cached: true, adjust: wrapDegenerate},
		{label: "rigid, warm cache", cached: true},
	},
}

func TestFiguresIdenticalAcrossRetentionModes(t *testing.T)    { runDifferential(t) }
func TestFiguresIdenticalAcrossRunPaths(t *testing.T)          { runDifferential(t) }
func TestFiguresIdenticalAcrossEventQueues(t *testing.T)       { runDifferential(t) }
func TestFiguresIdenticalElasticDegenerate(t *testing.T)       { runDifferential(t) }
func TestFiguresIdenticalElasticDegenerateCached(t *testing.T) { runDifferential(t) }

// nonSimulating lists the figures that run no simulation cell, so never
// call adjust. Every other figure must: a figure that simulated outside
// its runEnv would slip past every row unnoticed.
var nonSimulating = map[string]bool{
	"fig01": true, "fig05": true, "fig06": true, "fig07": true, "fig20": true, "x08-scaling": true,
}

var (
	baselineOnce sync.Once
	baselineOut  map[string]string
	baselineErr  error
)

// baseline renders the suite once per process with the Auto mechanism
// and no cache; every differential row and the cache test compare
// against it.
func baseline(t *testing.T) map[string]string {
	t.Helper()
	baselineOnce.Do(func() {
		out := make(map[string]string, len(All()))
		for _, e := range All() {
			res, err := e.run(runEnv{scale: Quick})
			if err != nil {
				baselineErr = err
				return
			}
			out[e.ID] = res.String()
		}
		baselineOut = out
	})
	if baselineErr != nil {
		t.Fatalf("baseline render: %v", baselineErr)
	}
	return baselineOut
}

// runDifferential runs the row of the calling test, figure by figure.
func runDifferential(t *testing.T) {
	passes, ok := differentials[t.Name()]
	if !ok {
		t.Fatalf("no differential row for %s", t.Name())
	}
	if testing.Short() {
		t.Skip("renders the full quick-scale figure suite")
	}
	t.Parallel()
	want := baseline(t)
	cache := runcache.New()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var adjusted atomic.Int64
			for _, p := range passes {
				env := runEnv{scale: Quick, adjust: func(c *core.Config, jobs *workload.Trace) {
					adjusted.Add(1)
					if p.adjust != nil {
						p.adjust(c, jobs)
					}
				}}
				if p.cached {
					env.cache = cache
				}
				out, err := e.run(env)
				if err != nil {
					t.Fatalf("%s: %v", p.label, err)
				}
				if got := out.String(); got != want[e.ID] {
					t.Errorf("figure differs from baseline:\n--- baseline ---\n%s\n--- %s ---\n%s",
						want[e.ID], p.label, got)
				}
			}
			if simulates := adjusted.Load() > 0; simulates == nonSimulating[e.ID] {
				t.Errorf("figure adjusted %d configs, but nonSimulating[%q] = %v",
					adjusted.Load(), e.ID, nonSimulating[e.ID])
			}
		})
	}
}

// TestFiguresSimulateOnlyThroughEnv is the static half of the adjust
// guard. The runtime guard only sees that a figure adjusted some config,
// so a figure mixing env cells with a direct simulation would pass it
// while that simulation escaped every row. Outside sweep.go, no non-test
// file of this package may name a Run function of core, or of geo, whose
// Run simulates each region through core.Run (figures use geo.Place and
// run the placement's cells through the env instead).
func TestFiguresSimulateOnlyThroughEnv(t *testing.T) {
	simulators := map[string]bool{
		"github.com/carbonsched/gaia/internal/core": true,
		"github.com/carbonsched/gaia/internal/geo":  true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "sweep.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]bool{} // file-local names of the simulator packages
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !simulators[path] {
				continue
			}
			if imp.Name != nil {
				local[imp.Name.Name] = true
			} else {
				local[filepath.Base(path)] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && local[pkg.Name] && strings.HasPrefix(sel.Sel.Name, "Run") {
				t.Errorf("%s: %s.%s simulates outside the figure's runEnv",
					fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// TestX06SpatialRegionsRunUnderEnv pins that x06's multi-region half
// reaches the adjust hook: besides the single-region cells, every
// region's share of the spatial placement must pass through it, so a
// differential row pins those runs' mechanism too.
func TestX06SpatialRegionsRunUnderEnv(t *testing.T) {
	var mu sync.Mutex
	adjusted := map[string]bool{}
	env := runEnv{scale: Quick, adjust: func(c *core.Config, jobs *workload.Trace) {
		mu.Lock()
		adjusted[jobs.Name+"|"+c.Carbon.Region()] = true
		mu.Unlock()
	}}
	if _, err := runX06Spatial(env); err != nil {
		t.Fatal(err)
	}
	jobs := yearTrace("alibaba", Quick)
	for _, code := range evaluationRegions() {
		region := regionTrace(code).Region()
		for _, name := range []string{jobs.Name, jobs.Name + "@" + region} {
			if !adjusted[name+"|"+region] {
				t.Errorf("run of %s in %s never reached the adjust hook", name, code)
			}
		}
	}
	if len(adjusted) != 2*len(evaluationRegions()) {
		t.Errorf("adjust saw %d distinct runs, want %d: %v", len(adjusted), 2*len(evaluationRegions()), adjusted)
	}
}
