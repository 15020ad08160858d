// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1-2 and 5-20) on the GAIA simulator with the
// synthetic trace substitutes documented in DESIGN.md. Each experiment
// returns a printable result whose rows mirror the paper's series; the
// absolute numbers depend on the synthetic substrates, but the shape —
// who wins, by roughly what factor, where the crossovers fall — is the
// reproduction target recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/workload"
)

// Experiment is one reproducible figure.
type Experiment struct {
	// ID is the figure identifier, e.g. "fig08".
	ID string
	// Title summarizes what the figure shows.
	Title string

	run func(runEnv) (fmt.Stringer, error)
}

// Run executes the experiment at the given scale, routing its simulation
// cells through the active cache, and returns a printable result.
func (e Experiment) Run(scale Scale) (fmt.Stringer, error) {
	return e.run(runEnv{scale: scale, cache: ActiveCache()})
}

// runEnv is what a figure function runs under. Every simulation a figure
// performs goes through it (runCells or simulate), so a caller can render
// the whole suite against a chosen cache and with every config adjusted —
// pinned to one run mechanism, retained, or wrapped elastic — without any
// process-global switch.
type runEnv struct {
	scale Scale
	// cache serves runCells' cells; nil simulates every cell.
	cache *runcache.Cache
	// adjust, when set, rewrites every config just before it runs.
	adjust func(*core.Config, *workload.Trace)
}

// Scale selects how much work an experiment does. Quick runs use shorter
// horizons and fewer jobs (for tests and -bench on laptops); Full runs the
// paper-scale year-long 100k-job configurations.
type Scale int

// Supported scales.
const (
	// Quick is a reduced-size run for tests and benchmarks: ~60-day
	// horizons and proportionally fewer jobs. Shapes are preserved.
	Quick Scale = iota
	// Full is the paper-scale configuration (year-long, ~100k jobs).
	Full
)

// String returns "quick" or "full".
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
