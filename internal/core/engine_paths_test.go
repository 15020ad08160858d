package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// enginePathCases are the event-engine run paths that schedule typed
// segment events: Spot-RES (restart on reserved-first capacity after an
// eviction), checkpointed spot, WaitAwhile suspend-resume, and a
// suspend-resume plan executed on spot. Every case is engine-only (spot
// and plans are never direct-eligible).
var enginePathCases = []struct {
	name string
	cfg  func(year *carbon.Trace, reserved int) Config
}{
	{"spotres", func(year *carbon.Trace, reserved int) Config {
		return Config{Policy: policy.CarbonTime{}, Carbon: year, Reserved: reserved, WorkConserving: true,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: 1}
	}},
	{"checkpoint", func(year *carbon.Trace, reserved int) Config {
		return Config{Policy: policy.CarbonTime{}, Carbon: year, Reserved: reserved,
			SpotMaxLen: 6 * simtime.Hour, EvictionRate: 0.1, Seed: 2,
			CheckpointInterval: 30 * simtime.Minute, CheckpointOverhead: 3 * simtime.Minute}
	}},
	{"waitawhile", func(year *carbon.Trace, reserved int) Config {
		return Config{Policy: policy.WaitAwhile{}, Carbon: year, Reserved: reserved}
	}},
	{"spotplan", func(year *carbon.Trace, reserved int) Config {
		return Config{Policy: policy.WaitAwhile{}, Carbon: year, Reserved: reserved,
			SpotMaxLen: 4 * simtime.Hour, EvictionRate: 0.1, Seed: 3}
	}},
}

// enginePathFixture is a seeded year of n jobs over a seeded carbon year.
func enginePathFixture(n int) (*carbon.Trace, *workload.Trace) {
	year := carbon.RegionSAAU.GenerateYear(1)
	jobs := workload.AlibabaPAI().GenerateByCount(newRand(1), n, 350*simtime.Day)
	return year, jobs
}

// TestEnginePathGolden pins one run per engine path: the accumulator
// bytes on the timing wheel and on the reference heap, and the retained
// per-job records (segments included, in booking order). The digests were
// recorded before the scheduler's closure events became typed segment
// actions; any change to event order or accounting moves them.
func TestEnginePathGolden(t *testing.T) {
	want := map[string][2]string{ // {accumulator, retained records}
		"spotres":    {"63e82477aa49b78b42d95a4f8d0b2c1de8e598e14948a095e1cb60e7dc66b402", "89c8ccb671d23e2193de29fff2fa53c649eba26b4b7a47aad97059629f8f4b61"},
		"checkpoint": {"845dd36d7e2fb02de32c26a67b2b3cb25dfa7b7110348910d709b022810d389d", "f9c901d47e52b869302b6103c889495ccd3dbcab6c84f4819bc7abaecee37b37"},
		"waitawhile": {"bb170836ee511f563d859ed90a49d8a53c6ac1d8cefe1adce41b4ed969ec236d", "e5fddef9a34a2f99913093cb6ad7133df5cbdf3c9f5de4473092aed4633ef331"},
		"spotplan":   {"cabe04c461a521c057dd11a63885df44c934a93c29a942d10418774bee987b03", "6866baaa980c9def08edae6bb71394dd081b041fae2e213e6ca2d9241231e8cc"},
	}
	year, jobs := enginePathFixture(3000)
	for _, c := range enginePathCases {
		for _, m := range []struct {
			name string
			m    Mechanism
		}{{"auto", Auto}, {"heap", HeapEngine}} {
			cfg := c.cfg(year, 40)
			cfg.Mechanism = m.m
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, m.name, err)
			}
			if cfg.EvictionRate > 0 && res.TotalEvictions() == 0 {
				t.Fatalf("%s: no evictions; the case must exercise the eviction events", c.name)
			}
			sum := sha256.Sum256(metrics.EncodeAccumulator(res.Accumulator()))
			if got := hex.EncodeToString(sum[:]); got != want[c.name][0] {
				t.Errorf("%s/%s: accumulator sha256 = %s, want %s", c.name, m.name, got, want[c.name][0])
			}
		}
		cfg := c.cfg(year, 40)
		cfg.RetainJobs = true
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("%s/retained: %v", c.name, err)
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%v", res.Jobs))
		if got := hex.EncodeToString(sum[:]); got != want[c.name][1] {
			t.Errorf("%s/retained: records sha256 = %s, want %s", c.name, got, want[c.name][1])
		}
	}
}

// TestEnginePathAllocsFlat pins the typed segment events: the spot and
// checkpoint paths allocate per run (slab chunks, pools, the accumulator),
// never per job or per event, so a 20k-job year allocates at most a small
// constant more than a 2k-job year.
func TestEnginePathAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("runs 20k-job years")
	}
	year, small := enginePathFixture(2000)
	_, large := enginePathFixture(20000)
	for _, c := range enginePathCases[:2] {
		allocs := func(jobs *workload.Trace) float64 {
			cfg := c.cfg(year, 40)
			return testing.AllocsPerRun(2, func() {
				if _, err := Run(cfg, jobs); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocs at 2k jobs, %.0f at 20k", c.name, a, b)
		if b > a+32 {
			t.Errorf("%s: %.0f allocs at 20k jobs vs %.0f at 2k: per-job allocation on the engine path", c.name, b, a)
		}
	}
}
