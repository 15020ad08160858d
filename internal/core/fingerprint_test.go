package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// fpFixture builds a small valid trace pair for fingerprinting tests.
func fpFixture(t testing.TB) (*carbon.Trace, *workload.Trace) {
	t.Helper()
	tr := carbon.RegionSAAU.Generate(24*10, 1)
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(3)), 200, simtime.Week)
	return tr, jobs
}

func mustFingerprint(t *testing.T, cfg Config, jobs *workload.Trace) [32]byte {
	t.Helper()
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		t.Fatalf("config unexpectedly not fingerprintable: %+v", cfg)
	}
	return fp
}

// TestFingerprintCanonicalization asserts that every way of spelling the
// same effective configuration hashes identically: zero values vs their
// explicit defaults, permuted AvgLengthOverride insertion order, label
// changes, and knobs that are irrelevant in context (spot/eviction seeds
// with spot disabled).
func TestFingerprintCanonicalization(t *testing.T) {
	tr, jobs := fpFixture(t)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	want := mustFingerprint(t, base, jobs)

	equivalents := map[string]Config{
		"explicit CIS": {Policy: policy.CarbonTime{}, Carbon: tr,
			CIS: carbon.NewPerfectService(tr)},
		"explicit defaults": {Policy: policy.CarbonTime{}, Carbon: tr,
			ShortMax: 2 * simtime.Hour, WaitShort: 6 * simtime.Hour, WaitLong: 24 * simtime.Hour,
			Horizon: tr.Horizon()},
		"explicit queue ladder": {Policy: policy.CarbonTime{}, Carbon: tr,
			Queues: []QueueSpec{
				{MaxLength: 2 * simtime.Hour, MaxWait: 6 * simtime.Hour},
				{MaxLength: 0, MaxWait: 24 * simtime.Hour},
			}},
		"label differs": {Policy: policy.CarbonTime{}, Carbon: tr, Label: "renamed"},
		"seed without spot": {Policy: policy.CarbonTime{}, Carbon: tr, Seed: 12345,
			EvictionRate: 0.3, CheckpointInterval: simtime.Hour},
		"override for queue out of range": {Policy: policy.CarbonTime{}, Carbon: tr,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{7: simtime.Hour}},
	}
	// Equal keys must also mean equal results: each equivalent config's
	// encoded accumulator must match the base's byte for byte, or a cache
	// hit would serve a result the config does not produce.
	wantAcc := runAccumulatorBytes(t, base, jobs)
	for name, cfg := range equivalents {
		if got := mustFingerprint(t, cfg, jobs); got != want {
			t.Errorf("%s: fingerprint differs from base", name)
		}
		if !bytes.Equal(runAccumulatorBytes(t, cfg, jobs), wantAcc) {
			t.Errorf("%s: same fingerprint as base but a different result", name)
		}
	}
}

// runAccumulatorBytes runs cfg and returns its encoded accumulator, the
// bytes the result cache stores.
func runAccumulatorBytes(t *testing.T, cfg Config, jobs *workload.Trace) []byte {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return metrics.EncodeAccumulator(res.Accumulator())
}

// decidePlanBytes decides cfg and returns its encoded plan, the bytes the
// plan cache stores.
func decidePlanBytes(t *testing.T, cfg Config, jobs *workload.Trace) []byte {
	t.Helper()
	plan, err := DecidePlan(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return EncodeDecisionPlan(plan)
}

// TestFingerprintOverrideOrderInsensitive permutes map insertion order —
// the canonical encoding must sort keys, so iteration order artifacts can
// never split the cache.
func TestFingerprintOverrideOrderInsensitive(t *testing.T) {
	tr, jobs := fpFixture(t)
	mk := func(order []workload.Queue) Config {
		vals := map[workload.Queue]simtime.Duration{
			workload.QueueShort: 45 * simtime.Minute,
			workload.QueueLong:  5 * simtime.Hour,
		}
		override := make(map[workload.Queue]simtime.Duration, len(order))
		for _, q := range order {
			override[q] = vals[q]
		}
		return Config{Policy: policy.LowestWindow{}, Carbon: tr, AvgLengthOverride: override}
	}
	a := mustFingerprint(t, mk([]workload.Queue{workload.QueueShort, workload.QueueLong}), jobs)
	b := mustFingerprint(t, mk([]workload.Queue{workload.QueueLong, workload.QueueShort}), jobs)
	if a != b {
		t.Error("fingerprint depends on AvgLengthOverride insertion order")
	}
}

// TestFingerprintDistinguishes asserts that every knob that can change a
// simulation result changes the fingerprint.
func TestFingerprintDistinguishes(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionCAUS.Generate(24*10, 1)
	jobs2 := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(4)), 200, simtime.Week)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr,
		SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}
	want := mustFingerprint(t, base, jobs)

	variants := map[string]struct {
		cfg  Config
		jobs *workload.Trace
	}{
		"policy": {Config{Policy: policy.LowestWindow{}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}, jobs},
		"carbon trace": {Config{Policy: policy.CarbonTime{}, Carbon: tr2,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}, jobs},
		"workload": {base, jobs2},
		"reserved": {Config{Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 10,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}, jobs},
		"work-conserving": {Config{Policy: policy.CarbonTime{}, Carbon: tr, WorkConserving: true,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}, jobs},
		"eviction seed": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: 99}, jobs},
		"eviction rate": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.10}, jobs},
		"spot bound": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			SpotMaxLen: 4 * simtime.Hour, EvictionRate: 0.05}, jobs},
		"checkpointing": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05,
			CheckpointInterval: simtime.Hour}, jobs},
		"horizon": {Config{Policy: policy.CarbonTime{}, Carbon: tr, Horizon: 5 * simtime.Day,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}, jobs},
		"avg-length override": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{
				workload.QueueLong: 7 * simtime.Hour,
			}}, jobs},
		"ecovisor percentile": {Config{Policy: policy.Ecovisor{ThresholdPercentile: 50}, Carbon: tr,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05}, jobs},
	}
	for name, v := range variants {
		if got := mustFingerprint(t, v.cfg, v.jobs); got == want {
			t.Errorf("%s: fingerprint collides with base", name)
		}
	}

	// Ecovisor's zero percentile means 30 — those must collide with each
	// other, not with other percentiles.
	e0 := mustFingerprint(t, Config{Policy: policy.Ecovisor{}, Carbon: tr}, jobs)
	e30 := mustFingerprint(t, Config{Policy: policy.Ecovisor{ThresholdPercentile: 30}, Carbon: tr}, jobs)
	if e0 != e30 {
		t.Error("Ecovisor{} and Ecovisor{30} must fingerprint equal")
	}
}

// TestFingerprintNotCacheable pins the bypass conditions: opaque CIS
// implementations, unknown policies, per-job retention and nil inputs.
func TestFingerprintNotCacheable(t *testing.T) {
	tr, jobs := fpFixture(t)
	cases := map[string]Config{
		"noisy CIS": {Policy: policy.CarbonTime{}, Carbon: tr,
			CIS: carbon.NewNoisyService(tr, 0.05, 1)},
		"retain jobs": {Policy: policy.CarbonTime{}, Carbon: tr, RetainJobs: true},
		"no policy":   {Carbon: tr},
		"no carbon":   {Policy: policy.CarbonTime{}},
	}
	for name, cfg := range cases {
		if _, ok := cfg.Fingerprint(jobs); ok {
			t.Errorf("%s: expected not fingerprintable", name)
		}
	}
	if _, ok := (Config{Policy: policy.CarbonTime{}, Carbon: tr}).Fingerprint(nil); ok {
		t.Error("nil jobs: expected not fingerprintable")
	}

	// A pinned mechanism must bypass too: a heap- or engine-pinned
	// differential run answered from the cache would compare a mechanism
	// against another instead of against itself.
	for _, m := range []Mechanism{Engine, HeapEngine} {
		cfg := Config{Policy: policy.CarbonTime{}, Carbon: tr, Mechanism: m}
		if _, ok := cfg.Fingerprint(jobs); ok {
			t.Errorf("mechanism %d: expected not fingerprintable", m)
		}
	}
}

func mustDecisionFingerprint(t *testing.T, cfg Config, jobs *workload.Trace) [32]byte {
	t.Helper()
	fp, ok := cfg.DecisionFingerprint(jobs)
	if !ok {
		t.Fatalf("config unexpectedly has no decision fingerprint: %+v", cfg)
	}
	return fp
}

// TestDecisionFingerprintEquivalence asserts the projection property the
// plan cache rests on: configurations that differ only in accounting
// knobs — reserved size, prices, the power model, the horizon, labels,
// retention, even the realized carbon trace (with the CIS pinned) — share
// one decision fingerprint, so a sweep over any of them decides once.
func TestDecisionFingerprintEquivalence(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionCAUS.Generate(24*10, 1)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	want := mustDecisionFingerprint(t, base, jobs)

	equivalents := map[string]Config{
		"reserved": {Policy: policy.CarbonTime{}, Carbon: tr, Reserved: 500},
		"pricing": {Policy: policy.CarbonTime{}, Carbon: tr,
			Pricing: cloud.Pricing{OnDemandHourly: 9.9, ReservedFraction: 0.5, SpotFraction: 0.1}},
		"power": {Policy: policy.CarbonTime{}, Carbon: tr,
			Power: cloud.Power{KWPerCPU: 0.5}},
		"horizon":  {Policy: policy.CarbonTime{}, Carbon: tr, Horizon: 9 * simtime.Day},
		"label":    {Policy: policy.CarbonTime{}, Carbon: tr, Label: "renamed"},
		"retained": {Policy: policy.CarbonTime{}, Carbon: tr, RetainJobs: true},
		// The decisive trace is the CIS forecast, not the realized carbon
		// trace accounting integrates — the carbon-tax experiment's
		// schedule/bill pairs rely on exactly this sharing.
		"realized carbon trace": {Policy: policy.CarbonTime{}, Carbon: tr2,
			CIS: carbon.NewPerfectService(tr)},
		"explicit defaults": {Policy: policy.CarbonTime{}, Carbon: tr,
			ShortMax: 2 * simtime.Hour, WaitShort: 6 * simtime.Hour, WaitLong: 24 * simtime.Hour},
		"override for queue out of range": {Policy: policy.CarbonTime{}, Carbon: tr,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{7: simtime.Hour}},
	}
	// Equal keys must also mean equal plans, byte for byte.
	wantPlan := decidePlanBytes(t, base, jobs)
	for name, cfg := range equivalents {
		if got := mustDecisionFingerprint(t, cfg, jobs); got != want {
			t.Errorf("%s: decision fingerprint differs from base", name)
		}
		if !bytes.Equal(decidePlanBytes(t, cfg, jobs), wantPlan) {
			t.Errorf("%s: same decision fingerprint as base but a different plan", name)
		}
	}
}

// TestDecisionFingerprintDistinguishes asserts that every input the decide
// phase reads splits the fingerprint.
func TestDecisionFingerprintDistinguishes(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionCAUS.Generate(24*10, 1)
	jobs2 := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(4)), 200, simtime.Week)
	base := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	want := mustDecisionFingerprint(t, base, jobs)

	variants := map[string]struct {
		cfg  Config
		jobs *workload.Trace
	}{
		"policy":    {Config{Policy: policy.LowestWindow{}, Carbon: tr}, jobs},
		"cis trace": {Config{Policy: policy.CarbonTime{}, Carbon: tr, CIS: carbon.NewPerfectService(tr2)}, jobs},
		"workload":  {base, jobs2},
		"wait bound": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			WaitShort: 12 * simtime.Hour}, jobs},
		"queue ladder": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			ShortMax: 4 * simtime.Hour}, jobs},
		"avg-length override": {Config{Policy: policy.CarbonTime{}, Carbon: tr,
			AvgLengthOverride: map[workload.Queue]simtime.Duration{
				workload.QueueLong: 7 * simtime.Hour,
			}}, jobs},
	}
	for name, v := range variants {
		if got := mustDecisionFingerprint(t, v.cfg, v.jobs); got == want {
			t.Errorf("%s: decision fingerprint collides with base", name)
		}
	}

	// And it must never collide with the full simulation fingerprint of
	// the same configuration (distinct hash domains).
	if full := mustFingerprint(t, base, jobs); full == want {
		t.Error("decision fingerprint collides with the full fingerprint")
	}
}

// TestDecisionFingerprintBypass pins when a configuration has no decision
// projection: every non-direct-eligible shape, nil inputs, and active
// differential seams. Retention, by contrast, must NOT spoil it.
func TestDecisionFingerprintBypass(t *testing.T) {
	tr, jobs := fpFixture(t)
	cases := map[string]Config{
		"work-conserving": {Policy: policy.CarbonTime{}, Carbon: tr, WorkConserving: true},
		"spot":            {Policy: policy.CarbonTime{}, Carbon: tr, SpotMaxLen: 2 * simtime.Hour},
		"plan policy":     {Policy: policy.WaitAwhile{}, Carbon: tr},
		"opaque CIS": {Policy: policy.CarbonTime{}, Carbon: tr,
			CIS: carbon.NewNoisyService(tr, 0.05, 1)},
		"no policy": {Carbon: tr},
		"no carbon": {Policy: policy.CarbonTime{}},
	}
	for name, cfg := range cases {
		if _, ok := cfg.DecisionFingerprint(jobs); ok {
			t.Errorf("%s: expected no decision fingerprint", name)
		}
	}
	eligible := Config{Policy: policy.CarbonTime{}, Carbon: tr}
	if _, ok := eligible.DecisionFingerprint(nil); ok {
		t.Error("nil jobs: expected no decision fingerprint")
	}

	// Retention changes what the replay materializes, not what the decide
	// phase chooses — retained runs may share plans.
	retained := eligible
	retained.RetainJobs = true
	if _, ok := retained.DecisionFingerprint(jobs); !ok {
		t.Error("retained config should keep its decision fingerprint")
	}

	// Pinned-mechanism runs must not replay cached plans: they exist to
	// exercise a specific mechanism end to end.
	for _, m := range []Mechanism{Engine, HeapEngine} {
		pinned := eligible
		pinned.Mechanism = m
		if _, ok := pinned.DecisionFingerprint(jobs); ok {
			t.Errorf("mechanism %d: expected no decision fingerprint", m)
		}
	}
}

// TestFingerprintGolden pins the simulation hash of two fixed
// configurations (a rigid direct-eligible one and a spot one whose
// eviction knobs enter the hash). A change here orphans every on-disk
// cache entry, and fingerprintLayout must be bumped alongside.
func TestFingerprintGolden(t *testing.T) {
	tr, jobs := fpFixture(t)
	for want, cfg := range map[string]Config{
		"8e5993f424d3654e93f365b7256488c6243990b5b2303b0f53b3d734e06a11f6": {
			Policy: policy.LowestWindow{}, Carbon: tr, Reserved: 42},
		"7be9cda67a6bc4c8ad18b1b6bb77f16841186068558b3fe3638510e046cfcc94": {
			Policy: policy.WaitAwhile{}, Carbon: tr, Reserved: 7, SpotMaxLen: 2 * simtime.Hour,
			EvictionRate: 0.05, CheckpointInterval: simtime.Hour, Seed: 3},
	} {
		fp := mustFingerprint(t, cfg, jobs)
		if got := hex.EncodeToString(fp[:]); got != want {
			t.Errorf("%s fingerprint drifted:\n got %s\nwant %s", cfg.Policy.Name(), got, want)
		}
	}
}

// TestDecisionFingerprintGolden pins the canonical hash of a fixed
// configuration over the deterministic fixture. A change here means the
// decision fingerprint layout changed: on-disk plan artifacts silently
// orphan, and decisionFingerprintLayout must be bumped alongside.
func TestDecisionFingerprintGolden(t *testing.T) {
	tr, jobs := fpFixture(t)
	cfg := Config{Policy: policy.LowestWindow{}, Carbon: tr, Reserved: 42}
	fp := mustDecisionFingerprint(t, cfg, jobs)
	const want = "1d1b16cd19304eb7eddc7995118b1a6f15ba1de3930704c1341280c5318c4035"
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Errorf("decision fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}
