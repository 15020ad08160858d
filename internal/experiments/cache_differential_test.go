package experiments

import (
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/runcache"
)

// renderAll renders every registered experiment at quick scale and
// returns the outputs keyed by experiment ID.
func renderAll(t *testing.T, label string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(All()))
	for _, e := range All() {
		res, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s (%s): %v", e.ID, label, err)
		}
		out[e.ID] = res.String()
	}
	return out
}

// TestFiguresIdenticalWithCache is the correctness bar of the simulation
// cache: the entire figure suite must render cold, warm, and warm from a
// freshly written disk store byte-identically to the cache-off baseline. It
// also asserts the cache is actually doing something — cross-figure hits
// on the cold pass, memory hits on the warm pass, disk hits on the
// disk-warm pass — so a silently disabled cache fails loudly.
func TestFiguresIdenticalWithCache(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full quick-scale figure suite four times")
	}
	prev := ActiveCache()
	defer SetCache(prev)
	defer ResetCacheStats()

	want := baseline(t)

	compare := func(label string, got map[string]string) {
		t.Helper()
		for id, text := range want {
			if got[id] != text {
				t.Errorf("%s: %s differs from cache-off render:\n--- cache off ---\n%s\n--- %s ---\n%s",
					id, label, text, label, got[id])
			}
		}
	}

	// Cold and warm passes over one in-memory cache.
	SetCache(runcache.New())
	ResetCacheStats()
	compare("cache cold", renderAll(t, "cache cold"))
	if _, _, total := CacheStats(); total.Hits == 0 {
		t.Error("cold pass: expected cross-figure cache hits, got none")
	} else if total.Computed == 0 {
		t.Error("cold pass: expected computed cells, got none")
	} else if total.PlanHits == 0 {
		// Reserved sweeps and the carbon-tax schedule/bill pairs differ
		// only in accounting knobs; the plan tier must be sharing their
		// decide phases even on a cold cache.
		t.Error("cold pass: expected decision-plan hits, got none")
	}
	ResetCacheStats()
	compare("cache warm", renderAll(t, "cache warm"))
	if _, _, total := CacheStats(); total.Computed != 0 {
		t.Errorf("warm pass: %d cells re-simulated, want 0", total.Computed)
	}

	// Disk tier: one cache writes the store, a fresh one warms from it.
	dir := t.TempDir()
	seed := runcache.New()
	seed.Logf = t.Logf
	if err := seed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	SetCache(seed)
	ResetCacheStats()
	compare("disk cold", renderAll(t, "disk cold"))

	fresh := runcache.New()
	fresh.Logf = t.Logf
	if err := fresh.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	SetCache(fresh)
	ResetCacheStats()
	compare("disk warm", renderAll(t, "disk warm"))
	if _, _, total := CacheStats(); total.DiskHits == 0 {
		t.Error("disk-warm pass: expected disk hits, got none")
	} else if total.Computed != 0 {
		t.Errorf("disk-warm pass: %d cells re-simulated, want 0", total.Computed)
	}
}

// TestReservedSweepSharesPlans is the plan-reuse smoke (wired into
// `make bench-quick`): a reserved-size sweep through a fresh cache decides
// exactly once, replays every other cell from the shared plan, and renders
// byte-identically to uncached runs; a second process over the same disk
// store replays a disjoint sweep from the persisted plan.
func TestReservedSweepSharesPlans(t *testing.T) {
	defer ResetCacheStats()

	tr, err := prototypeCarbon()
	if err != nil {
		t.Fatal(err)
	}
	jobs := prototypeWeek()
	cells := make([]cell, 0, 8)
	for r := 0; r < 8; r++ {
		cfg := weekConfig(policy.CarbonTime{}, tr)
		cfg.Reserved = r * 10
		cells = append(cells, cell{cfg, jobs})
	}

	want, err := runEnv{}.runCells("plan-smoke", cells)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold := runcache.New()
	cold.Logf = t.Logf
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ResetCacheStats()
	got, err := runEnv{cache: cold}.runCells("plan-smoke", cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("cell %d differs from uncached render:\n%s\nvs\n%s", i, got[i], want[i])
		}
	}
	_, _, total := CacheStats()
	if total.PlanHits != len(cells)-1 || total.Computed != 1 {
		t.Errorf("cold sweep: %d computed + %d plan hits, want 1 + %d (stats %+v)",
			total.Computed, total.PlanHits, len(cells)-1, total)
	}

	// A fresh cache over the same store, sweeping reserved sizes nobody
	// computed: every cell replays the plan decoded from disk.
	warm := runcache.New()
	warm.Logf = t.Logf
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ResetCacheStats()
	disjoint := make([]cell, len(cells))
	for i, c := range cells {
		c.cfg.Reserved += 25
		disjoint[i] = c
	}
	fresh, err := runEnv{cache: warm}.runCells("plan-smoke", disjoint)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		ref, err := core.Run(disjoint[i].cfg, disjoint[i].jobs)
		if err != nil {
			t.Fatal(err)
		}
		if fresh[i].String() != ref.String() {
			t.Errorf("disk-replayed cell %d differs from direct run", i)
		}
	}
	if _, _, total := CacheStats(); total.PlanDiskHits == 0 {
		t.Errorf("disjoint sweep: expected plan disk hits, got %+v", total)
	} else if total.Computed != 0 {
		t.Errorf("disjoint sweep: %d cells re-decided, want 0 (stats %+v)", total.Computed, total)
	}
}
