package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
)

// firstIdleScan is the linear reference for Acquire: the idle node of the
// first listed option that has one, lowest ID (earliest launch) first.
func firstIdleScan(m *Manager, prefs ...cloud.Option) *Node {
	for _, opt := range prefs {
		for _, n := range m.Nodes() {
			if n.State == Idle && n.Option == opt {
				return n
			}
		}
	}
	return nil
}

// provisioningScan is the linear reference for Provisioning.
func provisioningScan(m *Manager, opt cloud.Option) int {
	count := 0
	for _, n := range m.Nodes() {
		if n.State == Provisioning && n.Option == opt {
			count++
		}
	}
	return count
}

// checkAgainstScan compares the manager's idle heaps and provisioning
// counters with the linear scans. It probes the real Acquire, once per
// option and once with a mixed preference list, and hands every probed
// node back to the idle heap unchanged, so the check leaves the fleet,
// its idle timers and later choices exactly as they were.
func checkAgainstScan(t *testing.T, m *Manager, when string) {
	t.Helper()
	probes := [][]cloud.Option{{cloud.OnDemand}, {cloud.Reserved}, {cloud.Spot}, {cloud.Spot, cloud.Reserved, cloud.OnDemand}}
	for _, prefs := range probes {
		want := firstIdleScan(m, prefs...)
		got := m.Acquire(prefs...)
		if got != want {
			t.Fatalf("%s: Acquire(%v) = %v, linear scan %v", when, prefs, nodeID(got), nodeID(want))
		}
		if got != nil {
			got.State = Idle
			m.pushIdle(got)
		}
	}
	for _, opt := range cloud.Options() {
		if got, want := m.Provisioning(opt), provisioningScan(m, opt); got != want {
			t.Fatalf("%s: Provisioning(%v) = %d, linear scan %d", when, opt, got, want)
		}
	}
}

func nodeID(n *Node) string {
	if n == nil {
		return "nil"
	}
	return fmt.Sprintf("node %d", n.ID)
}

// TestIdleHeapsMatchLinearScan drives seeded random churn through a
// manager: launches and boots, claims and releases, idle timeouts, spot
// evictions of busy nodes, and a final Shutdown while nodes are still
// booting. Simulated time advances one minute (the time unit) at a time,
// and the heaps are checked after every driver action, inside every
// ready and interruption callback, and after every minute's events.
func TestIdleHeapsMatchLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		cfg := testConfig(e, rng.Intn(5))
		cfg.EvictionRate = 0.3
		cfg.Seed = seed
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		when := func(what string) string {
			return fmt.Sprintf("seed %d, minute %d, %s", seed, e.Now(), what)
		}
		m.SetOnReady(func() { checkAgainstScan(t, m, when("boot")) })
		var busy []*Node
		const horizon = 8 * 60
		for minute := simtime.Time(0); minute < horizon; minute++ {
			e.RunUntil(minute)
			checkAgainstScan(t, m, when("events"))
			for k := rng.Intn(4); k > 0; k-- {
				switch rng.Intn(3) {
				case 0:
					opt := []cloud.Option{cloud.OnDemand, cloud.Spot}[rng.Intn(2)]
					m.Launch(opt)
					checkAgainstScan(t, m, when("launch"))
				case 1:
					prefs := rng.Perm(3)
					opts := make([]cloud.Option, 1+rng.Intn(3))
					for i := range opts {
						opts[i] = cloud.Option(prefs[i])
					}
					want := firstIdleScan(m, opts...)
					n := m.Acquire(opts...)
					if n != want {
						t.Fatalf("%s: Acquire(%v) = %v, linear scan %v", when("claim"), opts, nodeID(n), nodeID(want))
					}
					if n == nil {
						continue
					}
					m.Occupy(n, func(*Node) { checkAgainstScan(t, m, when("eviction")) })
					m.StartSpotClock(n, simtime.Duration(30+rng.Intn(300)))
					busy = append(busy, n)
					checkAgainstScan(t, m, when("claim"))
				case 2:
					if len(busy) == 0 {
						continue
					}
					i := rng.Intn(len(busy))
					n := busy[i]
					busy = append(busy[:i], busy[i+1:]...)
					if n.State == Busy { // not evicted meanwhile
						m.ReleaseNode(n)
						checkAgainstScan(t, m, when("release"))
					}
				}
			}
		}
		m.Launch(cloud.OnDemand)
		m.Launch(cloud.Spot)
		m.Shutdown()
		checkAgainstScan(t, m, when("shutdown"))
		for _, opt := range cloud.Options() {
			if p := m.Provisioning(opt); p != 0 {
				t.Fatalf("%s: %d %v nodes still provisioning", when("shutdown"), p, opt)
			}
		}
		e.RunUntil(horizon + simtime.Time(cfg.BootDelay))
		checkAgainstScan(t, m, when("after shutdown"))
	}
}
