package policy

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// diffPolicies is every policy in the package; the four oracle-backed ones
// plus the rest, which must be unaffected by EnableFastPaths.
func diffPolicies() []Policy {
	return []Policy{
		NoWait{}, AllWait{},
		LowestSlot{}, LowestWindow{}, CarbonTime{},
		WaitAwhile{}, WaitAwhileEst{}, Ecovisor{},
	}
}

// diffQueueConfigs covers the paper's default, a deliberately
// non-hour-aligned configuration, a zero-wait queue, and a three-queue
// ladder.
func diffQueueConfigs() []map[workload.Queue]QueueInfo {
	return []map[workload.Queue]QueueInfo{
		{
			workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: 90 * simtime.Minute},
			workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: 5 * simtime.Hour},
		},
		{
			workload.QueueShort: {MaxWait: 90 * simtime.Minute, AvgLength: 100 * simtime.Minute},
			workload.QueueLong:  {MaxWait: 7*simtime.Hour + 30*simtime.Minute, AvgLength: 3*simtime.Hour + 17*simtime.Minute},
		},
		{
			workload.QueueShort: {MaxWait: 0, AvgLength: 45 * simtime.Minute},
			workload.QueueLong:  {MaxWait: 26 * simtime.Hour, AvgLength: 26 * simtime.Hour},
		},
		{
			workload.Queue(0): {MaxWait: simtime.Hour, AvgLength: 30 * simtime.Minute},
			workload.Queue(1): {MaxWait: 5 * simtime.Hour, AvgLength: 2 * simtime.Hour},
			workload.Queue(2): {MaxWait: 30 * simtime.Hour, AvgLength: 9 * simtime.Hour},
		},
	}
}

// diffTraces covers random CI series of two lengths, a tie-heavy quantized
// series (the argmin tie-breaking cases), a constant series (all ties), and
// a single-slot trace.
func diffTraces() []*carbon.Trace {
	random := func(seed int64, n int) *carbon.Trace {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, n)
		for i := range values {
			values[i] = 30 + 700*rng.Float64()
		}
		return carbon.MustTrace("random", values)
	}
	quantized := func(seed int64, n int) *carbon.Trace {
		rng := rand.New(rand.NewSource(seed))
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(1+rng.Intn(3)) * 100
		}
		return carbon.MustTrace("ties", values)
	}
	constant := make([]float64, 48)
	for i := range constant {
		constant[i] = 250
	}
	return []*carbon.Trace{
		random(1, 36),
		random(2, 173),
		quantized(3, 96),
		carbon.MustTrace("constant", constant),
		carbon.MustTrace("single", []float64{123}),
	}
}

func sortedQueues(queues map[workload.Queue]QueueInfo) []workload.Queue {
	out := make([]workload.Queue, 0, len(queues))
	for q := range queues {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestFastPathsMatchReferenceDecisions is the tentpole's differential
// test: for every policy, trace shape and queue configuration, a Context
// with fast paths enabled must return decisions reflect.DeepEqual to a
// plain Context that can only take the reference path. Arrival minutes are
// mostly non-hour-aligned, and some arrivals land past the trace horizon
// to exercise the coverage guards.
func TestFastPathsMatchReferenceDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for ti, tr := range diffTraces() {
		for qi, queues := range diffQueueConfigs() {
			ctxFast := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			ctxFast.EnableFastPaths()
			ctxRef := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
			qs := sortedQueues(queues)
			horizon := int64(tr.Horizon())
			for trial := 0; trial < 60; trial++ {
				now := simtime.Time(rng.Int63n(horizon + 3*int64(simtime.Hour)))
				if trial%5 == 0 {
					now -= now % 60 // some hour-aligned arrivals too
				}
				length := simtime.Duration(1 + rng.Int63n(int64(26*simtime.Hour)))
				job := workload.Job{
					ID:     trial,
					Length: length,
					CPUs:   1,
					Queue:  qs[rng.Intn(len(qs))],
				}
				for _, p := range diffPolicies() {
					dFast := p.Decide(job, now, ctxFast)
					dRef := p.Decide(job, now, ctxRef)
					if !reflect.DeepEqual(dFast, dRef) {
						t.Fatalf("trace %d, config %d, %s(queue=%d, len=%v, now=%v):\n fast = %+v\n ref  = %+v",
							ti, qi, p.Name(), job.Queue, length, now, dFast, dRef)
					}
				}
			}
			if ctxFast.FastPathHits() == 0 {
				t.Errorf("trace %d, config %d: fast path never hit", ti, qi)
			}
			if ctxRef.FastPathHits() != 0 {
				t.Errorf("trace %d, config %d: plain context took the fast path", ti, qi)
			}
		}
	}
}

// TestFastPathHitCounting pins that each oracle-backed policy actually
// answers from the tables on an ordinary in-horizon decision.
func TestFastPathHitCounting(t *testing.T) {
	ctx := testCtx([]float64{400, 100, 300, 200, 500, 50, 600, 250}, 90*simtime.Minute, 4*simtime.Hour)
	ctx.EnableFastPaths()
	for _, p := range []Policy{LowestSlot{}, LowestWindow{}, CarbonTime{}, WaitAwhile{}, WaitAwhileEst{}} {
		before := ctx.FastPathHits()
		p.Decide(longJob(3*simtime.Hour), 90, ctx)
		if ctx.FastPathHits() != before+1 {
			t.Errorf("%s: fast-path hits %d -> %d, want +1", p.Name(), before, ctx.FastPathHits())
		}
	}
}

// TestFastPathsAtTraceHorizonEdge pins the trace-horizon edge the oracle
// padding exists for: jobs arriving in the trace's final hour (and past the
// horizon) with the full 24 h window must decide identically with and
// without fast paths, where every slot query clamps to the last value.
func TestFastPathsAtTraceHorizonEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 48)
	for i := range values {
		values[i] = 30 + 700*rng.Float64()
	}
	tr := carbon.MustTrace("edge", values)
	queues := map[workload.Queue]QueueInfo{
		workload.QueueShort: {MaxWait: 6 * simtime.Hour, AvgLength: 90 * simtime.Minute},
		workload.QueueLong:  {MaxWait: 24 * simtime.Hour, AvgLength: 5 * simtime.Hour},
	}
	ctxFast := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}
	ctxFast.EnableFastPaths()
	ctxRef := &Context{CIS: carbon.NewPerfectService(tr), Queues: queues}

	arrivals := []simtime.Time{
		47 * 60, 47*60 + 1, 47*60 + 30, 47*60 + 59, // final hour
		48 * 60, 48*60 + 30, 50*60 + 7, // past the horizon
	}
	for _, now := range arrivals {
		for _, length := range []simtime.Duration{simtime.Minute, 90 * simtime.Minute, 26 * simtime.Hour} {
			for _, q := range []workload.Queue{workload.QueueShort, workload.QueueLong} {
				job := workload.Job{ID: 1, Length: length, CPUs: 1, Queue: q}
				for _, p := range diffPolicies() {
					dFast := p.Decide(job, now, ctxFast)
					dRef := p.Decide(job, now, ctxRef)
					if !reflect.DeepEqual(dFast, dRef) {
						t.Fatalf("%s(queue=%d, len=%v, now=%v):\n fast = %+v\n ref  = %+v",
							p.Name(), q, length, now, dFast, dRef)
					}
				}
			}
		}
	}
	if ctxFast.FastPathHits() == 0 {
		t.Error("horizon-edge arrivals never hit the fast path")
	}
}

// TestDecideAllocationBudgets pins the steady-state allocation behaviour
// the oracle layer buys: zero per decision for every start-time policy,
// and exactly the returned plan for the suspend-resume ones.
func TestDecideAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 72)
	for i := range values {
		values[i] = 30 + 700*rng.Float64()
	}
	ctx := testCtx(values, 90*simtime.Minute, 5*simtime.Hour)
	ctx.EnableFastPaths()
	job := longJob(5*simtime.Hour + 13*simtime.Minute)
	now := simtime.Time(90)
	budgets := []struct {
		p   Policy
		max float64
	}{
		{NoWait{}, 0},
		{AllWait{}, 0},
		{LowestSlot{}, 0},
		{LowestWindow{}, 0},
		{CarbonTime{}, 0},
		{WaitAwhile{}, 1},
		{WaitAwhileEst{}, 1},
		{Ecovisor{}, 1},
	}
	for _, b := range budgets {
		for i := 0; i < 3; i++ { // warm scratch buffers and rank caches
			b.p.Decide(job, now, ctx)
		}
		allocs := testing.AllocsPerRun(100, func() {
			b.p.Decide(job, now, ctx)
		})
		if allocs > b.max {
			t.Errorf("%s: %v allocs per Decide, budget %v", b.p.Name(), allocs, b.max)
		}
	}
}

// TestRankOrderExtensionMatchesFreshSort pins the WaitAwhile rank cache's
// merge: a bucket extended by later deadlines (in any sequence) must equal
// a fresh (CI, index) sort of the whole bucket, on random and tie-heavy
// traces.
func TestRankOrderExtensionMatchesFreshSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ti, tr := range diffTraces() {
		ctx := &Context{CIS: carbon.NewPerfectService(tr), Queues: diffQueueConfigs()[0]}
		ctx.EnableFastPaths()
		extended := 0
		for trial := 0; trial < 60; trial++ {
			i0 := rng.Intn(6) // few buckets, so most calls revisit one
			iD := i0 + rng.Intn(40)
			if r, ok := ctx.ranks[i0]; ok && iD > r.iDmax {
				extended++
			}
			got := append([]int32(nil), ctx.rankOrder(i0, iD)...)
			want := make([]int32, 0, iD-i0+1)
			for i := i0; i <= ctx.ranks[i0].iDmax; i++ {
				want = append(want, int32(i))
			}
			sort.Slice(want, func(a, b int) bool {
				va, vb := tr.Value(int(want[a])), tr.Value(int(want[b]))
				if va != vb {
					return va < vb
				}
				return want[a] < want[b]
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace %d: rankOrder(%d, %d) = %v, want %v", ti, i0, iD, got, want)
			}
		}
		if extended == 0 {
			t.Errorf("trace %d: no bucket was extended", ti)
		}
	}
}
