package gaia

// Event-core benchmarks: the engine's timing wheel against the reference
// heap, plus the "chatty" workload family that motivated the wheel —
// elastic jobs rescheduling their finish every simulated hour and
// cancel/reschedule storms over candidate starts. These run the sim
// package directly (no policies, no accounting), so ns/op is the cost of
// the event mechanism itself.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/sim"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// xorshift64 is the benchmarks' deterministic RNG: no math/rand in the
// measured loop, identical sequences under both queue kinds.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

var queueKinds = []struct {
	name string
	kind sim.QueueKind
}{
	{"wheel", sim.QueueWheel},
	{"heap", sim.QueueHeap},
}

// churnState sustains a fixed queue depth: every fired event schedules
// one replacement until the budget is spent, so the engine holds ~depth
// pending events for the whole measurement.
type churnState struct {
	e         *sim.Engine
	rng       uint64
	remaining int
}

type churnAction struct{ st *churnState }

func (a *churnAction) Fire() {
	st := a.st
	if st.remaining <= 0 {
		return
	}
	st.remaining--
	st.rng = xorshift64(st.rng)
	// Mostly near offsets (within the inner wheel's window), with an
	// occasional multi-day event that exercises the outer levels.
	d := simtime.Duration(st.rng & 255)
	if st.rng&0xF == 0 {
		d = simtime.Duration(st.rng % 65536)
	}
	st.e.ScheduleAction(st.e.Now().Add(d), sim.PriorityStart, a)
}

// BenchmarkEventCore measures raw schedule+fire cost per event at steady
// queue depths, wheel vs heap. ns/op is per fired event.
func BenchmarkEventCore(b *testing.B) {
	for _, q := range queueKinds {
		for _, depth := range []int{64, 1024, 16384} {
			b.Run(fmt.Sprintf("%s/depth=%d", q.name, depth), func(b *testing.B) {
				e := sim.NewEngine()
				e.SetQueue(q.kind)
				st := &churnState{e: e, rng: 0x9E3779B97F4A7C15, remaining: b.N}
				acts := make([]churnAction, depth)
				for i := range acts {
					acts[i] = churnAction{st: st}
					st.rng = xorshift64(st.rng)
					e.ScheduleAction(simtime.Time(st.rng&1023), sim.PriorityStart, &acts[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.Run()
			})
		}
	}
}

// elasticJob models a CarbonScaler-style autoscaled job: a pending finish
// event plus an hourly resize tick that revises the completion estimate —
// one Reschedule per simulated hour of runtime.
type elasticJob struct {
	e         *sim.Engine
	finish    sim.Handle
	end       simtime.Time
	ticksLeft int
	rng       uint64
	fired     *int
}

// The same record backs both of the job's event kinds; the distinct types
// pick the callback, so no closures are allocated.
type elasticFinish elasticJob

func (a *elasticFinish) Fire() { *a.fired++ }

type elasticTick elasticJob

func (a *elasticTick) Fire() {
	jb := (*elasticJob)(a)
	jb.ticksLeft--
	jb.rng = xorshift64(jb.rng)
	// Resize revises the completion estimate by up to ±1h, clamped to
	// stay in the future.
	end := jb.end.Add(simtime.Duration(jb.rng%120) - 60)
	if min := jb.e.Now() + 1; end < min {
		end = min
	}
	if nh, ok := jb.e.Reschedule(jb.finish, end, sim.PriorityFinish); ok {
		jb.finish, jb.end = nh, end
	}
	if jb.ticksLeft > 0 {
		jb.e.ScheduleAction(jb.e.Now().Add(simtime.Hour), sim.PriorityLow, a)
	}
}

// BenchmarkChattyElastic runs a fleet of 2048 elastic jobs, each firing
// `ticks` hourly resize ticks that Reschedule its finish event. One op is
// the whole fleet's simulation.
func BenchmarkChattyElastic(b *testing.B) {
	const nJobs = 2048
	for _, q := range queueKinds {
		for _, ticks := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/ticks=%d", q.name, ticks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := sim.NewEngine()
					e.SetQueue(q.kind)
					jobs := make([]elasticJob, nJobs)
					rng := uint64(0x9E3779B97F4A7C15)
					fired := 0
					for j := range jobs {
						rng = xorshift64(rng)
						jb := &jobs[j]
						jb.e, jb.rng, jb.fired = e, rng, &fired
						jb.ticksLeft = ticks
						arrival := simtime.Time(rng % (7 * 1440))
						jb.end = arrival.Add(simtime.Duration(ticks)*simtime.Hour +
							simtime.Duration(rng%240))
						jb.finish = e.ScheduleAction(jb.end, sim.PriorityFinish, (*elasticFinish)(jb))
						e.ScheduleAction(arrival.Add(simtime.Hour), sim.PriorityLow, (*elasticTick)(jb))
					}
					e.Run()
					if fired != nJobs {
						b.Fatalf("finished %d jobs, want %d", fired, nJobs)
					}
				}
				b.ReportMetric(float64(nJobs*(ticks+2)), "events/op")
			})
		}
	}
}

// stormStart counts the surviving candidate start when it fires.
type stormStart struct{ fired *int }

func (a *stormStart) Fire() { *a.fired++ }

// BenchmarkChattyCancelStorm schedules `events` candidate start times per
// job — a planner hedging across green windows — then cancels all but
// one, so the queue churns through (events-1)/events canceled records.
// One op is a 2048-job fleet.
func BenchmarkChattyCancelStorm(b *testing.B) {
	const nJobs = 2048
	for _, q := range queueKinds {
		for _, events := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/events=%d", q.name, events), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := sim.NewEngine()
					e.SetQueue(q.kind)
					fired := 0
					act := stormStart{fired: &fired}
					rng := uint64(0x2545F4914F6CDD1D)
					for j := 0; j < nJobs; j++ {
						rng = xorshift64(rng)
						base := simtime.Time(rng % (7 * 1440))
						keep := int(rng % uint64(events))
						for k := 0; k < events; k++ {
							h := e.ScheduleAction(base.Add(simtime.Duration(k)*simtime.Hour),
								sim.PriorityStart, &act)
							if k != keep {
								e.Cancel(h)
							}
						}
					}
					e.Run()
					if fired != nJobs {
						b.Fatalf("fired %d starts, want %d", fired, nJobs)
					}
				}
				b.ReportMetric(float64(nJobs*events), "events/op")
			})
		}
	}
}

// BenchmarkEnginePaths runs the event-engine paths that schedule typed
// segment events rather than the start/finish jobState: Spot-RES (spot
// runs, evictions, reserved-first restarts), WaitAwhile suspend-resume
// plans, and checkpointed spot, each on a seeded 20k-job year. allocs/op
// is the headline: it must stay flat in the job count (pinned per run by
// core's TestEnginePathAllocsFlat).
func BenchmarkEnginePaths(b *testing.B) {
	const nJobs = 20_000
	year := carbon.RegionSAAU.GenerateYear(1)
	jobs := workload.AlibabaPAI().GenerateByCount(rand.New(rand.NewSource(1)), nJobs, 350*simtime.Day)
	reserved := int(math.Round(jobs.MeanDemand(350*simtime.Day) / 2))
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"spotres", core.Config{Policy: policy.CarbonTime{}, Carbon: year, Reserved: reserved, WorkConserving: true,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: 1}},
		{"waitawhile", core.Config{Policy: policy.WaitAwhile{}, Carbon: year, Reserved: reserved}},
		{"checkpoint", core.Config{Policy: policy.CarbonTime{}, Carbon: year, Reserved: reserved,
			SpotMaxLen: 6 * simtime.Hour, EvictionRate: 0.1, Seed: 2,
			CheckpointInterval: 30 * simtime.Minute, CheckpointOverhead: 3 * simtime.Minute}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := core.Run(c.cfg, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if r.JobCount() != nJobs {
					b.Fatalf("completed %d jobs", r.JobCount())
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/nJobs, "ns/job")
		})
	}
}
