package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// engineMixWorkload is the seeded runs that cannot take the direct path,
// each one call into core.Run or batch.Run: Spot-RES on a 200k-job year,
// WaitAwhile suspend-resume, the Greedy-Marginal elastic year, a DAG
// build plus a Critical-Path run, and the node-level prototype on a week.
// The timing wheel, spot eviction, elastic reallocation, DAG precedence and
// the prototype do the work here and none of it in year-sweep.
var engineMixWorkload = bench{
	name:  "engine-mix",
	setup: setupEngineMix,
}

type engineRunner struct {
	seed int64
	// Inputs, generated once from the seed.
	spotJobs, waitJobs, protoJobs *workload.Trace
	elastic                       *workload.ElasticTrace
	dagJobs                       []workload.Job
	dagEdges                      []workload.Edge
	spotReserved, waitReserved    int
	protoReserved                 int

	// first holds pass 0's digest of every run; later runs must match.
	first map[string][32]byte
	// Counts of the last run, for the traced report.
	evictions, nodesLaunched int
}

func setupEngineMix(cfg config, tr *tracer) (runner, error) {
	root := tr.root("engine-mix.setup")
	defer root.end()
	sz := cfg.size
	rng := func(k int64) *rand.Rand { return rand.New(rand.NewSource(cfg.seed*7919 + k)) }
	sp := tr.child(root, "workload.generate")
	r := &engineRunner{
		seed:      cfg.seed,
		spotJobs:  fixedProfile(workload.AlibabaPAI()).GenerateByCount(rng(1), sz.spotJobs, 350*simtime.Day),
		waitJobs:  fixedProfile(workload.AlibabaPAI()).GenerateByCount(rng(2), sz.waitJobs, 350*simtime.Day),
		protoJobs: fixedProfile(workload.AlibabaPAIWeek()).GenerateByCount(rng(5), sz.protoJobs, simtime.Week),
	}
	el := fixedProfile(workload.AlibabaPAI()).GenerateByCount(rng(3), sz.elasticJobs, 350*simtime.Day)
	r.dagJobs, r.dagEdges = pipelines(rng(4), sz.dagPipelines)
	sp.end()
	var err error
	if r.elastic, err = workload.NewElasticTrace("engine-mix-elastic", el.Jobs, elasticMix(el.Len()), nil); err != nil {
		return nil, err
	}
	r.spotReserved = int(math.Round(r.spotJobs.MeanDemand(350*simtime.Day) / 2))
	r.waitReserved = int(math.Round(r.waitJobs.MeanDemand(350*simtime.Day) / 3))
	r.protoReserved = int(math.Round(r.protoJobs.MeanDemand(simtime.Week) / 2))
	return r, nil
}

// fixedProfile draws a family's hourly arrival-rate profile (its load
// shape: bursts and quiet weeks) from one fixed seed, so every --seed
// schedules the same load shape and varies only the jobs drawn into it.
// With the profile drawn per seed, the queueing work of a run changed by
// ~15% from seed to seed.
func fixedProfile(f workload.Family) workload.Family {
	if rates := f.NewRates; rates != nil {
		f.NewRates = func(_ *rand.Rand, hours int) []float64 { return rates(rand.New(rand.NewSource(1)), hours) }
	}
	return f
}

// elasticMix is x09's mix: 40% rigid, 40% malleable up to 4 replicas, 20%
// preemptible malleable up to 2.
func elasticMix(n int) []workload.ElasticSpec {
	specs := make([]workload.ElasticSpec, n)
	for i := range specs {
		switch i % 5 {
		case 0, 1:
			specs[i] = workload.DegenerateSpec()
		case 2, 3:
			specs[i] = workload.ElasticSpec{MinReplicas: 1, MaxReplicas: 4, Curve: workload.AmdahlCurve(0.9, 4)}
		default:
			specs[i] = workload.ElasticSpec{MinReplicas: 0, MaxReplicas: 2, Curve: workload.AmdahlCurve(0.85, 2)}
		}
	}
	return specs
}

// pipelines builds n unbalanced diamond pipelines of five stages and six
// edges each, spread over a year, like x10's workload.
func pipelines(rng *rand.Rand, n int) ([]workload.Job, []workload.Edge) {
	jobs := make([]workload.Job, 0, 5*n)
	edges := make([]workload.Edge, 0, 6*n)
	for i := 0; i < n; i++ {
		arrival := simtime.Time(rng.Int63n(int64(340 * simtime.Day)))
		for _, st := range []struct {
			minutes, spread int64
			cpus            int
		}{{30, 60, 2}, {600, 240, 2}, {150, 90, 8}, {150, 90, 8}, {30, 60, 2}} {
			length := simtime.Duration(st.minutes+rng.Int63n(st.spread)) * simtime.Minute
			q := workload.QueueShort
			if length > 2*simtime.Hour {
				q = workload.QueueLong
			}
			jobs = append(jobs, workload.Job{Arrival: arrival, Length: length, CPUs: st.cpus, Queue: q})
		}
		b := 5 * i
		edges = append(edges,
			workload.Edge{Src: b, Dst: b + 1}, workload.Edge{Src: b, Dst: b + 2}, workload.Edge{Src: b, Dst: b + 3},
			workload.Edge{Src: b + 1, Dst: b + 4}, workload.Edge{Src: b + 2, Dst: b + 4}, workload.Edge{Src: b + 3, Dst: b + 4})
	}
	return jobs, edges
}

// pass runs every run twice. The cold set gets a freshly generated carbon
// trace, so the policies' lazily built oracle tables are built inside it;
// the warm set repeats the runs on the same trace. Each run's result must
// agree byte-for-byte across both sets and with pass 0.
func (r *engineRunner) pass(tr *tracer, rep *report, idx int) (coldCost, warmCost cost) {
	year := carbon.RegionSAAU.GenerateYear(r.seed)
	week := carbon.RegionSAAU.Generate(10*24, r.seed)
	cold := r.runAll(tr, rep, "engine-mix.cold", year, week)
	runtime.GC()
	w := r.runAll(tr, rep, "engine-mix.warm", year, week)
	if r.first == nil {
		r.first = cold.digests
	}
	for _, name := range cold.names {
		rep.op(checkDigest(name+" (cold pass vs pass 0)", r.first[name], cold.digests[name]))
		rep.op(checkDigest(name+" (warm pass vs pass 0)", r.first[name], w.digests[name]))
	}
	return cold.cost, w.cost
}

type runSet struct {
	cost    cost
	names   []string
	digests map[string][32]byte
}

func (r *engineRunner) runAll(tr *tracer, rep *report, name string, year, week *carbon.Trace) runSet {
	set := runSet{digests: map[string][32]byte{}}
	root := tr.root(name)
	defer root.end()
	// timed runs one call into a layer under a span; the pass's time is
	// the sum of these calls, not of the checks around them.
	timed := func(span string, f func()) {
		sp := tr.child(root, span)
		set.cost.time(f)
		sp.end()
	}
	record := func(run string, d [32]byte, err error) {
		rep.op(err)
		set.names = append(set.names, run)
		set.digests[run] = d
	}
	var res *metrics.Result
	var err error
	// recordCore checks and digests the core run just made.
	recordCore := func(run string, err error) {
		d, err := coreDigest(res, err)
		record(run, d, err)
	}

	timed("core.spotres", func() {
		res, err = core.Run(core.Config{
			Policy: policy.CarbonTime{}, Carbon: year, Reserved: r.spotReserved, WorkConserving: true,
			SpotMaxLen: 2 * simtime.Hour, EvictionRate: 0.05, Seed: r.seed,
		}, r.spotJobs)
	})
	if err = checkRun("spot-res", res, err, r.spotJobs.Len()); err == nil {
		r.evictions = res.TotalEvictions()
	}
	recordCore("spot-res", err)

	timed("core.waitawhile", func() {
		res, err = core.Run(core.Config{Policy: policy.WaitAwhile{}, Carbon: year, Reserved: r.waitReserved}, r.waitJobs)
	})
	recordCore("wait-awhile", checkRun("wait-awhile", res, err, r.waitJobs.Len()))

	timed("core.elastic", func() {
		res, err = core.Run(core.Config{
			Policy: policy.CarbonTime{}, Carbon: year, Reserved: 60, Elastic: r.elastic,
			Allocator: policy.GreedyMarginal{}, Horizon: simtime.Year,
		}, r.elastic.Jobs)
	})
	recordCore("elastic", checkRun("elastic", res, err, r.elastic.Len()))

	var dag *workload.ElasticTrace
	timed("workload.dag_build", func() {
		dag, err = workload.NewElasticTrace("engine-mix-dag", r.dagJobs, degenerate(len(r.dagJobs)), r.dagEdges)
	})
	if err == nil {
		timed("core.dag", func() {
			res, err = core.Run(core.Config{Policy: policy.CriticalPathShift{}, Carbon: year, Elastic: dag, Horizon: simtime.Year}, dag.Jobs)
		})
		err = checkRun("dag", res, err, len(r.dagJobs))
	}
	recordCore("dag", err)

	// batch.run spans both prototype runs; each run is a child span.
	proto := tr.child(root, "batch.run")
	r.nodesLaunched = 0
	for _, p := range []policy.Policy{policy.CarbonTime{}, policy.WaitAwhile{}} {
		var pres *batch.Result
		sp := tr.child(proto, "batch.run."+p.Name())
		set.cost.time(func() {
			pres, err = batch.Run(batch.Config{
				Policy: p, Carbon: week, ReservedNodes: r.protoReserved, Horizon: 10 * simtime.Day, Seed: r.seed,
			}, r.protoJobs)
		})
		sp.end()
		run := "prototype-" + p.Name()
		if err == nil {
			err = checkPrototype(run, pres, r.protoJobs.Len())
		}
		if err != nil {
			record(run, [32]byte{}, err)
			continue
		}
		r.nodesLaunched += pres.NodesLaunched
		record(run, prototypeDigest(pres), nil)
	}
	proto.end()
	return set
}

func degenerate(n int) []workload.ElasticSpec {
	specs := make([]workload.ElasticSpec, n)
	for i := range specs {
		specs[i] = workload.DegenerateSpec()
	}
	return specs
}

// coreDigest hashes a checked run's encoded accumulator.
func coreDigest(res *metrics.Result, err error) ([32]byte, error) {
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(encodeResult(res)), nil
}

// checkPrototype requires every prototype job to have completed.
func checkPrototype(what string, res *batch.Result, want int) error {
	if len(res.Jobs) != want {
		return fmt.Errorf("%s returned %d of %d jobs", what, len(res.Jobs), want)
	}
	for _, j := range res.Jobs {
		if j.State != batch.Completed {
			return fmt.Errorf("%s: job %d ended %v", what, j.Spec.ID, j.State)
		}
	}
	return nil
}

// prototypeDigest hashes a prototype run's bill, emissions, fleet churn
// and every job's timeline.
func prototypeDigest(res *batch.Result) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%x %x %d\n", math.Float64bits(res.Cost), math.Float64bits(res.CarbonG), res.NodesLaunched)
	for _, j := range res.Jobs {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", j.Spec.ID, j.Submit, j.Start, j.End, j.Attempts, j.State)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func checkDigest(what string, want, got [32]byte) error {
	if want != got {
		return fmt.Errorf("%s: result differs", what)
	}
	return nil
}

func (r *engineRunner) finish(spans []span, rep *report) {
	for _, m := range []string{"core.spotres", "core.waitawhile", "core.elastic", "workload.dag_build", "core.dag", "batch.run"} {
		rep.spanMetric(spans, m, m+"_ms", "ms")
	}
	rep.setLayer("cloud.evictions", float64(r.evictions), "count")
	rep.setLayer("batch.nodes_launched", float64(r.nodesLaunched), "count")
}

func (r *engineRunner) close() {}
