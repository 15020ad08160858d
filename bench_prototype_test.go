package gaia

// Prototype-runtime benchmark: the node-level batch system over the
// elastic cluster manager (internal/batch + internal/cluster) at the
// engine-mix workload's size, so the node bookkeeping behind every claim
// and launch has a benchmark of its own.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// BenchmarkPrototype runs a 1200-job Alibaba week on the prototype with
// half the mean demand reserved, once per policy: Carbon-Time (one
// release per job) and WaitAwhile (suspend-resume segments, so more
// releases and more elastic churn). nodes_launched is the elastic fleet
// churn, the quantity the node bookkeeping scales with.
func BenchmarkPrototype(b *testing.B) {
	jobs := workload.AlibabaPAIWeek().GenerateByCount(rand.New(rand.NewSource(5)), 1200, simtime.Week)
	week := carbon.RegionSAAU.Generate(10*24, 1)
	reserved := int(math.Round(jobs.MeanDemand(simtime.Week) / 2))
	for _, p := range []policy.Policy{policy.CarbonTime{}, policy.WaitAwhile{}} {
		cfg := batch.Config{Policy: p, Carbon: week, ReservedNodes: reserved, Horizon: 10 * simtime.Day, Seed: 1}
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var res *batch.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = batch.Run(cfg, jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.NodesLaunched), "nodes_launched")
		})
	}
}
