package experiments

// Shape guards for the extension results, mirroring shapes_test.go.

import (
	"math"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/scaling"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// Checkpointing must reduce eviction waste versus full progress loss at
// the same eviction rate (x05).
func TestShapeCheckpointReducesWaste(t *testing.T) {
	tr, err := prototypeCarbon()
	if err != nil {
		t.Fatal(err)
	}
	run := func(ckpt simtime.Duration) float64 {
		cfg := core.Config{
			Policy:             policy.CarbonTime{},
			Carbon:             tr,
			Horizon:            10 * simtime.Day,
			SpotMaxLen:         12 * simtime.Hour,
			EvictionRate:       0.15,
			Seed:               seedEviction,
			CheckpointInterval: ckpt,
			CheckpointOverhead: 3 * simtime.Minute,
		}
		res, err := core.Run(cfg, prototypeWeek())
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalWastedCPUHours()
	}
	none := run(0)
	ckpt := run(30 * simtime.Minute)
	if ckpt >= none {
		t.Errorf("30m checkpointing waste %v should beat none %v", ckpt, none)
	}
	if none == 0 {
		t.Error("15% eviction should produce some waste")
	}
}

// The carbon-tax sweep must be monotone: higher taxes never yield more
// carbon from the cost-only scheduler (x07).
func TestShapeCarbonTaxMonotone(t *testing.T) {
	hours := 24 * 30
	ci, price := carbon.DefaultERCOTModel().Generate(hours+7*24, seedCarbon+100)
	jobs := prototypeWeek()
	prev := math.Inf(1)
	for _, tax := range []float64{0, 100, 500, 5000} {
		tariff := make([]float64, hours)
		for i := range tariff {
			p := price.At(simtime.Time(simtime.Duration(i) * simtime.Hour))
			if p < 0 {
				p = 0
			}
			tariff[i] = p + tax*ci.Value(i)/1000
		}
		res, err := core.Run(core.Config{
			Policy:  policy.LowestWindow{},
			Carbon:  ci,
			CIS:     carbon.NewPerfectService(carbon.MustTrace("tariff", tariff)),
			Horizon: simtime.Duration(hours) * simtime.Hour,
		}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		c := res.TotalCarbon()
		// Allow tiny non-monotonicity from tie-breaking.
		if c > prev*1.01 {
			t.Errorf("carbon rose with tax %v: %v > %v", tax, c, prev)
		}
		if c < prev {
			prev = c
		}
	}
}

// Scaling dominance (x08): with a linear curve the scaler is never
// dirtier than unit-width suspend-resume over the same deadline.
func TestShapeScalingDominatesNarrow(t *testing.T) {
	tr := regionTrace("SA-AU")
	cis := carbon.NewPerfectService(tr)
	const kw = 0.01
	for i := 0; i < 10; i++ {
		job := scaling.ElasticJob{
			Arrival:     simtime.Time(simtime.Duration(i*13) * simtime.Hour),
			Work:        6,
			MaxParallel: 8,
			Curve:       workload.ScaleCurve{1, 1, 1, 1, 1, 1, 1, 1},
			Deadline:    48 * simtime.Hour,
		}
		wide, err := scaling.PlanJob(job, cis)
		if err != nil {
			t.Fatal(err)
		}
		narrowJob := job
		narrowJob.MaxParallel = 1
		narrow, err := scaling.PlanJob(narrowJob, cis)
		if err != nil {
			t.Fatal(err)
		}
		if wide.Carbon(tr, kw) > narrow.Carbon(tr, kw)+1e-9 {
			t.Errorf("arrival %v: wide plan dirtier than narrow", job.Arrival)
		}
	}
}
