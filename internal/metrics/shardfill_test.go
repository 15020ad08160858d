package metrics

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// TestShardedFillMatchesAddJob pins the sharded-fill decomposition: a
// concurrent PutJob/PutCost/UsageShard fill merged by MergeUsage plus a
// sequential AddCPUHours fold must be byte-identical to the classic
// AddJob+AddUsage stream over the same jobs in the same finish order.
func TestShardedFillMatchesAddJob(t *testing.T) {
	const n = 1000
	horizon := 24 * simtime.Hour
	rnd := rand.New(rand.NewSource(7))
	recs := make([]JobResult, n)
	for i := range recs {
		start := simtime.Time(rnd.Int63n(int64(horizon)))
		length := simtime.Duration(1 + rnd.Int63n(int64(10*simtime.Hour)))
		cpus := 1 + rnd.Intn(8)
		res := rnd.Intn(cpus + 1)
		hours := simtime.Interval{Start: start, End: start.Add(length)}.Len().Hours()
		recs[i] = JobResult{
			JobID:          i,
			Queue:          workload.Queue(rnd.Intn(2)),
			CPUs:           cpus,
			Length:         length,
			Arrival:        start - simtime.Time(rnd.Int63n(120)),
			Start:          start,
			Finish:         start.Add(length),
			Waiting:        simtime.Duration(rnd.Int63n(120)),
			Carbon:         rnd.Float64() * 10,
			BaselineCarbon: rnd.Float64() * 10,
			UsageCost:      rnd.Float64() * 5,
			CPUHours: [3]float64{
				float64(res) * hours,
				float64(cpus-res) * hours,
				0,
			},
			Segments: []Segment{{
				Interval: simtime.Interval{Start: start, End: start.Add(length)},
				Reserved: res,
				OnDemand: cpus - res,
			}},
		}
	}
	// The engine folds jobs in finish order, not ID order.
	finishOrder := rnd.Perm(n)

	seq := NewAccumulator(n, horizon)
	for _, i := range finishOrder {
		rec := &recs[i]
		seq.AddJob(rec)
		seg := rec.Segments[0]
		seq.AddUsage(seg.Interval, seg.Reserved, seg.OnDemand, 0)
	}

	shard := NewAccumulator(n, horizon)
	// Pre-grow to the maximum end the sharded fill will bin, as the direct
	// path does before fanning out.
	maxEnd := simtime.Time(0)
	for i := range recs {
		if recs[i].Finish > maxEnd {
			maxEnd = recs[i].Finish
		}
	}
	shard.GrowUsage(maxEnd)
	const workers = 4
	usage := shard.ShardUsage(nil, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				rec := &recs[i]
				shard.PutJob(i, rec.Waiting, rec.Length, rec.Carbon, rec.BaselineCarbon, rec.Queue)
				shard.PutCost(i, rec.UsageCost)
				seg := rec.Segments[0]
				usage[w].Add(seg.Interval, seg.Reserved, seg.OnDemand)
			}
		}()
	}
	wg.Wait()
	shard.MergeUsage(usage)
	for _, i := range finishOrder {
		shard.AddCPUHours(recs[i].CPUHours)
	}

	sb, hb := EncodeAccumulator(seq), EncodeAccumulator(shard)
	if !bytes.Equal(sb, hb) {
		t.Error("sharded fill does not match sequential AddJob stream byte for byte")
	}
}

// TestUsageShardPastHorizonPanics pins the contract that a usage shard
// refuses to bin past the pre-grown bins instead of silently dropping
// usage (shards cannot resize the bins they share).
func TestUsageShardPastHorizonPanics(t *testing.T) {
	a := NewAccumulator(1, simtime.Hour)
	a.GrowUsage(simtime.Time(2 * simtime.Hour))
	shards := a.ShardUsage(nil, 2)
	shards[1].Add(simtime.Interval{Start: 0, End: simtime.Time(2 * simtime.Hour)}, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("UsageShard.Add past the grown horizon did not panic")
		}
	}()
	shards[1].Add(simtime.Interval{
		Start: simtime.Time(2 * simtime.Hour),
		End:   simtime.Time(3 * simtime.Hour),
	}, 1, 0)
}

// FuzzUsageShards checks the O(1)-per-interval shard binning against the
// sequential AddUsage reference: a handful of intervals derived from the
// input, spread across k shards and merged, must leave bins equal to the
// same intervals binned one by one. A second fill reuses the shard
// columns (ShardUsage must re-zero them) on top of bins that already hold
// the first interval (ShardUsage must keep that usage).
func FuzzUsageShards(f *testing.F) {
	h := int64(simtime.Hour)
	add := func(k uint8, ivs ...int64) {
		var b []byte
		b = append(b, k)
		for _, v := range ivs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		f.Add(b)
	}
	// Each interval is (start, end, reserved, onDemand).
	add(1, 0, h, 1, 0)                                  // exactly one hour
	add(2, h, 2*h, 3, 2, 2*h, 5*h, 0, 4)                // exact hour boundaries
	add(3, -90, 150, 2, 1, -h, 0, 1, 1)                 // negative start; clamped-empty
	add(2, 30, 30, 5, 5, 90, 40, 1, 1)                  // empty and inverted intervals
	add(4, 10, 50, 1, 2, 59, 61, 3, 0, 61, 119, 0, 1)   // within and across one boundary
	add(3, 17, 3*7*24*h+13, 2, 5, 45, 2*7*24*h, 1, 0)   // multi-week spans
	add(2, 0, 10*h, 0, 0, 5, 4*h+5, 0, 3, 7, 8*h, 4, 0) // zero units
	add(1)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%5
		data = data[1:]
		type span struct {
			iv          simtime.Interval
			reserved, o int
		}
		var spans []span
		for len(data) >= 32 && len(spans) < 64 {
			v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[8*i:])) }
			// Bound times to six weeks either side of zero and units to
			// small counts, so the bins stay a few thousand long.
			const span6w = 6 * 7 * 24 * 60
			s, e := v(0)%span6w, v(1)%span6w
			spans = append(spans, span{
				iv:       simtime.Interval{Start: simtime.Time(s), End: simtime.Time(e)},
				reserved: int(uint64(v(2)) % 64),
				o:        int(uint64(v(3)) % 64),
			})
			data = data[32:]
		}

		ref := NewAccumulator(0, 0)
		maxEnd := simtime.Time(0)
		for _, sp := range spans {
			ref.AddUsage(sp.iv, sp.reserved, sp.o, 0)
			// Only a non-empty interval grows AddUsage's bins.
			if max(sp.iv.Start, 0) < sp.iv.End && sp.iv.End > maxEnd {
				maxEnd = sp.iv.End
			}
		}
		var buf []UsageShard
		for round := 0; round < 2; round++ {
			got := NewAccumulator(0, 0)
			sharded := spans
			if round == 1 && len(spans) > 0 {
				got.AddUsage(spans[0].iv, spans[0].reserved, spans[0].o, 0)
				sharded = spans[1:]
			}
			got.GrowUsage(maxEnd)
			buf = got.ShardUsage(buf, k)
			for i, sp := range sharded {
				buf[i%k].Add(sp.iv, sp.reserved, sp.o)
			}
			got.MergeUsage(buf)
			for o := range ref.usage {
				if !slices.Equal(got.usage[o], ref.usage[o]) {
					t.Fatalf("round %d, %d shards, option %d: merged bins %v, sequential %v",
						round, k, o, got.usage[o], ref.usage[o])
				}
			}
		}
	})
}

// TestGrowUsageMatchesOnDemandGrowth pins GrowUsage's growth rule against
// AddUsage's incremental rule: pre-growing to an end and binning nothing
// must leave the same bin count as binning an interval reaching that end.
func TestGrowUsageMatchesOnDemandGrowth(t *testing.T) {
	for _, end := range []simtime.Time{1, 59, 60, 61, 600, 3601} {
		grown := NewAccumulator(0, 0)
		grown.GrowUsage(end)
		incr := NewAccumulator(0, 0)
		incr.AddUsage(simtime.Interval{Start: 0, End: end}, 1, 0, 0)
		// Bin counts must match; contents differ (incr actually binned).
		for o := range grown.usage {
			if g, i := len(grown.usage[o]), len(incr.usage[o]); g != i {
				t.Errorf("end %d option %d: GrowUsage made %d bins, AddUsage %d", end, o, g, i)
			}
		}
	}
}
