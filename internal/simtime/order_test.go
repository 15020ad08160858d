package simtime

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceOrder is StableOrder's specification: the indices stably
// sorted by key with the standard library's stable comparison sort.
func referenceOrder(keys []Time) []int32 {
	ord := make([]int32, len(keys))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] < keys[ord[b]] })
	return ord
}

// checkOrder compares StableOrder against the reference, once with a
// fresh scratch buffer and once with a reused, dirty one.
func checkOrder(t *testing.T, keys []Time, dirty *[]int32) {
	t.Helper()
	want := referenceOrder(keys)
	got := StableOrder(nil, new([]int32), keys)
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("StableOrder(%d keys) = %v, want %v", len(keys), head(got), head(want))
	}
	got = StableOrder(make([]int32, 3, len(keys)+3), dirty, keys)
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("StableOrder with reused scratch (%d keys) = %v, want %v", len(keys), head(got), head(want))
	}
}

func head(o []int32) []int32 {
	if len(o) > 16 {
		return o[:16]
	}
	return o
}

// fuzzKeys decodes data into keys: each 16-bit word w becomes
// lo + w<<shift (wrapping in int64), except that 0xFFFF and 0xFFFE map to
// the int64 extremes. shift spans counting-sort widths (0), both sides of
// the max(8n, 65536) threshold, and radix widths of one to four passes.
func fuzzKeys(data []byte, lo int64, shift uint8) []Time {
	keys := make([]Time, len(data)/2)
	for i := range keys {
		w := binary.LittleEndian.Uint16(data[2*i:])
		switch w {
		case 0xFFFF:
			keys[i] = math.MaxInt64
		case 0xFFFE:
			keys[i] = math.MinInt64
		default:
			keys[i] = Time(uint64(lo) + uint64(w)<<(shift%49))
		}
	}
	return keys
}

func FuzzStableOrder(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	words := func(n int, mod uint16) []byte {
		b := make([]byte, 2*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(rnd.Intn(int(mod))))
		}
		return b
	}
	f.Add([]byte{}, int64(0), uint8(0))                         // n = 0
	f.Add([]byte{7, 0}, int64(5), uint8(0))                     // n = 1
	f.Add([]byte{9, 0, 3, 0}, int64(0), uint8(0))               // n = 2, descending
	f.Add([]byte{3, 0, 3, 0}, int64(0), uint8(40))              // n = 2, equal
	f.Add(words(500, 4), int64(100), uint8(0))                  // many duplicates
	f.Add(words(500, 4), int64(100), uint8(30))                 // duplicates, radix width
	f.Add(words(4000, 0xFFFE), int64(0), uint8(0))              // span < 65536: counting
	f.Add(words(4000, 0xFFFE), int64(0), uint8(3))              // span ~ 8n: just over the threshold
	f.Add(words(10000, 0xFFFE), int64(0), uint8(1))             // span < 8n: counting above 65536
	f.Add(words(10000, 0xFFFE), int64(0), uint8(4))             // span > 8n: radix, two passes
	f.Add(words(300, 0xFFFE), int64(-1<<40), uint8(20))         // radix, several 9-bit passes
	f.Add(words(2000, 0xFFFE), int64(math.MinInt64), uint8(48)) // full 64-bit span, four passes
	f.Add([]byte{0xFF, 0xFF, 0xFE, 0xFF, 0, 0, 0xFF, 0xFF, 0xFE, 0xFF}, int64(0), uint8(0))
	f.Add(append(words(600, 0xFFFE), 0xFF, 0xFF, 0xFE, 0xFF), int64(math.MaxInt64-1<<20), uint8(10))
	dirty := new([]int32)
	f.Fuzz(func(t *testing.T, data []byte, lo int64, shift uint8) {
		if len(data) > 1<<16 {
			return
		}
		checkOrder(t, fuzzKeys(data, lo, shift), dirty)
		// Leave garbage behind so the next input starts from a dirty
		// scratch buffer.
		for i := range *dirty {
			(*dirty)[i] = int32(i * 7)
		}
	})
}

func TestStableOrderExtremes(t *testing.T) {
	keys := []Time{math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, math.MinInt64, 1}
	want := []int32{2, 5, 3, 1, 6, 0, 4}
	if got := StableOrder(nil, new([]int32), keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("StableOrder(%v) = %v, want %v", keys, got, want)
	}
}

// TestStableOrderDigitWidth covers the radix digit sizing across n: from
// clamped 8-bit digits on tiny inputs to 16-bit digits on large ones, with
// one to four passes, every width orders exactly like the reference.
func TestStableOrderDigitWidth(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	dirty := new([]int32)
	for _, n := range []int{3, 200, 4500, 70000} {
		for _, span := range []int64{1 << 17, 87_000, 1 << 33, math.MaxInt64} {
			keys := make([]Time, n)
			for i := range keys {
				keys[i] = Time(rnd.Int63n(span))
			}
			checkOrder(t, keys, dirty)
		}
	}
}

func BenchmarkStableOrder(b *testing.B) {
	// The direct path's typical fallback input: ~4,500 endpoints over a
	// quick-scale year (~87k minutes), too sparse for one counting sort.
	rnd := rand.New(rand.NewSource(3))
	keys := make([]Time, 4500)
	for i := range keys {
		keys[i] = Time(rnd.Int63n(87_000))
	}
	ord, scratch := make([]int32, len(keys)), new([]int32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ord = StableOrder(ord, scratch, keys)
	}
}
