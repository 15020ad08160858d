//go:build go1.24

package workload

import (
	"runtime"
	"testing"
	"weak"

	"github.com/carbonsched/gaia/internal/simtime"
)

// TestFingerprintedTracesAreCollected pins that fingerprint memos live on
// the traces themselves: a fingerprinted Trace or ElasticTrace must be
// garbage once its last reference drops. A process-wide memo keyed by
// pointer would keep every fingerprinted trace — each degenerate wrap a
// cached run fingerprints included — alive for the process lifetime.
func TestFingerprintedTracesAreCollected(t *testing.T) {
	tr := MustTrace("gc", []Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: 30, Length: 2 * simtime.Hour, CPUs: 2},
	})
	et := Degenerate(tr)
	et.Fingerprint() // fingerprints tr too
	wtr, wet := weak.Make(tr), weak.Make(et)
	tr, et = nil, nil
	runtime.GC()
	if wtr.Value() != nil {
		t.Error("fingerprinted Trace survived a GC with no references")
	}
	if wet.Value() != nil {
		t.Error("fingerprinted ElasticTrace survived a GC with no references")
	}
}
