package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig01", "fig02", "fig05", "fig06", "fig07", "fig08", "fig09",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20",
		"x01-forecast", "x02-estimates", "x03-suspend", "x04-prototype",
		"x05-checkpoint", "x06-spatial", "x07-carbontax", "x08-scaling",
		"x09-elastic", "x10-dag",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig08")
	if err != nil || e.ID != "fig08" {
		t.Errorf("ByID = %+v, %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names broken")
	}
}

// TestAllExperimentsRunQuick executes every figure at Quick scale and
// sanity-checks the output. This doubles as the integration test of the
// whole stack (policies × cloud options × accounting).
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			s := out.String()
			if len(s) < 50 {
				t.Fatalf("%s output suspiciously short:\n%s", e.ID, s)
			}
			if !strings.Contains(s, "Figure") && !strings.Contains(s, "Extension") {
				t.Errorf("%s output lacks a title", e.ID)
			}
		})
	}
}
