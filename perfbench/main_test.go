package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/batch"
	"github.com/carbonsched/gaia/internal/experiments"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs the benchmark at tiny sizes and returns its result line.
func runTiny(t *testing.T, args ...string) result {
	t.Helper()
	dir := t.TempDir()
	args = append(args, "--seconds", "0.01", "--root", "..", "--work-dir", dir+"/work", "--span-dir", dir+"/spans")
	var stdout, stderr bytes.Buffer
	if code := run(args, tinySize(), &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "env {") {
		t.Errorf("first line %q is not the environment stamp", lines[0])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%v: correct=%v failed=%d attempted=%d\n%s", args, res.Correct, res.Failed, res.Attempted, stdout.String())
	}
	return res
}

func TestEveryEndToEndMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads()))
	}
	for _, w := range spec.Workloads {
		res := runTiny(t, "--workload", w.Name, "--seed", "3", "--trace", "0")
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s printed %d metrics, BENCHMARK.json names %d", w.Name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestEveryPerLayerMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	res := runTiny(t, "--workload", "suite", "--seed", "3", "--trace", "1")
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, tinySize(), &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

type jobCount int

func (n jobCount) JobCount() int { return int(n) }

// TestChecksFire corrupts each kind of output the benchmark checks and
// requires the check to report it.
func TestChecksFire(t *testing.T) {
	e, err := experiments.ByID("fig07")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(experiments.Quick)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if err := checkFigure("fig07", text); err != nil {
		t.Fatalf("true figure rejected: %v", err)
	}
	corrupt := []byte(text)
	corrupt[len(corrupt)/2] ^= 1
	simA := `{"label":"CarbonTime","jobs":50,"carbon_kg":1.5,"cache_outcome":"computed","coalesced":false}`
	simB := `{"label":"CarbonTime","jobs":50,"carbon_kg":1.5,"cache_outcome":"hit","coalesced":true}`
	simBad := `{"label":"CarbonTime","jobs":50,"carbon_kg":1.6,"cache_outcome":"hit","coalesced":false}`
	canonA, _, errA := canonicalSimulate([]byte(simA))
	canonB, _, errB := canonicalSimulate([]byte(simB))
	canonBad, _, errBad := canonicalSimulate([]byte(simBad))
	if err := errors.Join(errA, errB, errBad, checkSimulateRepeat(canonA, canonB)); err != nil {
		t.Fatalf("true simulate repeat rejected: %v", err)
	}
	bytesA := []byte("accumulator bytes")
	bytesB := []byte("accumulator bytez")
	protoJobs := []*batch.Job{{State: batch.Completed}, {State: batch.Requeued}}
	sched := request{class: classBatch, body: []byte(`{"jobs":[{"length_minutes":1},{"length_minutes":2}]}`)}
	var srv serveRunner
	srv.simCanon = map[string]string{}

	for name, err := range map[string]error{
		"figure text":           checkFigure("fig07", string(corrupt)),
		"unpinned figure":       checkFigure("fig99", text),
		"warm figure":           checkWarmFigure("fig07", text, string(corrupt)),
		"cache counts":          checkCounts(experiments.CellStats{Hits: 3}, experiments.CellStats{Hits: 2, Computed: 1}),
		"run error":             checkRun("cell", jobCount(5), errors.New("boom"), 5),
		"dropped jobs":          checkRun("cell", jobCount(4), nil, 5),
		"encoded bytes":         checkSameBytes("cell", bytesA, bytesB),
		"encoded sum":           checkSameSum("cell", sumOf(bytesA), sumOf(bytesB)),
		"pass digest":           checkDigest("run", [32]byte{1}, [32]byte{2}),
		"prototype job":         checkPrototype("proto", &batch.Result{Jobs: protoJobs}, 2),
		"prototype count":       checkPrototype("proto", &batch.Result{Jobs: protoJobs[:1]}, 2),
		"batch lines":           checkBatchBody([]byte("{}\n"), 2),
		"batch parse":           checkBatchBody([]byte("{}\n{\n"), 2),
		"simulate repeat":       checkSimulateRepeat(canonA, canonBad),
		"simulate parse":        srv.checkResponse(request{class: classSimulate}, 200, []byte("{")),
		"simulate fields":       srv.checkResponse(request{class: classSimulate}, 200, []byte(`{"label":"x"}`)),
		"advise parse":          srv.checkResponse(request{class: classAdvise}, 200, []byte(`{"policy":`)),
		"shed response":         srv.checkResponse(request{class: classAdvise}, 429, []byte(`{}`)),
		"batch response":        srv.checkResponse(sched, 200, []byte("{}\n")),
		"too few percentile":    func() error { _, err := percentile(make([]float64, 50), 0.9); return err }(),
		"too few at p99 of 999": func() error { _, err := percentile(make([]float64, 999), 0.99); return err }(),
	} {
		if err == nil {
			t.Errorf("%s: corrupted output passed its check", name)
		}
	}
	if _, err := percentile(make([]float64, 1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples has ten beyond it: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 80, End: 90},
	}
	if got := selfTimes(spans)[1]; got != 50 {
		t.Fatalf("self time %v, want 50ns (100 minus children covering 10-50 and 80-90)", got)
	}
}
