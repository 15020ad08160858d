package workload

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

func TestScaleCurveValidate(t *testing.T) {
	cases := []struct {
		name  string
		curve ScaleCurve
		ok    bool
	}{
		{"flat", ScaleCurve{1}, true},
		{"diminishing", ScaleCurve{1, 0.8, 0.5}, true},
		{"constant", ScaleCurve{1, 1, 1}, true},
		{"empty", ScaleCurve{}, false},
		{"base-not-one", ScaleCurve{0.9}, false},
		{"rising", ScaleCurve{1, 0.5, 0.8}, false},
		{"zero-marginal", ScaleCurve{1, 0}, false},
		{"negative", ScaleCurve{1, -0.1}, false},
		{"nan", ScaleCurve{1, math.NaN()}, false},
		{"inf", ScaleCurve{1, math.Inf(1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.curve.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestScaleCurveThroughput(t *testing.T) {
	c := ScaleCurve{1, 0.8, 0.5}
	for k, want := range map[int]float64{0: 0, 1: 1, 2: 1.8, 3: 2.3, 99: 2.3} {
		if got := c.Throughput(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("Throughput(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestAmdahlCurveValidates(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		c := AmdahlCurve(p, 8)
		if err := c.Validate(); err != nil {
			t.Errorf("AmdahlCurve(%v, 8): %v", p, err)
		}
		// Throughput at k replicas must equal Amdahl speedup S(k).
		s4 := 1 / ((1 - p) + p/4)
		if got := c.Throughput(4); math.Abs(got-s4) > 1e-9 {
			t.Errorf("AmdahlCurve(%v).Throughput(4) = %v, want %v", p, got, s4)
		}
	}
}

// TestAmdahlCurveShape checks the speedup law itself: S(0) = 0,
// S(1) = 1, strictly increasing, concave, and bounded by 1/(1−p).
func TestAmdahlCurveShape(t *testing.T) {
	c := AmdahlCurve(0.9, 64)
	if c.Throughput(1) != 1 {
		t.Errorf("s(1) = %v", c.Throughput(1))
	}
	if c.Throughput(0) != 0 {
		t.Errorf("s(0) = %v", c.Throughput(0))
	}
	// Monotone, concave, bounded by 1/(1-p) = 10.
	prev, prevDelta := 1.0, math.Inf(1)
	for k := 2; k <= 64; k++ {
		s := c.Throughput(k)
		if s <= prev {
			t.Fatalf("not monotone at k=%d", k)
		}
		delta := s - prev
		if delta > prevDelta+1e-12 {
			t.Fatalf("not concave at k=%d", k)
		}
		prev, prevDelta = s, delta
	}
	if prev >= 10 {
		t.Errorf("speedup should stay below 1/(1-p)=10, got %v", prev)
	}
	linear := ScaleCurve{1, 1, 1, 1, 1, 1, 1}
	if linear.Throughput(7) != 7 || linear.Throughput(-1) != 0 {
		t.Error("linear curve broken")
	}
}

func TestElasticSpecValidate(t *testing.T) {
	good := ElasticSpec{MinReplicas: 1, MaxReplicas: 2, Curve: ScaleCurve{1, 0.7}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ElasticSpec{
		{MinReplicas: -1, MaxReplicas: 1, Curve: ScaleCurve{1}},
		{MinReplicas: 0, MaxReplicas: 0, Curve: ScaleCurve{1}},
		{MinReplicas: 3, MaxReplicas: 2, Curve: ScaleCurve{1, 0.5, 0.5}},
		{MinReplicas: 1, MaxReplicas: 4, Curve: ScaleCurve{1, 0.5}}, // curve too short
	}
	for i, sp := range bad {
		if sp.Validate() == nil {
			t.Errorf("spec %d validated: %+v", i, sp)
		}
	}
	if !DegenerateSpec().Degenerate() {
		t.Error("DegenerateSpec is not degenerate")
	}
	if err := DegenerateSpec().Validate(); err != nil {
		t.Error(err)
	}
}

// elasticJobs returns n unit jobs with ascending arrivals (so normalized
// IDs equal input positions).
func elasticJobs(n int, length simtime.Duration) []Job {
	js := make([]Job, n)
	for i := range js {
		js[i] = Job{Arrival: simtime.Time(i), Length: length, CPUs: 1}
	}
	return js
}

func degenerateSpecs(n int) []ElasticSpec {
	sp := make([]ElasticSpec, n)
	for i := range sp {
		sp[i] = DegenerateSpec()
	}
	return sp
}

func TestNewElasticTraceRenumbers(t *testing.T) {
	// Jobs out of arrival order: specs and edges follow the stable sort.
	jobs := []Job{
		{Arrival: 100, Length: 60, CPUs: 1},
		{Arrival: 0, Length: 30, CPUs: 2},
	}
	specs := []ElasticSpec{
		{MinReplicas: 1, MaxReplicas: 4, Curve: ScaleCurve{1, 1, 1, 1}},
		DegenerateSpec(),
	}
	et, err := NewElasticTrace("re", jobs, specs, []Edge{{Src: 1, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if et.Jobs.Jobs[0].Arrival != 0 || et.Jobs.Jobs[0].CPUs != 2 {
		t.Fatalf("job 0 = %+v, want the arrival-0 job", et.Jobs.Jobs[0])
	}
	if et.Spec(1).MaxReplicas != 4 {
		t.Errorf("spec did not follow its job through renumbering: %+v", et.Spec(1))
	}
	if len(et.Edges) != 1 || et.Edges[0] != (Edge{Src: 0, Dst: 1}) {
		t.Errorf("edge not remapped: %+v", et.Edges)
	}
	// Both endpoints are managed (on the DAG) despite one degenerate spec.
	if !et.Managed(0) || !et.Managed(1) || et.ManagedCount() != 2 {
		t.Errorf("managed = %v/%v, count %d", et.Managed(0), et.Managed(1), et.ManagedCount())
	}
}

func TestNewElasticTraceRejections(t *testing.T) {
	jobs := elasticJobs(3, 60)
	specs := degenerateSpecs(3)
	cases := []struct {
		name  string
		edges []Edge
		want  string
	}{
		{"self-edge", []Edge{{Src: 1, Dst: 1}}, "self-edge on job 1"},
		{"out-of-range", []Edge{{Src: 0, Dst: 7}}, "outside 0..2"},
		{"negative", []Edge{{Src: -1, Dst: 0}}, "outside 0..2"},
		{"duplicate", []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}, "duplicate edge 0→1"},
		{"cycle", []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, "precedence cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewElasticTrace("bad", jobs, specs, tc.edges)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
	if _, err := NewElasticTrace("bad", jobs, specs[:2], nil); err == nil {
		t.Error("mismatched spec count accepted")
	}
}

func TestCycleErrorNamesCycleVertex(t *testing.T) {
	// Cycle 1→2→3→1 with job 4 downstream of it: the named vertex must be
	// on the cycle itself, never the merely-unreachable job 4.
	jobs := elasticJobs(5, 60)
	edges := []Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1}, {Src: 3, Dst: 4}}
	_, err := NewElasticTrace("cyc", jobs, degenerateSpecs(5), edges)
	if err == nil {
		t.Fatal("cycle accepted")
	}
	id := namedJob(t, err.Error())
	if id != 1 && id != 2 && id != 3 {
		t.Errorf("cycle error names job %d, not on the cycle {1,2,3}: %v", id, err)
	}
}

// namedJob extracts the job ID from a "precedence cycle through job N"
// error message.
func namedJob(t *testing.T, msg string) int {
	t.Helper()
	const marker = "cycle through job "
	i := strings.Index(msg, marker)
	if i < 0 {
		t.Fatalf("error does not name a job: %q", msg)
	}
	id, err := strconv.Atoi(strings.TrimSpace(msg[i+len(marker):]))
	if err != nil {
		t.Fatalf("unparseable job id in %q: %v", msg, err)
	}
	return id
}

func TestCriticalPathHandChecked(t *testing.T) {
	// A(len 1h) → C(len 30m) ← B(len 2h), all arriving at 0.
	jobs := []Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: 2 * simtime.Hour, CPUs: 1},
		{Arrival: 0, Length: 30 * simtime.Minute, CPUs: 1},
	}
	et, err := NewElasticTrace("cpm", jobs, degenerateSpecs(3), []Edge{
		{Src: 0, Dst: 2}, {Src: 1, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// B then C is the critical chain: 2h + 30m.
	if got := et.CriticalPathLength(); got != 150*simtime.Minute {
		t.Errorf("critical path = %v, want 150", got)
	}
	// A may slip an hour (B's EF 120 − A's EF 60); B and C have none.
	wantSlack := map[int]simtime.Duration{0: simtime.Hour, 1: 0, 2: 0}
	for id, want := range wantSlack {
		got, ok := et.Slack(id)
		if !ok || got != want {
			t.Errorf("Slack(%d) = %v,%v, want %v,true", id, got, ok, want)
		}
	}
	if _, ok := Degenerate(et.Jobs).Slack(0); ok {
		t.Error("edge-free job reported slack")
	}
}

func TestDisjointComponentsSlackIndependently(t *testing.T) {
	// Two unconnected chains; the shorter one's sink must have zero slack
	// against its own makespan, not borrow the longer chain's.
	jobs := elasticJobs(4, simtime.Hour)
	jobs[2].Length = 5 * simtime.Hour
	et, err := NewElasticTrace("comp", jobs, degenerateSpecs(4), []Edge{
		{Src: 0, Dst: 1}, {Src: 2, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if s, ok := et.Slack(id); !ok || s != 0 {
			t.Errorf("Slack(%d) = %v,%v, want 0,true (every chain job is critical)", id, s, ok)
		}
	}
}

func TestDegenerateWrapSharesTrace(t *testing.T) {
	tr := MustTrace("base", elasticJobs(10, simtime.Hour))
	et := Degenerate(tr)
	if et.Jobs != tr {
		t.Error("Degenerate copied the trace")
	}
	if et.ManagedCount() != 0 || et.HasEdges() {
		t.Errorf("degenerate wrap is managed: count %d edges %v", et.ManagedCount(), et.HasEdges())
	}
}

func TestElasticCSVRoundTrip(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Length: simtime.Hour, CPUs: 2, Queue: QueueShort, User: "u1"},
		{Arrival: 30, Length: 3 * simtime.Hour, CPUs: 1, Queue: QueueLong, User: "u2"},
		{Arrival: 60, Length: 2 * simtime.Hour, CPUs: 4, Queue: QueueLong, User: "u1"},
	}
	specs := []ElasticSpec{
		{MinReplicas: 0, MaxReplicas: 4, Curve: AmdahlCurve(0.9, 4)},
		DegenerateSpec(),
		{MinReplicas: 1, MaxReplicas: 2, Curve: ScaleCurve{1, 0.6}},
	}
	et, err := NewElasticTrace("rt", jobs, specs, []Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var jb, eb bytes.Buffer
	if err := et.WriteElasticCSV(&jb); err != nil {
		t.Fatal(err)
	}
	if err := et.WriteEdgesCSV(&eb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadElasticCSV("rt", &jb, &eb)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != et.Fingerprint() {
		t.Error("round trip changed the elastic fingerprint")
	}
	if back.CriticalPathLength() != et.CriticalPathLength() {
		t.Errorf("critical path %v != %v", back.CriticalPathLength(), et.CriticalPathLength())
	}
}

func TestReadElasticCSVRejections(t *testing.T) {
	header := "id,arrival_min,length_min,cpus,queue,user,min_replicas,max_replicas,curve\n"
	goodRow := "7,0,60,1,short,u,1,1,1\n"
	edgeHeader := "src,dst\n"
	cases := []struct {
		name  string
		jobs  string
		edges string
		want  string
	}{
		{"short-row", header + "7,0,60,1\n", "", "want 9 fields"},
		{"bad-int", header + "x,0,60,1,short,u,1,1,1\n", "", "malformed fields"},
		{"bad-curve", header + "7,0,60,1,short,u,1,1,nope\n", "", "malformed curve"},
		{"duplicate-id", header + goodRow + goodRow, "", "duplicate job id 7"},
		{"dangling-edge", header + goodRow, edgeHeader + "7,12\n", "unknown job id 12"},
		{"edge-fields", header + goodRow, edgeHeader + "7\n", "want 2 fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var edges *strings.Reader
			_, err := func() (*ElasticTrace, error) {
				if tc.edges == "" {
					return ReadElasticCSV("x", strings.NewReader(tc.jobs), nil)
				}
				edges = strings.NewReader(tc.edges)
				return ReadElasticCSV("x", strings.NewReader(tc.jobs), edges)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestElasticFingerprintSensitivity(t *testing.T) {
	jobs := elasticJobs(4, simtime.Hour)
	base := MustElasticTrace("fp", jobs, degenerateSpecs(4), []Edge{{Src: 0, Dst: 1}})
	editions := []*ElasticTrace{
		MustElasticTrace("fp", jobs, degenerateSpecs(4), []Edge{{Src: 0, Dst: 2}}),
		MustElasticTrace("fp", jobs, degenerateSpecs(4), nil),
		func() *ElasticTrace {
			sp := degenerateSpecs(4)
			sp[1] = ElasticSpec{MinReplicas: 1, MaxReplicas: 2, Curve: ScaleCurve{1, 0.5}}
			return MustElasticTrace("fp", jobs, sp, []Edge{{Src: 0, Dst: 1}})
		}(),
	}
	for i, e := range editions {
		if e.Fingerprint() == base.Fingerprint() {
			t.Errorf("edition %d collides with base", i)
		}
	}
	same := MustElasticTrace("fp", jobs, degenerateSpecs(4), []Edge{{Src: 0, Dst: 1}})
	if same.Fingerprint() != base.Fingerprint() {
		t.Error("identical content fingerprints differently")
	}
}

// FuzzDAGEdges drives the edge validator with arbitrary edge lists over a
// fixed job set: construction must deterministically accept or reject —
// never panic — and a cycle rejection must name a vertex that actually
// lies on a cycle.
func FuzzDAGEdges(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})             // chain
	f.Add([]byte{0, 1, 1, 0})             // 2-cycle
	f.Add([]byte{3, 3})                   // self-edge
	f.Add([]byte{0, 200})                 // out of range
	f.Add([]byte{0, 1, 0, 1})             // duplicate
	f.Add([]byte{1, 2, 2, 3, 3, 1, 3, 4}) // cycle with downstream cone
	f.Fuzz(func(t *testing.T, raw []byte) {
		const n = 6
		jobs := elasticJobs(n, simtime.Hour)
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			// Bias into range so cycles are reachable, but keep some
			// out-of-range endpoints to exercise that rejection too.
			edges = append(edges, Edge{Src: int(raw[i]) % (n + 2), Dst: int(raw[i+1]) % (n + 2)})
		}
		et, err := NewElasticTrace("fuzz", jobs, degenerateSpecs(n), edges)
		et2, err2 := NewElasticTrace("fuzz", jobs, degenerateSpecs(n), edges)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("nondeterministic outcome: %v vs %v", err, err2)
		}
		if err != nil {
			if msg := err.Error(); strings.Contains(msg, "precedence cycle") {
				id := namedJob(t, msg)
				if !onCycle(n, edges, id) {
					t.Fatalf("cycle error names job %d which is on no cycle: %v (edges %v)", id, err, edges)
				}
			}
			return
		}
		if et.Fingerprint() != et2.Fingerprint() {
			t.Fatal("accepted trace fingerprints nondeterministically")
		}
		// Accepted DAGs must topologically release: every job's slack is
		// defined iff it touches an edge.
		for id := 0; id < n; id++ {
			_, ok := et.Slack(id)
			touches := false
			for _, e := range et.Edges {
				if e.Src == id || e.Dst == id {
					touches = true
				}
			}
			if ok != touches {
				t.Fatalf("Slack(%d) defined=%v, touches edges=%v", id, ok, touches)
			}
		}
	})
}

// onCycle reports whether v can reach itself through the (in-range,
// renumber-free) edges — the fuzz oracle for the cycle error's vertex.
// Jobs arrive in index order, so normalized IDs equal input positions.
func onCycle(n int, edges []Edge, v int) bool {
	adj := make([][]int, n)
	for _, e := range edges {
		if e.Src >= 0 && e.Src < n && e.Dst >= 0 && e.Dst < n && e.Src != e.Dst {
			adj[e.Src] = append(adj[e.Src], e.Dst)
		}
	}
	seen := make([]bool, n)
	stack := append([]int(nil), adj[v]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, adj[x]...)
	}
	return false
}
