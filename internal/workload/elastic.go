package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/carbonsched/gaia/internal/simtime"
)

// ScaleCurve is a malleable job's per-replica marginal throughput: adding
// replica k+1 to a job running at k replicas increases its processing rate
// by Curve[k] serial-equivalents. Curve[0] is the base replica and is
// always 1 by definition (a one-replica job runs at serial speed); the
// marginals must be positive and non-increasing (diminishing returns, the
// CarbonScaler assumption that makes greedy marginal allocation optimal).
type ScaleCurve []float64

// Validate checks the curve invariants.
func (c ScaleCurve) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("workload: scale curve is empty")
	}
	if c[0] != 1 {
		return fmt.Errorf("workload: scale curve must start at 1, got %v", c[0])
	}
	for i, m := range c {
		if !(m > 0) || math.IsInf(m, 0) {
			return fmt.Errorf("workload: scale curve marginal %d is %v, want positive finite", i, m)
		}
		if i > 0 && m > c[i-1] {
			return fmt.Errorf("workload: scale curve marginal %d rises (%v > %v)", i, m, c[i-1])
		}
	}
	return nil
}

// Throughput returns the processing rate at k replicas in serial-
// equivalents per unit time: the sum of the first k marginals (k is
// clamped to the curve's length; 0 replicas process nothing).
func (c ScaleCurve) Throughput(k int) float64 {
	if k > len(c) {
		k = len(c)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += c[i]
	}
	return s
}

// AmdahlCurve builds a k-replica scale curve from Amdahl's law with the
// given parallel fraction p: marginal k is S(k+1)−S(k) for
// S(k) = 1/((1−p)+p/k). The marginals are positive and non-increasing for
// p in (0, 1), so such curves always validate (p = 0 would make every
// marginal past the first zero — a job that cannot use replicas should
// carry DegenerateSpec instead).
func AmdahlCurve(p float64, maxReplicas int) ScaleCurve {
	speedup := func(k int) float64 { return 1 / ((1 - p) + p/float64(k)) }
	c := make(ScaleCurve, maxReplicas)
	c[0] = 1
	for k := 1; k < maxReplicas; k++ {
		c[k] = speedup(k+1) - speedup(k)
	}
	return c
}

// ElasticSpec is one job's elasticity contract: the replica bounds and the
// marginal-throughput curve. The zero value is invalid; DegenerateSpec is
// the rigid single-replica contract.
type ElasticSpec struct {
	// MinReplicas is the smallest allocation the job accepts while
	// running. 0 marks the job preemptible: the allocator may suspend it
	// entirely (within the scheduler's waiting-time guarantee).
	MinReplicas int
	// MaxReplicas bounds how wide the job can scale (>= 1 and at most
	// len(Curve)).
	MaxReplicas int
	// Curve is the per-replica marginal throughput (Curve[0] == 1).
	Curve ScaleCurve
}

// DegenerateSpec is the rigid contract: exactly one replica, flat curve.
// A job carrying it (and no precedence edges) executes on the scheduler's
// rigid path, bit-identical to a run without elastic metadata at all.
func DegenerateSpec() ElasticSpec {
	return ElasticSpec{MinReplicas: 1, MaxReplicas: 1, Curve: degenerateCurve}
}

// degenerateCurve is shared by every DegenerateSpec so wrapping a trace
// costs one spec slice and no per-job curve allocations.
var degenerateCurve = ScaleCurve{1}

// Degenerate reports whether the spec pins the job to exactly one replica
// — the contract under which elastic execution is definitionally identical
// to the rigid path.
func (s ElasticSpec) Degenerate() bool {
	return s.MinReplicas == 1 && s.MaxReplicas == 1
}

// Validate checks the spec invariants.
func (s ElasticSpec) Validate() error {
	if s.MinReplicas < 0 {
		return fmt.Errorf("workload: min replicas %d must be non-negative", s.MinReplicas)
	}
	if s.MaxReplicas < 1 {
		return fmt.Errorf("workload: max replicas %d must be at least 1", s.MaxReplicas)
	}
	if s.MaxReplicas < s.MinReplicas {
		return fmt.Errorf("workload: max replicas %d below min %d", s.MaxReplicas, s.MinReplicas)
	}
	if err := s.Curve.Validate(); err != nil {
		return err
	}
	if len(s.Curve) < s.MaxReplicas {
		return fmt.Errorf("workload: curve has %d marginals for max replicas %d", len(s.Curve), s.MaxReplicas)
	}
	return nil
}

// Edge is one precedence constraint: job Dst may not start before job Src
// finishes. Endpoints are job IDs in the normalized (arrival-ordered)
// numbering of the trace the edge belongs to.
type Edge struct {
	Src, Dst int
}

// ElasticTrace attaches elasticity and precedence metadata to a workload
// trace: Specs[i] is the contract of Jobs.Jobs[i], and Edges are
// precedence constraints validated acyclic at construction. The embedded
// Trace is normalized (arrival-sorted, IDs 0..n−1) exactly like NewTrace's
// output, so the same instance passes to core.Run as both the workload and
// Config.Elastic.Jobs.
type ElasticTrace struct {
	Jobs  *Trace
	Specs []ElasticSpec
	Edges []Edge

	// Derived at construction (immutable afterwards).
	managed      []bool
	managedCount int
	onDAG        []bool
	predCount    []int32
	succs        [][]int32
	slack        []simtime.Duration
	critical     simtime.Duration
	fp           atomic.Pointer[[32]byte] // memoizes Fingerprint
}

// NewElasticTrace builds an elastic trace from parallel job/spec slices
// and precedence edges. Jobs are stably sorted by arrival and renumbered
// 0..n−1 (exactly like NewTrace); specs and edge endpoints follow the
// renumbering, so on input both refer to jobs by position in the jobs
// slice. It rejects malformed jobs or specs, out-of-range, self- or
// duplicate edges, and any precedence cycle (the error names a job on the
// cycle).
func NewElasticTrace(name string, jobs []Job, specs []ElasticSpec, edges []Edge) (*ElasticTrace, error) {
	if len(specs) != len(jobs) {
		return nil, fmt.Errorf("workload: %d specs for %d jobs", len(specs), len(jobs))
	}
	n := len(jobs)

	// Stable arrival sort via an index permutation so specs and edge
	// endpoints can be remapped onto the new numbering.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})
	newID := make([]int, n) // old position → new ID
	js := make([]Job, n)
	sp := make([]ElasticSpec, n)
	for newPos, oldPos := range order {
		newID[oldPos] = newPos
		js[newPos] = jobs[oldPos]
		js[newPos].ID = newPos
		sp[newPos] = specs[oldPos]
		if err := js[newPos].Validate(); err != nil {
			return nil, err
		}
		if err := sp[newPos].Validate(); err != nil {
			return nil, fmt.Errorf("workload: job %d: %w", newPos, err)
		}
	}

	es := make([]Edge, 0, len(edges))
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("workload: edge %d→%d references a job outside 0..%d", e.Src, e.Dst, n-1)
		}
		m := Edge{Src: newID[e.Src], Dst: newID[e.Dst]}
		if m.Src == m.Dst {
			return nil, fmt.Errorf("workload: self-edge on job %d", m.Src)
		}
		if seen[m] {
			return nil, fmt.Errorf("workload: duplicate edge %d→%d", m.Src, m.Dst)
		}
		seen[m] = true
		es = append(es, m)
	}
	// Canonical edge order: the fingerprint and every scheduler walk must
	// not depend on input edge order.
	sort.Slice(es, func(a, b int) bool {
		if es[a].Src != es[b].Src {
			return es[a].Src < es[b].Src
		}
		return es[a].Dst < es[b].Dst
	})

	et := &ElasticTrace{
		Jobs:  &Trace{Name: name, Jobs: js},
		Specs: sp,
		Edges: es,
	}
	if err := et.derive(); err != nil {
		return nil, err
	}
	return et, nil
}

// MustElasticTrace is NewElasticTrace that panics on error.
func MustElasticTrace(name string, jobs []Job, specs []ElasticSpec, edges []Edge) *ElasticTrace {
	et, err := NewElasticTrace(name, jobs, specs, edges)
	if err != nil {
		panic(err)
	}
	return et
}

// Degenerate wraps an already-normalized trace in the rigid elastic
// contract: every job single-replica, flat curve, no edges. Running it is
// bit-identical to running the trace without elastic metadata — the seam
// the degenerate differential tests pivot on. The trace pointer is reused
// as Jobs, so Config.Elastic.Jobs == trace holds without copying.
func Degenerate(tr *Trace) *ElasticTrace {
	specs := make([]ElasticSpec, len(tr.Jobs))
	for i := range specs {
		specs[i] = DegenerateSpec()
	}
	et := &ElasticTrace{Jobs: tr, Specs: specs}
	if err := et.derive(); err != nil {
		panic(err) // unreachable: degenerate specs and no edges always validate
	}
	return et
}

// derive computes the managed set, predecessor counts, successor lists,
// acyclicity (Kahn) and per-job slack from critical-path analysis.
func (et *ElasticTrace) derive() error {
	n := len(et.Jobs.Jobs)
	et.managed = make([]bool, n)
	et.onDAG = make([]bool, n)
	et.predCount = make([]int32, n)
	et.succs = make([][]int32, n)
	for _, e := range et.Edges {
		et.onDAG[e.Src] = true
		et.onDAG[e.Dst] = true
		et.predCount[e.Dst]++
		et.succs[e.Src] = append(et.succs[e.Src], int32(e.Dst))
	}
	for i := range et.succs {
		s := et.succs[i]
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	et.managedCount = 0
	for i, sp := range et.Specs {
		et.managed[i] = !sp.Degenerate() || et.onDAG[i]
		if et.managed[i] {
			et.managedCount++
		}
	}
	topo, err := et.topoOrder()
	if err != nil {
		return err
	}
	et.computeSlack(topo)
	return nil
}

// topoOrder runs Kahn's algorithm over the DAG members; a cycle is
// reported with a job that lies on it.
func (et *ElasticTrace) topoOrder() ([]int32, error) {
	n := len(et.Jobs.Jobs)
	indeg := append([]int32(nil), et.predCount...)
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if et.onDAG[i] && indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	topo := make([]int32, 0, n)
	for len(queue) > 0 {
		// Pop the smallest ID for a canonical order (queue is kept sorted
		// by construction: seeds ascend and successors are pushed in
		// ascending order, then re-sorted below).
		sort.Slice(queue, func(a, b int) bool { return queue[a] < queue[b] })
		v := queue[0]
		queue = queue[1:]
		topo = append(topo, v)
		for _, s := range et.succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	for i := 0; i < n; i++ {
		if et.onDAG[i] && indeg[i] > 0 {
			// i still has unprocessed predecessors: walk maximal-indegree
			// predecessors until a vertex repeats — that vertex is on a
			// cycle.
			return nil, fmt.Errorf("workload: precedence cycle through job %d", et.cycleVertex(i, indeg))
		}
	}
	return topo, nil
}

// cycleVertex walks backwards from a vertex left unprocessed by Kahn's
// algorithm until it revisits a vertex; every step stays inside the
// residual graph (indeg > 0), which consists exactly of the cycles and
// their downstream cones, so the walk must close a cycle.
func (et *ElasticTrace) cycleVertex(start int, indeg []int32) int {
	preds := make(map[int][]int, len(et.Edges))
	for _, e := range et.Edges {
		if indeg[e.Dst] > 0 && indeg[e.Src] > 0 {
			preds[e.Dst] = append(preds[e.Dst], e.Src)
		}
	}
	visited := make(map[int]bool)
	v := start
	for !visited[v] {
		visited[v] = true
		ps := preds[v]
		if len(ps) == 0 {
			return v // start was downstream of the cycle; v is on it
		}
		sort.Ints(ps)
		v = ps[0]
	}
	return v
}

// computeSlack runs critical-path analysis over the DAG members using the
// serial job lengths: earliest start ES = max(arrival, max pred EF),
// latest finish LF = min successor LS (sinks: their component's makespan).
// Slack = LS − ES is how far a job can shift without delaying its
// component's completion; critical-path jobs have slack 0.
func (et *ElasticTrace) computeSlack(topo []int32) {
	n := len(et.Jobs.Jobs)
	et.slack = make([]simtime.Duration, n)
	if len(topo) == 0 {
		return
	}
	// Weakly-connected components via union-find, so disjoint DAGs each
	// measure slack against their own makespan.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range et.Edges {
		a, b := find(int32(e.Src)), find(int32(e.Dst))
		if a != b {
			parent[a] = b
		}
	}

	es := make([]simtime.Time, n)
	ef := make([]simtime.Time, n)
	for _, v := range topo {
		es[v] = et.Jobs.Jobs[v].Arrival
		ef[v] = es[v].Add(et.Jobs.Jobs[v].Length)
	}
	for _, v := range topo {
		for _, s := range et.succs[v] {
			if ef[v] > es[s] {
				es[s] = ef[v]
				ef[s] = es[s].Add(et.Jobs.Jobs[s].Length)
			}
		}
	}
	makespan := make(map[int32]simtime.Time)
	for _, v := range topo {
		r := find(v)
		if ef[v] > makespan[r] {
			makespan[r] = ef[v]
		}
	}
	lf := make([]simtime.Time, n)
	for _, v := range topo {
		lf[v] = makespan[find(v)]
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, s := range et.succs[v] {
			ls := lf[s].Add(-et.Jobs.Jobs[s].Length)
			if ls < lf[v] {
				lf[v] = ls
			}
		}
	}
	for _, v := range topo {
		ls := lf[v].Add(-et.Jobs.Jobs[v].Length)
		et.slack[v] = ls.Sub(es[v])
		if et.slack[v] < 0 {
			et.slack[v] = 0 // degenerate float-free guard; CPM yields >= 0
		}
		if span := ef[v].Sub(et.Jobs.Jobs[v].Arrival); et.onDAG[v] && et.slack[v] == 0 && span > et.critical {
			et.critical = span
		}
	}
}

// Len returns the number of jobs.
func (et *ElasticTrace) Len() int { return len(et.Jobs.Jobs) }

// ManagedCount returns how many jobs need elastic execution — a
// non-degenerate spec or at least one precedence edge. Zero means the
// whole trace rides the rigid path.
func (et *ElasticTrace) ManagedCount() int { return et.managedCount }

// Managed reports whether job id needs elastic execution.
func (et *ElasticTrace) Managed(id int) bool {
	return id >= 0 && id < len(et.managed) && et.managed[id]
}

// Spec returns job id's elasticity contract.
func (et *ElasticTrace) Spec(id int) ElasticSpec { return et.Specs[id] }

// HasEdges reports whether any precedence constraints exist.
func (et *ElasticTrace) HasEdges() bool { return len(et.Edges) > 0 }

// PredCount returns how many predecessors job id waits on.
func (et *ElasticTrace) PredCount(id int) int { return int(et.predCount[id]) }

// Succs returns job id's successors in ascending ID order. Callers must
// not mutate the returned slice.
func (et *ElasticTrace) Succs(id int) []int32 { return et.succs[id] }

// Slack returns how far job id can shift without delaying its DAG
// component's completion (critical-path analysis over serial lengths).
// ok is false for jobs with no precedence edges — they are unconstrained
// and callers should fall back to their usual waiting window.
func (et *ElasticTrace) Slack(id int) (simtime.Duration, bool) {
	if id < 0 || id >= len(et.onDAG) || !et.onDAG[id] {
		return 0, false
	}
	return et.slack[id], true
}

// CriticalPathLength returns the longest arrival-to-finish span of any
// zero-slack DAG job — the paper-style makespan lower bound no schedule
// can beat.
func (et *ElasticTrace) CriticalPathLength() simtime.Duration { return et.critical }

// Fingerprint returns a content hash of everything that can influence an
// elastic simulation: the underlying trace fingerprint, every spec and
// every edge. Memoized per instance; callers must not mutate the trace
// after fingerprinting.
func (et *ElasticTrace) Fingerprint() [32]byte {
	if fp := et.fp.Load(); fp != nil {
		return *fp
	}
	h := sha256.New()
	var buf [8]byte
	le := binary.LittleEndian
	u64 := func(v uint64) {
		le.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	jfp := et.Jobs.Fingerprint()
	h.Write(jfp[:])
	u64(uint64(len(et.Specs)))
	for _, s := range et.Specs {
		u64(uint64(s.MinReplicas))
		u64(uint64(s.MaxReplicas))
		u64(uint64(len(s.Curve)))
		for _, m := range s.Curve {
			u64(math.Float64bits(m))
		}
	}
	u64(uint64(len(et.Edges)))
	for _, e := range et.Edges {
		u64(uint64(e.Src))
		u64(uint64(e.Dst))
	}
	fp := new([32]byte)
	h.Sum(fp[:0])
	et.fp.Store(fp)
	return *fp
}
