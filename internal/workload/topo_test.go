package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refTopoOrder is the reference Kahn's algorithm the heap-based topoOrder
// must match: it re-sorts the whole ready queue before every pop, which
// makes "smallest ready ID first" obvious at O(V² log V) cost.
func refTopoOrder(et *ElasticTrace) ([]int32, error) {
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
			return nil, fmt.Errorf("workload: precedence cycle through job %d", et.cycleVertex(i, indeg))
		}
	}
	return topo, nil
}

// derivedTrace builds an elastic trace of n jobs over already-normalized
// edges without rejecting cycles, so both Kahn implementations can be run
// on cyclic graphs too.
func derivedTrace(n int, edges []Edge) *ElasticTrace {
	es := append([]Edge(nil), edges...)
	sort.Slice(es, func(a, b int) bool {
		if es[a].Src != es[b].Src {
			return es[a].Src < es[b].Src
		}
		return es[a].Dst < es[b].Dst
	})
	et := &ElasticTrace{Jobs: MustTrace("topo", elasticJobs(n, 60)), Specs: degenerateSpecs(n), Edges: es}
	_ = et.derive() // a cycle error is what the test compares next
	return et
}

// randomDAG draws a DAG over n jobs whose topological order is a random
// permutation (so job IDs are not already sorted topologically); density
// sets the edge probability between a permuted pair. Sparse draws leave
// isolated jobs and several components and sources.
func randomDAG(rng *rand.Rand, n int, density float64) []Edge {
	perm := rng.Perm(n)
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{Src: perm[i], Dst: perm[j]})
			}
		}
	}
	return edges
}

func TestTopoOrderMatchesSortPerPop(t *testing.T) {
	type graph struct {
		name  string
		n     int
		edges []Edge
		cycle bool
	}
	graphs := []graph{
		{"diamond", 4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, false},
		{"reversed-diamond", 4, []Edge{{3, 1}, {3, 2}, {1, 0}, {2, 0}}, false},
		{"multi-source", 6, []Edge{{5, 2}, {4, 2}, {3, 2}, {2, 1}, {2, 0}}, false},
		{"disconnected", 9, []Edge{{8, 0}, {0, 4}, {7, 1}, {1, 5}, {6, 2}, {3, 2}}, false},
		{"triangle", 3, []Edge{{0, 1}, {1, 2}, {2, 0}}, true},
		{"cycle-downstream-of-dag", 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {5, 4}}, true},
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(60)
		density := []float64{0.02, 0.1, 0.4}[i%3]
		edges := randomDAG(rng, n, density)
		graphs = append(graphs, graph{fmt.Sprintf("random-%d", i), n, edges, false})
		if len(edges) == 0 {
			continue
		}
		// Adding the reverse of an existing edge always closes a cycle.
		e := edges[rng.Intn(len(edges))]
		cyc := append(append([]Edge(nil), edges...), Edge{Src: e.Dst, Dst: e.Src})
		graphs = append(graphs, graph{fmt.Sprintf("random-%d-cyclic", i), n, cyc, true})
	}
	for _, g := range graphs {
		et := derivedTrace(g.n, g.edges)
		got, gotErr := et.topoOrder()
		want, wantErr := refTopoOrder(et)
		if (gotErr != nil) != g.cycle {
			t.Fatalf("%s: error %v, want cycle=%v", g.name, gotErr, g.cycle)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %q, reference %q", g.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: order %v, reference %v", g.name, got, want)
		}
	}
}
