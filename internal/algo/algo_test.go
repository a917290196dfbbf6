package algo

import (
	"context"
	"sync"
	"testing"

	"iyp/internal/core"
	"iyp/internal/graph"
	"iyp/internal/simnet"
)

// The analytics engine is validated against a 0.1-scale simnet knowledge
// graph built once per package run, cross-checked by naive reference
// implementations over a plain adjacency-map extraction of the same
// store.

var (
	simOnce sync.Once
	simG    *graph.Graph
	simErr  error
)

func simGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	simOnce.Do(func() {
		res, err := core.Build(context.Background(), core.BuildOptions{
			Config: simnet.DefaultConfig().Scale(0.1),
		})
		if err != nil {
			simErr = err
			return
		}
		simG = res.Graph
	})
	if simErr != nil {
		tb.Fatalf("building simnet graph: %v", simErr)
	}
	return simG
}

// naiveGraph is the trusted reference: a one-pass adjacency-map
// extraction with none of the CSR machinery.
type naiveGraph struct {
	ids []graph.NodeID
	idx map[graph.NodeID]int32
	out [][]int32
	in  [][]int32
}

// naiveExtract walks the store exactly like NewView claims to, using only
// maps and slices.
func naiveExtract(g *graph.Graph, labels, relTypes []string) *naiveGraph {
	ng := &naiveGraph{idx: map[graph.NodeID]int32{}}
	g.BulkRead(func(br *graph.BulkReader) {
		keepNode := func(id graph.NodeID) bool {
			if len(labels) == 0 {
				return true
			}
			for _, l := range labels {
				if lid, ok := br.LabelID(l); ok && br.NodeHasLabelID(id, lid) {
					return true
				}
			}
			return false
		}
		br.EachNode(func(id graph.NodeID) bool {
			if keepNode(id) {
				ng.idx[id] = int32(len(ng.ids))
				ng.ids = append(ng.ids, id)
			}
			return true
		})
		ng.out = make([][]int32, len(ng.ids))
		ng.in = make([][]int32, len(ng.ids))
		wantType := map[uint16]bool{}
		for _, t := range relTypes {
			if tid, ok := br.TypeID(t); ok {
				wantType[tid] = true
			}
		}
		br.EachRel(func(_ graph.RelID, typ uint16, from, to graph.NodeID) bool {
			if len(relTypes) > 0 && !wantType[typ] {
				return true
			}
			f, okF := ng.idx[from]
			t, okT := ng.idx[to]
			if !okF || !okT {
				return true
			}
			ng.out[f] = append(ng.out[f], t)
			ng.in[t] = append(ng.in[t], f)
			return true
		})
	})
	return ng
}

func (ng *naiveGraph) n() int { return len(ng.ids) }

func (ng *naiveGraph) m() int {
	m := 0
	for _, adj := range ng.out {
		m += len(adj)
	}
	return m
}

// naiveWCC is sequential union-find over the undirected edge set.
func naiveWCC(ng *naiveGraph) ([]int32, int) {
	parent := make([]int32, ng.n())
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u, adj := range ng.out {
		for _, w := range adj {
			ru, rw := find(int32(u)), find(w)
			if ru != rw {
				if ru < rw {
					parent[rw] = ru
				} else {
					parent[ru] = rw
				}
			}
		}
	}
	count := 0
	comp := make([]int32, ng.n())
	for i := range comp {
		comp[i] = find(int32(i))
		if comp[i] == int32(i) {
			count++
		}
	}
	return comp, count
}

// samePartition checks that two component labelings induce the same
// equivalence classes (labels themselves may differ).
func samePartition(t *testing.T, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("labeling lengths differ: %d vs %d", len(a), len(b))
	}
	a2b := map[int32]int32{}
	b2a := map[int32]int32{}
	for i := range a {
		if mapped, ok := a2b[a[i]]; ok && mapped != b[i] {
			t.Fatalf("node %d: label %d maps to both %d and %d", i, a[i], mapped, b[i])
		}
		if mapped, ok := b2a[b[i]]; ok && mapped != a[i] {
			t.Fatalf("node %d: label %d maps back to both %d and %d", i, b[i], mapped, a[i])
		}
		a2b[a[i]] = b[i]
		b2a[b[i]] = a[i]
	}
}
