package algo

import (
	"sort"
	"testing"

	"iyp/internal/graph"
)

// TestViewMatchesNaive cross-checks the parallel CSR build against the
// naive adjacency-map extraction on the full simnet graph: same node set,
// same edge multiset, per node.
func TestViewMatchesNaive(t *testing.T) {
	g := simGraph(t)
	v := NewView(g, ViewOptions{})
	ng := naiveExtract(g, nil, nil)

	if v.N() != ng.n() {
		t.Fatalf("node count: view %d, naive %d", v.N(), ng.n())
	}
	if v.M() != ng.m() {
		t.Fatalf("edge count: view %d, naive %d", v.M(), ng.m())
	}
	for i := 0; i < v.N(); i++ {
		if v.ExtID(int32(i)) != ng.ids[i] {
			t.Fatalf("node %d: view ext id %d, naive %d", i, v.ExtID(int32(i)), ng.ids[i])
		}
		if back := v.IntID(ng.ids[i]); back != int32(i) {
			t.Fatalf("IntID(%d) = %d, want %d", ng.ids[i], back, i)
		}
		wantOut := append([]int32(nil), ng.out[i]...)
		wantIn := append([]int32(nil), ng.in[i]...)
		sort.Slice(wantOut, func(a, b int) bool { return wantOut[a] < wantOut[b] })
		sort.Slice(wantIn, func(a, b int) bool { return wantIn[a] < wantIn[b] })
		if !equalInt32(v.Out(int32(i)), wantOut) {
			t.Fatalf("node %d out list: view %v, naive %v", i, v.Out(int32(i)), wantOut)
		}
		if !equalInt32(v.In(int32(i)), wantIn) {
			t.Fatalf("node %d in list: view %v, naive %v", i, v.In(int32(i)), wantIn)
		}
	}
}

// TestViewFilters checks label and reltype selection against the naive
// filtered extraction.
func TestViewFilters(t *testing.T) {
	g := simGraph(t)
	opts := ViewOptions{Labels: []string{"AS"}, RelTypes: []string{"PEERS_WITH"}}
	v := NewView(g, opts)
	ng := naiveExtract(g, opts.Labels, opts.RelTypes)

	if v.N() != ng.n() || v.M() != ng.m() {
		t.Fatalf("filtered view %d nodes / %d edges, naive %d / %d", v.N(), v.M(), ng.n(), ng.m())
	}
	if v.N() == 0 || v.M() == 0 {
		t.Fatal("filtered view is empty; simnet should have peering ASes")
	}
	for i := 0; i < v.N(); i++ {
		if !g.NodeHasLabel(v.ExtID(int32(i)), "AS") {
			t.Fatalf("node %d (%d) in AS-filtered view lacks the AS label", i, v.ExtID(int32(i)))
		}
	}
}

// TestViewWeights materializes a relationship property as the weight
// column and checks alignment with the sorted adjacency.
func TestViewWeights(t *testing.T) {
	g := graph.New()
	a := g.AddNode([]string{"N"}, nil)
	b := g.AddNode([]string{"N"}, nil)
	c := g.AddNode([]string{"N"}, nil)
	mustRel(t, g, "E", a, c, graph.Props{"w": graph.Float(3)})
	mustRel(t, g, "E", a, b, graph.Props{"w": graph.Float(2)})
	mustRel(t, g, "E", a, b, nil) // missing weight -> 1

	v := NewView(g, ViewOptions{WeightProp: "w"})
	ai := v.IntID(a)
	out, w := v.Out(ai), v.OutW(ai)
	if len(out) != 3 || len(w) != 3 {
		t.Fatalf("out/weight lengths: %d/%d", len(out), len(w))
	}
	// Sorted by target then weight: (b,1), (b,2), (c,3).
	wantTo := []int32{v.IntID(b), v.IntID(b), v.IntID(c)}
	wantW := []float64{1, 2, 3}
	for i := range wantTo {
		if out[i] != wantTo[i] || w[i] != wantW[i] {
			t.Fatalf("edge %d: got (%d, %g), want (%d, %g)", i, out[i], w[i], wantTo[i], wantW[i])
		}
	}
	inW := v.InW(v.IntID(c))
	if len(inW) != 1 || inW[0] != 3 {
		t.Fatalf("in-weights of c: %v", inW)
	}
}

// NewDerived builds a view over a synthetic graph of n nodes (internal
// indexes [0, n), external IDs idx+1) and the given edge list, the fixture
// the kernel tests run on. w may be nil for an unweighted view.
func NewDerived(n int, from, to []int32, w []float64) *View {
	ids := make([]graph.NodeID, n)
	ext2int := make([]int32, n+1)
	ext2int[0] = -1
	for i := 0; i < n; i++ {
		ids[i] = graph.NodeID(i + 1)
		ext2int[i+1] = int32(i)
	}
	return buildCSR(ids, ext2int, from, to, w)
}

// TestNewDerived checks the synthetic-view fixture.
func TestNewDerived(t *testing.T) {
	v := NewDerived(4, []int32{0, 0, 2}, []int32{1, 3, 3}, nil)
	if v.N() != 4 || v.M() != 3 {
		t.Fatalf("derived view: %d nodes, %d edges", v.N(), v.M())
	}
	if got := v.Out(0); !equalInt32(got, []int32{1, 3}) {
		t.Fatalf("out(0) = %v", got)
	}
	if got := v.In(3); !equalInt32(got, []int32{0, 2}) {
		t.Fatalf("in(3) = %v", got)
	}
	if v.ExtID(2) != 3 || v.IntID(3) != 2 {
		t.Fatalf("derived id mapping: ext(2)=%d int(3)=%d", v.ExtID(2), v.IntID(3))
	}
}

// TestCachedViewGenerations: the cache returns the same compiled view
// until the graph mutates, then recompiles.
func TestCachedViewGenerations(t *testing.T) {
	g := graph.New()
	a := g.AddNode([]string{"N"}, nil)
	b := g.AddNode([]string{"N"}, nil)
	mustRel(t, g, "E", a, b, nil)
	defer InvalidateViews(g)

	v1 := CachedView(g, ViewOptions{})
	v2 := CachedView(g, ViewOptions{})
	if v1 != v2 {
		t.Fatal("same generation returned different views")
	}
	if v1.M() != 1 {
		t.Fatalf("edges = %d, want 1", v1.M())
	}

	c := g.AddNode([]string{"N"}, nil)
	mustRel(t, g, "E", b, c, nil)
	v3 := CachedView(g, ViewOptions{})
	if v3 == v1 {
		t.Fatal("mutated graph returned the stale view")
	}
	if v3.N() != 3 || v3.M() != 2 {
		t.Fatalf("recompiled view: %d nodes, %d edges", v3.N(), v3.M())
	}

	// Different options are distinct cache slots of the same generation.
	vl := CachedView(g, ViewOptions{Labels: []string{"N"}})
	if vl == v3 {
		t.Fatal("distinct options shared a cache slot")
	}
	if CachedView(g, ViewOptions{Labels: []string{"N"}}) != vl {
		t.Fatal("option-keyed slot did not cache")
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustRel(t *testing.T, g *graph.Graph, typ string, from, to graph.NodeID, props graph.Props) {
	t.Helper()
	if _, err := g.AddRel(typ, from, to, props); err != nil {
		t.Fatal(err)
	}
}
