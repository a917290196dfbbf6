package algo

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

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

// NewDerived builds a view over a synthetic graph of n nodes (internal
// indexes [0, n), external IDs idx+1) and the given edge list, the fixture
// the kernel tests run on.
func NewDerived(n int, from, to []int32) *View {
	ids := make([]graph.NodeID, n)
	ext2int := make([]int32, n+1)
	ext2int[0] = -1
	for i := 0; i < n; i++ {
		ids[i] = graph.NodeID(i + 1)
		ext2int[i+1] = int32(i)
	}
	return buildCSR(ids, ext2int, from, to)
}

// TestNewDerived checks the synthetic-view fixture.
func TestNewDerived(t *testing.T) {
	v := NewDerived(4, []int32{0, 0, 2}, []int32{1, 3, 3})
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

// TestCachedViewDoesNotPinGraph: the cache holds its graph weakly. A
// graph nothing else references is collected although its view is
// cached, its views leave the cache, and no graph made afterwards is
// served its view.
func TestCachedViewDoesNotPinGraph(t *testing.T) {
	collected := make(chan struct{})
	old := func() *View {
		g := graph.New()
		a := g.AddNode([]string{"N"}, nil)
		b := g.AddNode([]string{"N"}, nil)
		mustRel(t, g, "E", a, b, nil)
		runtime.AddCleanup(g, func(ch chan struct{}) { close(ch) }, collected)
		return CachedView(g, ViewOptions{})
	}()
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the view cache kept a graph alive")
		case <-time.After(10 * time.Millisecond):
		}
	}

	for i := 0; i < 2*viewCacheCap; i++ {
		g := graph.New()
		g.AddNode([]string{"N"}, nil)
		if v := CachedView(g, ViewOptions{}); v == old || v.N() != 1 {
			t.Fatalf("graph %d was served a view of %d nodes (collected graph's view: %t)", i, v.N(), v == old)
		}
		viewCacheMu.Lock()
		for _, e := range viewCache {
			if e.view == old {
				viewCacheMu.Unlock()
				t.Fatal("a collected graph's view is still cached")
			}
		}
		viewCacheMu.Unlock()
		InvalidateViews(g)
	}
}

// TestCachedViewSingleFlight: concurrent callers for one key of one
// generation share one build and get the same view.
func TestCachedViewSingleFlight(t *testing.T) {
	g := simGraph(t)
	opts := ViewOptions{Labels: []string{"AS"}}
	InvalidateViews(g)
	defer InvalidateViews(g)

	const callers = 8
	builds := metrics.viewBuilds.Load()
	start := make(chan struct{})
	views := make([]*View, callers)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			views[i] = CachedView(g, opts)
		}()
	}
	close(start)
	wg.Wait()

	for i, v := range views {
		if v == nil || v != views[0] {
			t.Fatalf("caller %d got view %p, caller 0 got %p", i, v, views[0])
		}
	}
	if n := metrics.viewBuilds.Load() - builds; n != 1 {
		t.Fatalf("%d concurrent callers built %d views, want 1", callers, n)
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
