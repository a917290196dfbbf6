package algo

import (
	"context"
	"math"
	"testing"
)

// TestWCCMatchesNaive: the concurrent union-find must induce exactly the
// partition of the sequential reference, and label components by their
// minimum member.
func TestWCCMatchesNaive(t *testing.T) {
	g := simGraph(t)
	v := NewView(g, ViewOptions{})
	comp, count, err := WCC(context.Background(), v, 0)
	if err != nil {
		t.Fatal(err)
	}
	ng := naiveExtract(g, nil, nil)
	wantComp, wantCount := naiveWCC(ng)
	if count != wantCount {
		t.Fatalf("component count: %d, naive %d", count, wantCount)
	}
	samePartition(t, comp, wantComp)
	for i, c := range comp {
		if c > int32(i) {
			t.Fatalf("component label %d of node %d is not the minimum member", c, i)
		}
	}
}

// TestSCCKnown checks Tarjan on a handcrafted graph with known strongly
// connected components.
func TestSCCKnown(t *testing.T) {
	// Cycle {0,1,2} -> cycle {3,4}; 5 isolated; 6 with a self-loop.
	v := NewDerived(7,
		[]int32{0, 1, 2, 2, 3, 4, 6},
		[]int32{1, 2, 0, 3, 4, 3, 6})
	comp, count, err := SCC(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("scc count = %d, want 4", count)
	}
	want := []int32{0, 0, 0, 3, 3, 5, 6}
	for i := range want {
		if comp[i] != want[i] {
			t.Fatalf("comp = %v, want %v", comp, want)
		}
	}
}

// TestSCCRefinesWCC: on the simnet graph, every strong component must lie
// inside one weak component, and there are at least as many of them.
func TestSCCRefinesWCC(t *testing.T) {
	g := simGraph(t)
	v := NewView(g, ViewOptions{})
	ctx := context.Background()
	weak, nWeak, err := WCC(ctx, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	strong, nStrong, err := SCC(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if nStrong < nWeak {
		t.Fatalf("%d strong components < %d weak components", nStrong, nWeak)
	}
	sccWeak := map[int32]int32{}
	for i := range strong {
		if w, ok := sccWeak[strong[i]]; ok && w != weak[i] {
			t.Fatalf("strong component %d spans weak components %d and %d", strong[i], w, weak[i])
		}
		sccWeak[strong[i]] = weak[i]
	}
}

// TestDegreesMatchNaive recomputes the degree statistics from the naive
// adjacency and compares every field.
func TestDegreesMatchNaive(t *testing.T) {
	g := simGraph(t)
	v := NewView(g, ViewOptions{})
	st, err := Degrees(context.Background(), v, 0)
	if err != nil {
		t.Fatal(err)
	}
	ng := naiveExtract(g, nil, nil)
	var want DegreeStats
	want.N, want.M = ng.n(), ng.m()
	want.MinOut, want.MinIn = int(^uint(0)>>1), int(^uint(0)>>1)
	for i := range ng.out {
		od, id := len(ng.out[i]), len(ng.in[i])
		want.MinOut = min(want.MinOut, od)
		want.MaxOut = max(want.MaxOut, od)
		want.MinIn = min(want.MinIn, id)
		want.MaxIn = max(want.MaxIn, id)
		want.OutHist[HistBucket(od)]++
		want.InHist[HistBucket(id)]++
	}
	want.MeanOut = float64(want.M) / float64(want.N)
	if *st != want {
		t.Fatalf("degree stats mismatch:\n got %+v\nwant %+v", *st, want)
	}
}

func TestBucketBounds(t *testing.T) {
	for deg := 0; deg < 1000; deg++ {
		b := HistBucket(deg)
		lo, hi := BucketBounds(b)
		if int64(deg) < lo || int64(deg) > hi {
			t.Fatalf("degree %d outside its bucket %d bounds [%d, %d]", deg, b, lo, hi)
		}
	}
}

// TestPageRankProperties: scores are a probability distribution and a
// star's hub dominates its spokes.
func TestPageRankProperties(t *testing.T) {
	ctx := context.Background()
	// Star: leaves 1..5 all point at 0.
	v := NewDerived(6, []int32{1, 2, 3, 4, 5}, []int32{0, 0, 0, 0, 0})
	scores, iters, err := PageRank(ctx, v, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("pagerank reported zero iterations")
	}
	sum := 0.0
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %g, want 1", sum)
	}
	for i := 1; i < 6; i++ {
		if scores[0] <= scores[i] {
			t.Fatalf("hub score %g not above leaf score %g", scores[0], scores[i])
		}
	}

	// Simnet graph: still a distribution.
	sv := NewView(simGraph(t), ViewOptions{})
	scores, _, err = PageRank(ctx, sv, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("simnet scores sum to %g, want 1", sum)
	}
}

// TestKernelsHonorCancellation: a cancelled context stops every kernel
// with its error rather than returning partial data.
func TestKernelsHonorCancellation(t *testing.T) {
	g := simGraph(t)
	v := NewView(g, ViewOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := WCC(ctx, v, 0); err == nil {
		t.Error("WCC ignored cancellation")
	}
	if _, _, err := SCC(ctx, v); err == nil {
		t.Error("SCC ignored cancellation")
	}
	if _, _, err := PageRank(ctx, v, PageRankOptions{}); err == nil {
		t.Error("PageRank ignored cancellation")
	}
	if _, err := Degrees(ctx, v, 0); err == nil {
		t.Error("Degrees ignored cancellation")
	}
}
