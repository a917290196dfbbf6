package temporal

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iyp/internal/graph"
	"iyp/internal/ontology"
)

// asGraph builds a small frozen graph of AS and Prefix nodes joined by
// ORIGINATE relationships with dataset provenance. asns/prefixes pair up
// by index; order controls node insertion order so tests can prove the
// diff matches semantically, not by internal ID.
func asGraph(t *testing.T, asns []int64, reversed bool) *graph.Graph {
	t.Helper()
	g := graph.New()
	order := make([]int, len(asns))
	for i := range order {
		order[i] = i
	}
	if reversed {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, i := range order {
		asn := asns[i]
		a := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(asn)})
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String(fmt.Sprintf("10.%d.0.0/16", asn))})
		if _, err := g.AddRel("ORIGINATE", a, p, graph.Props{
			ontology.PropReferenceName: graph.String("bgpkit.pfx2asn"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

func mustDiff(t *testing.T, from, to *graph.Graph, workers int) *DiffResult {
	t.Helper()
	res, err := Diff(context.Background(), from, to, DiffOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDiffEmptyOnSemanticallyIdenticalGraphs(t *testing.T) {
	asns := []int64{2497, 2500, 7500, 9999}
	// Same content, opposite insertion order: internal IDs differ on
	// every node, so an ID-based comparison would report everything
	// changed. Identity matching must report no difference.
	a := asGraph(t, asns, false)
	b := asGraph(t, asns, true)
	res := mustDiff(t, a, b, 0)
	if !res.Empty() {
		t.Fatalf("diff of identical graphs not empty:\n%s", res)
	}
}

func TestDiffCountsAddedRemovedChanged(t *testing.T) {
	a := asGraph(t, []int64{1, 2, 3}, false)

	b := graph.New()
	// AS 1 unchanged; AS 2 removed; AS 4 added; AS 3's prefix node gets
	// a new property (changed), its ORIGINATE rel is identical.
	for _, asn := range []int64{1, 3, 4} {
		n := g2node(b, asn)
		p := b.AddNode([]string{"Prefix"}, prefixProps(asn, asn == 3))
		if _, err := b.AddRel("ORIGINATE", n, p, graph.Props{
			ontology.PropReferenceName: graph.String("bgpkit.pfx2asn"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	b.Freeze()

	res := mustDiff(t, a, b, 0)
	// Nodes: AS 4 + its prefix added, AS 2 + its prefix removed, prefix 3
	// changed.
	if res.Nodes != (Totals{Added: 2, Removed: 2, Changed: 1}) {
		t.Fatalf("node totals = %+v", res.Nodes)
	}
	// Rels: AS 2's ORIGINATE removed, AS 4's added. AS 3's rel is
	// identical (its endpoint identity is the prefix value, which did not
	// change — only the prefix node's extra property did).
	if res.Rels != (Totals{Added: 1, Removed: 1}) {
		t.Fatalf("rel totals = %+v", res.Rels)
	}
	wantLabel := map[string]GroupDelta{
		"AS":     {Name: "AS", Added: 1, Removed: 1},
		"Prefix": {Name: "Prefix", Added: 1, Removed: 1, Changed: 1},
	}
	for _, g := range res.ByLabel {
		if g != wantLabel[g.Name] {
			t.Errorf("label %s delta = %+v, want %+v", g.Name, g, wantLabel[g.Name])
		}
	}
	if len(res.ByLabel) != len(wantLabel) {
		t.Errorf("ByLabel = %+v", res.ByLabel)
	}
	if len(res.ByRelType) != 1 || res.ByRelType[0] != (GroupDelta{Name: "ORIGINATE", Added: 1, Removed: 1}) {
		t.Errorf("ByRelType = %+v", res.ByRelType)
	}
	if len(res.ByDataset) != 1 || res.ByDataset[0].Name != "bgpkit.pfx2asn" {
		t.Errorf("ByDataset = %+v", res.ByDataset)
	}
}

func g2node(g *graph.Graph, asn int64) graph.NodeID {
	return g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(asn)})
}

func prefixProps(asn int64, tagged bool) graph.Props {
	p := graph.Props{"prefix": graph.String(fmt.Sprintf("10.%d.0.0/16", asn))}
	if tagged {
		p["af"] = graph.Int(4)
	}
	return p
}

func TestDiffRelPropertyChangeCountsAsChanged(t *testing.T) {
	mk := func(count graph.Value) *graph.Graph {
		g := graph.New()
		a := g2node(g, 1)
		p := g.AddNode([]string{"Prefix"}, prefixProps(1, false))
		if _, err := g.AddRel("ORIGINATE", a, p, graph.Props{
			ontology.PropReferenceName: graph.String("bgpkit.pfx2asn"),
			"count":                    count,
		}); err != nil {
			panic(err)
		}
		g.Freeze()
		return g
	}
	res := mustDiff(t, mk(graph.Int(10)), mk(graph.Int(20)), 0)
	if res.Nodes != (Totals{}) {
		t.Fatalf("node totals = %+v, want zero", res.Nodes)
	}
	if res.Rels != (Totals{Changed: 1}) {
		t.Fatalf("rel totals = %+v", res.Rels)
	}
}

func TestDiffParallelRelsMatchAsMultisets(t *testing.T) {
	mk := func(n int) *graph.Graph {
		g := graph.New()
		a := g2node(g, 1)
		p := g.AddNode([]string{"Prefix"}, prefixProps(1, false))
		for i := 0; i < n; i++ {
			if _, err := g.AddRel("ORIGINATE", a, p, graph.Props{
				ontology.PropReferenceName: graph.String("bgpkit.pfx2asn"),
			}); err != nil {
				panic(err)
			}
		}
		g.Freeze()
		return g
	}
	// Two identical parallel rels vs three: exactly one added, none
	// changed — equal fingerprints pair off first.
	res := mustDiff(t, mk(2), mk(3), 0)
	if res.Rels != (Totals{Added: 1}) {
		t.Fatalf("rel totals = %+v", res.Rels)
	}
}

// churnedPair builds two moderately sized random graphs that share most
// of their content, with seeded additions, removals and property churn —
// enough entropy to exercise every shard.
func churnedPair(t *testing.T, seed int64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	build := func(skip, extra, mutate int) *graph.Graph {
		rr := rand.New(rand.NewSource(seed + 100))
		g := graph.New()
		var ases []graph.NodeID
		for asn := int64(1); asn <= 400; asn++ {
			if asn%97 == int64(skip) {
				continue // this generation is missing these ASes
			}
			props := graph.Props{"asn": graph.Int(asn)}
			if asn%89 == int64(mutate) {
				props["name"] = graph.String("MUTATED")
			} else {
				props["name"] = graph.String(fmt.Sprintf("AS-%d", asn))
			}
			ases = append(ases, g.AddNode([]string{"AS"}, props))
		}
		for i := 0; i < extra; i++ {
			g.AddNode([]string{"Tag"}, graph.Props{"label": graph.String(fmt.Sprintf("extra-%d", i))})
		}
		datasets := []string{"bgpkit.pfx2asn", "ripe.as_names", "nro.delegated_stats"}
		for i := 0; i < 1200; i++ {
			from := ases[rr.Intn(len(ases))]
			to := ases[rr.Intn(len(ases))]
			if _, err := g.AddRel("PEERS_WITH", from, to, graph.Props{
				ontology.PropReferenceName: graph.String(datasets[rr.Intn(len(datasets))]),
				"w":                        graph.Int(int64(rr.Intn(5))),
			}); err != nil {
				t.Fatal(err)
			}
		}
		g.Freeze()
		return g
	}
	return build(3, 5, 7), build(5, 9, 11)
}

// TestDiffDeterministicAcrossWorkerCounts is the kernel's core contract:
// the rendered diff (and its JSON form) is byte-identical at every worker
// count and at GOMAXPROCS 1 vs 8. The CI temporal job runs this under
// -race.
func TestDiffDeterministicAcrossWorkerCounts(t *testing.T) {
	a, b := churnedPair(t, 42)
	var wantStr string
	var wantJSON []byte
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4, 8} {
			res := mustDiff(t, a, b, workers)
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if wantStr == "" {
				wantStr, wantJSON = res.String(), js
				if res.Empty() {
					t.Fatal("churned pair produced an empty diff; test is vacuous")
				}
				continue
			}
			if res.String() != wantStr {
				t.Errorf("GOMAXPROCS=%d workers=%d: rendered diff differs:\n%s\nwant:\n%s", procs, workers, res, wantStr)
			}
			if string(js) != string(wantJSON) {
				t.Errorf("GOMAXPROCS=%d workers=%d: JSON differs", procs, workers)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

func TestDiffHonorsContextCancellation(t *testing.T) {
	a, b := churnedPair(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Diff(ctx, a, b, DiffOptions{}); err == nil {
		t.Fatal("diff with cancelled context succeeded")
	}
}

func TestDiffStringRendersEmptyMarker(t *testing.T) {
	r := &DiffResult{From: 3, To: 5}
	s := r.String()
	if want := "generation 3 -> 5"; len(s) == 0 || s[:len(want)] != want {
		t.Fatalf("String() = %q", s)
	}
	if !r.Empty() {
		t.Fatal("zero DiffResult not Empty")
	}
}

// valueZoo builds a generation exercising every value kind — strings,
// ints, floats (integral and not), bools, lists, plus cross-kind numeric
// pairs — with a controlled mutation knob, into the provided empty graph.
func valueZoo(t *testing.T, g *graph.Graph, mutate bool) *graph.Graph {
	t.Helper()
	for asn := int64(1); asn <= 50; asn++ {
		name := fmt.Sprintf("AS Example %d — https://example.net/as/%d", asn, asn)
		if mutate && asn%11 == 3 {
			name += " (renamed)"
		}
		props := graph.Props{
			"asn":   graph.Int(asn),
			"name":  graph.String(name),
			"score": graph.Float(float64(asn) / 3),
			"flag":  graph.Bool(asn%2 == 0),
			"tags":  graph.List(graph.String("tag"), graph.Int(asn%5)),
		}
		if asn%7 == 0 {
			// Cross-kind numeric: the diff's value rendering folds
			// Int(2) and Float(2.0) together; both paths must agree.
			props["score"] = graph.Int(asn)
		}
		a := g.AddNode([]string{"AS"}, props)
		if mutate && asn%13 == 5 {
			continue // drop this AS's origination entirely
		}
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String(fmt.Sprintf("10.%d.0.0/16", asn))})
		if _, err := g.AddRel("ORIGINATE", a, p, graph.Props{
			ontology.PropReferenceName: graph.String("bgpkit.pfx2asn"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

// TestDiffSharedDictionaryMatchesDistinct pins the interned fast path:
// when both generations share one dictionary (delta builds, replica
// reloads), identity keys and fingerprints compare string payloads by
// dictionary id — and the result must be byte-identical to the literal
// comparison two unrelated lineages get.
func TestDiffSharedDictionaryMatchesDistinct(t *testing.T) {
	slowA := valueZoo(t, graph.New(), false)
	slowB := valueZoo(t, graph.New(), true)

	dict := graph.NewInterner()
	fastA := valueZoo(t, graph.NewWithInterner(dict), false)
	fastB := valueZoo(t, graph.NewWithInterner(dict), true)
	if fastA.Interner() != fastB.Interner() {
		t.Fatal("shared-dictionary pair does not share an Interner; fast path never engages")
	}

	want := mustDiff(t, slowA, slowB, 0)
	got := mustDiff(t, fastA, fastB, 0)
	if want.Empty() {
		t.Fatal("mutated zoo produced an empty diff; test is vacuous")
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("shared-dictionary diff differs from distinct-dictionary diff:\n%s\nwant:\n%s", got, want)
	}

	// Identical generations must also stay identical through the fast path.
	sameA := valueZoo(t, graph.NewWithInterner(dict), false)
	if res := mustDiff(t, fastA, sameA, 0); !res.Empty() {
		t.Fatalf("fast-path diff of identical graphs not empty:\n%s", res)
	}
}

// TestDiffAllocCeiling pins the kernel's allocations on the
// full-vs-forced-delta pair at the root tests' scale, across two
// dictionaries as the benchmark diffs it.
func TestDiffAllocCeiling(t *testing.T) {
	const ceiling = 4645 // 3 716 measured; the string-keyed kernel took 3 784 260
	p, _ := simnetDeltaPairs(t)
	allocs := testing.AllocsPerRun(3, func() { mustDiff(t, p.from, p.to, 0) })
	if allocs > ceiling {
		t.Errorf("Diff allocates %.0f objects per call, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkDiffDeltaPair times Diff on the full-vs-forced-delta pair, over
// two dictionaries and over one; run with -benchmem.
func BenchmarkDiffDeltaPair(b *testing.B) {
	distinct, shared := simnetDeltaPairs(b)
	for _, c := range []struct {
		name string
		p    graphPair
	}{{"two-dicts", distinct}, {"shared-dict", shared}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Diff(context.Background(), c.p.from, c.p.to, DiffOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
