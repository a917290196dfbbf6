package graph

import (
	"bytes"
	"testing"
)

// bruteStats recomputes the planner statistics from scratch so the tests
// can assert the incrementally-maintained counters never drift.
func bruteStats(g *Graph) (typeCounts []int, labelKey map[propIdxID]int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	typeCounts = make([]int, len(g.typeNames))
	for i := range g.rels.n {
		r := g.rels.at(i)
		if r != nil {
			typeCounts[r.typ]++
		}
	}
	labelKey = make(map[propIdxID]int)
	for i := range g.nodes.n {
		n := g.nodes.at(i)
		if n == nil {
			continue
		}
		for _, lid := range g.lsets[n.lset] {
			for _, e := range n.cprops {
				labelKey[propIdxID{lid, e.key}]++
			}
		}
	}
	return typeCounts, labelKey
}

func checkStats(t *testing.T, g *Graph, when string) {
	t.Helper()
	wantTypes, wantLK := bruteStats(g)
	g.mu.RLock()
	gotTypes := append([]int(nil), g.typeCounts...)
	gotLK := make(map[propIdxID]int, len(g.labelKeyCount))
	for k, v := range g.labelKeyCount {
		gotLK[k] = v
	}
	g.mu.RUnlock()
	if len(gotTypes) != len(wantTypes) {
		t.Fatalf("%s: typeCounts length = %d, want %d", when, len(gotTypes), len(wantTypes))
	}
	for i := range wantTypes {
		if gotTypes[i] != wantTypes[i] {
			t.Errorf("%s: typeCounts[%d] = %d, want %d", when, i, gotTypes[i], wantTypes[i])
		}
	}
	for k, want := range wantLK {
		if gotLK[k] != want {
			t.Errorf("%s: labelKeyCount[%v] = %d, want %d", when, k, gotLK[k], want)
		}
	}
	for k, got := range gotLK {
		if _, ok := wantLK[k]; !ok {
			t.Errorf("%s: labelKeyCount has stale entry %v = %d", when, k, got)
		}
		if got == 0 {
			t.Errorf("%s: labelKeyCount holds zero entry %v", when, k)
		}
	}
}

func TestStatsIncrementalMatchesBruteForce(t *testing.T) {
	g := New()
	checkStats(t, g, "empty")

	a := g.AddNode([]string{"AS"}, Props{"asn": Int(1), "name": String("one")})
	b := g.AddNode([]string{"AS", "Org"}, Props{"asn": Int(2)})
	c := g.AddNode([]string{"Prefix"}, Props{"prefix": String("10.0.0.0/8")})
	checkStats(t, g, "after adds")

	r1, err := g.AddRel("PEERS_WITH", a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRel("ORIGINATE", a, c, Props{"count": Int(3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRel("PEERS_WITH", b, a, nil); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after rels")

	// Property set, overwrite, and clear.
	if err := g.SetNodeProp(a, "country", String("NL")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(a, "country", String("DE")); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after prop set/overwrite")
	if err := g.SetNodeProp(a, "name", Null()); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after prop clear")

	// Adding a label re-counts the node's props under the new label.
	if err := g.AddLabel(c, "Resource"); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after add label")

	// Indexes must not change the counters (they only add Distinct).
	g.EnsureIndex("AS", "asn")
	checkStats(t, g, "after EnsureIndex")

	if err := g.DeleteRel(r1); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after rel delete")

	// DETACH DELETE removes the node's props from every label's count and
	// its relationships from the type counts.
	if err := g.DeleteNode(a); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after node delete")
}

func TestStatsBatchApply(t *testing.T) {
	g := New()
	seed := g.AddNode([]string{"AS"}, Props{"asn": Int(10)})

	bt := NewBatch()
	n1 := bt.MergeNode("AS", "asn", Int(10), []string{"Anycast"}, Props{"name": String("ten")})
	n2 := bt.MergeNode("Prefix", "prefix", String("192.0.2.0/24"), nil, nil)
	if err := bt.AddRel("ORIGINATE", n1, n2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ApplyBatch(bt); err != nil {
		t.Fatal(err)
	}
	checkStats(t, g, "after batch")

	if got, _ := g.NodeProp(seed, "name").AsString(); got != "ten" {
		t.Fatalf("merge did not land on seed node: name = %q", got)
	}
}

func TestStatsSurviveSnapshotRoundTrip(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"AS"}, Props{"asn": Int(64500), "name": String("x")})
	b := g.AddNode([]string{"AS"}, Props{"asn": Int(64501)})
	p := g.AddNode([]string{"Prefix"}, Props{"prefix": String("198.51.100.0/24")})
	if _, err := g.AddRel("PEERS_WITH", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRel("ORIGINATE", a, p, nil); err != nil {
		t.Fatal(err)
	}
	g.EnsureIndex("AS", "asn")

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkStats(t, g2, "after snapshot round trip")

	ps := g2.PropCardinality("AS", "asn")
	if ps.WithKey != 2 || !ps.Indexed || ps.Distinct != 2 {
		t.Fatalf("PropCardinality(AS, asn) = %+v, want WithKey=2 Indexed=true Distinct=2", ps)
	}
	if got := g2.RelTypeCardinality("PEERS_WITH"); got != 1 {
		t.Fatalf("RelTypeCardinality(PEERS_WITH) = %d, want 1", got)
	}
}

func TestPropCardinalityAPI(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.AddNode([]string{"AS"}, Props{"asn": Int(int64(i)), "cc": String("NL")})
	}
	g.AddNode([]string{"AS"}, nil) // no props

	ps := g.PropCardinality("AS", "asn")
	if ps.WithKey != 10 || ps.Indexed {
		t.Fatalf("before index: %+v, want WithKey=10 Indexed=false", ps)
	}
	if got := ps.Selectivity(); got != 10 {
		t.Fatalf("unindexed Selectivity = %v, want 10 (conservative)", got)
	}

	g.EnsureIndex("AS", "asn")
	g.EnsureIndex("AS", "cc")
	if ps = g.PropCardinality("AS", "asn"); !ps.Indexed || ps.Distinct != 10 {
		t.Fatalf("asn after index: %+v, want Distinct=10", ps)
	}
	if got := ps.Selectivity(); got != 1 {
		t.Fatalf("asn Selectivity = %v, want 1", got)
	}
	if ps = g.PropCardinality("AS", "cc"); ps.Distinct != 1 || ps.WithKey != 10 {
		t.Fatalf("cc after index: %+v, want WithKey=10 Distinct=1", ps)
	}

	if ps = g.PropCardinality("Nope", "x"); ps != (PropStats{}) {
		t.Fatalf("unknown label: %+v, want zero", ps)
	}
	if got := g.RelTypeCardinality("NONE"); got != 0 {
		t.Fatalf("RelTypeCardinality(NONE) = %d, want 0", got)
	}
	if got := g.RelTypeDegree("NONE"); got != 0 {
		t.Fatalf("RelTypeDegree(NONE) = %d, want 0", int(got))
	}
	if _, err := g.AddRel("PEERS_WITH", 1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := g.RelTypeDegree("PEERS_WITH"), 1.0/11; got != want {
		t.Fatalf("RelTypeDegree(PEERS_WITH) = %v, want %v", got, want)
	}
}
