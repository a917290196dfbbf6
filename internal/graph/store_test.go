package graph

import (
	"fmt"
	"sync"
	"testing"
)

func TestAddNodeAndLabels(t *testing.T) {
	g := New()
	id := g.AddNode([]string{"AS", "Tagged"}, Props{"asn": Int(2497)})
	if id == 0 || !g.HasNode(id) {
		t.Fatal("AddNode returned invalid id")
	}
	if got := g.NodeLabels(id); len(got) != 2 || got[0] != "AS" || got[1] != "Tagged" {
		t.Errorf("NodeLabels = %v", got)
	}
	if !g.NodeHasLabel(id, "AS") || g.NodeHasLabel(id, "Prefix") {
		t.Error("NodeHasLabel wrong")
	}
	if err := g.AddLabel(id, "Extra"); err != nil {
		t.Fatal(err)
	}
	if !g.NodeHasLabel(id, "Extra") {
		t.Error("AddLabel did not stick")
	}
	// Adding the same label twice is a no-op.
	if err := g.AddLabel(id, "Extra"); err != nil {
		t.Fatal(err)
	}
	if got := len(g.NodeLabels(id)); got != 3 {
		t.Errorf("labels after duplicate add = %d, want 3", got)
	}
	if err := g.AddLabel(999, "X"); err == nil {
		t.Error("AddLabel on missing node should fail")
	}
}

func TestNodeProps(t *testing.T) {
	g := New()
	id := g.AddNode([]string{"AS"}, Props{"asn": Int(1)})
	if v := g.NodeProp(id, "asn"); !v.Equal(Int(1)) {
		t.Errorf("NodeProp = %v", v)
	}
	if !g.NodeProp(id, "missing").IsNull() {
		t.Error("missing prop should be Null")
	}
	if err := g.SetNodeProp(id, "name", String("IIJ")); err != nil {
		t.Fatal(err)
	}
	if v := g.NodeProp(id, "name"); !v.Equal(String("IIJ")) {
		t.Errorf("after set, NodeProp = %v", v)
	}
	// Setting Null clears.
	if err := g.SetNodeProp(id, "name", Null()); err != nil {
		t.Fatal(err)
	}
	if !g.NodeProp(id, "name").IsNull() {
		t.Error("Null set should clear the property")
	}
	// NodeProps returns a copy.
	p := g.NodeProps(id)
	p["asn"] = Int(99)
	if !g.NodeProp(id, "asn").Equal(Int(1)) {
		t.Error("NodeProps exposed internal state")
	}
}

func TestRelationships(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"AS"}, nil)
	b := g.AddNode([]string{"Prefix"}, nil)
	rid, err := g.AddRel("ORIGINATE", a, b, Props{"count": Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if g.RelType(rid) != "ORIGINATE" {
		t.Errorf("RelType = %q", g.RelType(rid))
	}
	from, to := g.RelEndpoints(rid)
	if from != a || to != b {
		t.Errorf("endpoints = %d->%d", from, to)
	}
	if v := g.RelProp(rid, "count"); !v.Equal(Int(2)) {
		t.Errorf("RelProp = %v", v)
	}
	if err := g.SetRelProp(rid, "count", Int(3)); err != nil {
		t.Fatal(err)
	}
	if v := g.RelProp(rid, "count"); !v.Equal(Int(3)) {
		t.Errorf("RelProp after set = %v", v)
	}
	// Missing endpoints rejected.
	if _, err := g.AddRel("X", a, 999, nil); err == nil {
		t.Error("AddRel with missing endpoint should fail")
	}

	// Traversal.
	out := g.Rels(a, DirOut, nil, nil)
	if len(out) != 1 || out[0] != rid {
		t.Errorf("Rels(out) = %v", out)
	}
	if got := g.Rels(a, DirIn, nil, nil); len(got) != 0 {
		t.Errorf("Rels(in) = %v", got)
	}
	orig, _ := g.TypeID("ORIGINATE")
	if got := g.Rels(b, DirIn, []uint16{orig}, nil); len(got) != 1 {
		t.Errorf("Rels(b, in, typed) = %v", got)
	}
	if _, ok := g.TypeID("NOPE"); ok {
		t.Error("TypeID resolved a type never stored")
	}
	if d := g.Degree(a, DirBoth, nil); d != 1 {
		t.Errorf("Degree = %d", d)
	}
}

func TestSelfLoopNotDoubleCounted(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"N"}, nil)
	if _, err := g.AddRel("LOOP", a, a, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.Rels(a, DirBoth, nil, nil); len(got) != 1 {
		t.Errorf("self-loop appears %d times in DirBoth, want 1", len(got))
	}
	if got := g.Rels(a, DirOut, nil, nil); len(got) != 1 {
		t.Errorf("self-loop out degree = %d", len(got))
	}
}

// TestRelsReusesBuffer pins the matcher's contract with Rels: a typed
// adjacency scan into a buffer with room allocates nothing.
func TestRelsReusesBuffer(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"N"}, nil)
	for i := 0; i < 8; i++ {
		b := g.AddNode([]string{"N"}, nil)
		for _, typ := range []string{"T", "U"} {
			if _, err := g.AddRel(typ, a, b, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := g.AddRel(typ, b, a, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]RelID, 0, 64)
	tid, _ := g.TypeID("T")
	types := []uint16{tid}
	var got []RelID
	allocs := testing.AllocsPerRun(100, func() {
		got = g.Rels(a, DirBoth, types, buf[:0])
	})
	if len(got) != 16 {
		t.Fatalf("Rels(DirBoth, T) = %d rels, want 16", len(got))
	}
	if allocs != 0 {
		t.Errorf("Rels into a buffer with room: %v allocs per call, want 0", allocs)
	}
}

func TestDeleteRelAndNode(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"A"}, nil)
	b := g.AddNode([]string{"B"}, nil)
	rid, _ := g.AddRel("R", a, b, nil)
	if err := g.DeleteRel(rid); err != nil {
		t.Fatal(err)
	}
	if g.NumRels() != 0 || len(g.Rels(a, DirBoth, nil, nil)) != 0 {
		t.Error("DeleteRel left residue")
	}
	if err := g.DeleteRel(rid); err == nil {
		t.Error("double delete should fail")
	}

	// DeleteNode detaches.
	rid2, _ := g.AddRel("R", a, b, nil)
	_ = rid2
	if err := g.DeleteNode(a); err != nil {
		t.Fatal(err)
	}
	if g.HasNode(a) {
		t.Error("node still present after delete")
	}
	if g.NumRels() != 0 {
		t.Error("DeleteNode did not detach relationships")
	}
	if len(g.NodesByLabel("A")) != 0 {
		t.Error("label index not updated on delete")
	}
	if err := g.DeleteNode(a); err == nil {
		t.Error("double node delete should fail")
	}
}

func TestNodesByLabelAndScan(t *testing.T) {
	g := New()
	var asIDs []NodeID
	for i := 0; i < 5; i++ {
		asIDs = append(asIDs, g.AddNode([]string{"AS"}, Props{"asn": Int(int64(i))}))
	}
	g.AddNode([]string{"Prefix"}, nil)
	if got := g.NodesByLabel("AS"); len(got) != 5 {
		t.Errorf("NodesByLabel = %d ids", len(got))
	}
	if got := g.CountByLabel("AS"); got != 5 {
		t.Errorf("CountByLabel = %d", got)
	}
	if got := g.CountByLabel("Nope"); got != 0 {
		t.Errorf("CountByLabel(Nope) = %d", got)
	}
	count := 0
	g.EachNode(func(NodeID) bool { count++; return true })
	if count != 6 {
		t.Errorf("EachNode visited %d", count)
	}
	count = 0
	g.EachNode(func(NodeID) bool { count++; return false })
	if count != 1 {
		t.Errorf("EachNode early stop visited %d", count)
	}
}

func TestPropIndexAndNodesByProp(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.AddNode([]string{"AS"}, Props{"asn": Int(int64(i % 3))})
	}
	// Unindexed lookup falls back to scanning.
	if got := g.NodesByProp("AS", "asn", Int(1)); len(got) != 3 {
		t.Errorf("scan NodesByProp = %d", len(got))
	}
	g.EnsureIndex("AS", "asn")
	if !g.HasIndex("AS", "asn") {
		t.Error("HasIndex after EnsureIndex = false")
	}
	if got := g.NodesByProp("AS", "asn", Int(1)); len(got) != 3 {
		t.Errorf("indexed NodesByProp = %d", len(got))
	}
	// Index follows updates.
	id := g.NodesByProp("AS", "asn", Int(1))[0]
	if err := g.SetNodeProp(id, "asn", Int(7)); err != nil {
		t.Fatal(err)
	}
	if got := g.NodesByProp("AS", "asn", Int(1)); len(got) != 2 {
		t.Errorf("after update NodesByProp(1) = %d", len(got))
	}
	if got := g.NodesByProp("AS", "asn", Int(7)); len(got) != 1 || got[0] != id {
		t.Errorf("after update NodesByProp(7) = %v", got)
	}
	// Index follows deletion.
	if err := g.DeleteNode(id); err != nil {
		t.Fatal(err)
	}
	if got := g.NodesByProp("AS", "asn", Int(7)); len(got) != 0 {
		t.Errorf("after delete NodesByProp(7) = %v", got)
	}
}

func TestMergeNode(t *testing.T) {
	g := New()
	id1, created := g.MergeNode("AS", "asn", Int(2497), nil, Props{"src": String("a")})
	if !created {
		t.Error("first merge should create")
	}
	id2, created := g.MergeNode("AS", "asn", Int(2497), []string{"Extra"}, Props{"src": String("b"), "new": Int(1)})
	if created || id1 != id2 {
		t.Errorf("second merge created=%v id=%d want existing %d", created, id2, id1)
	}
	// Existing property wins; new properties merge in.
	if v := g.NodeProp(id1, "src"); !v.Equal(String("a")) {
		t.Errorf("existing prop overwritten: %v", v)
	}
	if v := g.NodeProp(id1, "new"); !v.Equal(Int(1)) {
		t.Errorf("new prop not merged: %v", v)
	}
	if !g.NodeHasLabel(id1, "Extra") {
		t.Error("extra label not added on merge")
	}
	// Different identity creates a new node.
	id3, created := g.MergeNode("AS", "asn", Int(65001), nil, nil)
	if !created || id3 == id1 {
		t.Error("different identity should create")
	}
}

func TestMergeNodeConcurrent(t *testing.T) {
	// Concurrent upserts of the same identity must converge to one node
	// (the property that lets crawlers run in parallel).
	g := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.MergeNode("AS", "asn", Int(int64(i%50)), nil, nil)
			}
		}()
	}
	wg.Wait()
	if got := g.CountByLabel("AS"); got != 50 {
		t.Errorf("concurrent merge created %d nodes, want 50", got)
	}
}

func TestConcurrentMixedReadWrite(t *testing.T) {
	g := New()
	seed := g.AddNode([]string{"Seed"}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := g.AddNode([]string{"N"}, Props{"w": Int(int64(w))})
				if _, err := g.AddRel("R", seed, id, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Rels(seed, DirBoth, nil, nil)
				g.CountByLabel("N")
				g.Stats()
			}
		}()
	}
	wg.Wait()
	if g.NumNodes() != 401 || g.NumRels() != 400 {
		t.Errorf("final counts: %d nodes %d rels", g.NumNodes(), g.NumRels())
	}
}

func TestLabelsAndRelTypes(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"B", "A"}, nil)
	b := g.AddNode([]string{"C"}, nil)
	if _, err := g.AddRel("Z", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRel("Y", a, b, nil); err != nil {
		t.Fatal(err)
	}
	labels := g.Labels()
	if fmt.Sprint(labels) != "[A B C]" {
		t.Errorf("Labels = %v", labels)
	}
	if fmt.Sprint(g.RelTypes()) != "[Y Z]" {
		t.Errorf("RelTypes = %v", g.RelTypes())
	}
}

func TestStats(t *testing.T) {
	g := New()
	a := g.AddNode([]string{"AS"}, nil)
	b := g.AddNode([]string{"AS"}, nil)
	p := g.AddNode([]string{"Prefix"}, nil)
	_, _ = g.AddRel("ORIGINATE", a, p, nil)
	_, _ = g.AddRel("PEERS_WITH", a, b, nil)
	st := g.Stats()
	if st.Nodes != 3 || st.Rels != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if st.ByLabel["AS"] != 2 || st.ByLabel["Prefix"] != 1 {
		t.Errorf("ByLabel = %v", st.ByLabel)
	}
	if st.ByRelType["ORIGINATE"] != 1 {
		t.Errorf("ByRelType = %v", st.ByRelType)
	}
	if s := st.String(); len(s) == 0 {
		t.Error("Stats.String empty")
	}
}

// TestNodesByPropListScan checks the unindexed scan on a list value: a
// stored list is found by an equal probe list, numerically equal elements
// included, on a fresh graph where nothing has interned the list's
// normalized key; and the read interns nothing into the dictionary.
func TestNodesByPropListScan(t *testing.T) {
	g := New()
	id := g.AddNode([]string{"A"}, Props{"tags": List(Int(1), Int(2))})
	g.AddNode([]string{"A"}, Props{"tags": List(Int(1))})
	before := g.Interner().Len()
	for _, probe := range []Value{List(Int(1), Int(2)), List(Float(1), Int(2))} {
		if got := g.NodesByProp("A", "tags", probe); len(got) != 1 || got[0] != id {
			t.Errorf("NodesByProp(A, tags, %v) = %v, want [%d]", probe, got, id)
		}
	}
	if got := g.NodesByProp("A", "tags", List(Int(2), Int(1))); len(got) != 0 {
		t.Errorf("NodesByProp(A, tags, [2, 1]) = %v, want none", got)
	}
	if after := g.Interner().Len(); after != before {
		t.Errorf("a read grew the dictionary from %d to %d strings", before, after)
	}
}
