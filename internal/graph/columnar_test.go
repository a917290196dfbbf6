package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// This file is the columnar layout's equivalence suite: the columnar store
// must be observationally identical to the boxed (map-of-Values) layout it
// replaced. A shadow model maintains the boxed view alongside every
// mutation; the store, its snapshots, and dictionary-seeded reloads are
// all checked against it.

// boxedModel is the reference implementation: plain maps, no interning.
type boxedModel struct {
	labels map[NodeID][]string
	props  map[NodeID]Props
}

func newBoxedModel() *boxedModel {
	return &boxedModel{labels: map[NodeID][]string{}, props: map[NodeID]Props{}}
}

func (m *boxedModel) add(id NodeID, labels []string, props Props) {
	m.labels[id] = append([]string(nil), labels...)
	p := Props{}
	for k, v := range props {
		p[k] = v
	}
	m.props[id] = p
}

func (m *boxedModel) set(id NodeID, key string, v Value) {
	if v.IsNull() {
		delete(m.props[id], key)
		return
	}
	m.props[id][key] = v
}

func (m *boxedModel) check(t *testing.T, g *Graph, when string) {
	t.Helper()
	for id, want := range m.props {
		got := g.NodeProps(id)
		if len(got) != len(want) {
			t.Fatalf("%s: node %d has %d props, model has %d (%v vs %v)", when, id, len(got), len(want), got, want)
		}
		for k, v := range want {
			gv := g.NodeProp(id, k)
			if !gv.Equal(v) {
				t.Fatalf("%s: node %d prop %s = %v (kind %d), model %v (kind %d)", when, id, k, gv, gv.Kind(), v, v.Kind())
			}
			// Kind fidelity is stronger than Equal (Int(2).Equal(Float(2))):
			// the columnar encode/decode must round-trip the exact kind.
			if gv.Kind() != v.Kind() {
				t.Fatalf("%s: node %d prop %s kind %d, model kind %d", when, id, k, gv.Kind(), v.Kind())
			}
		}
		wantL := m.labels[id]
		gotL := g.NodeLabels(id)
		if len(gotL) != len(wantL) {
			t.Fatalf("%s: node %d labels %v, model %v", when, id, gotL, wantL)
		}
		for _, l := range wantL {
			if !g.NodeHasLabel(id, l) {
				t.Fatalf("%s: node %d lost label %s", when, id, l)
			}
		}
	}
}

// zooValue produces values across every kind, biased toward collisions:
// repeated strings (interning), numbers that straddle the int/float fold,
// lists mixing kinds, negative and extreme numerics.
func zooValue(r *rand.Rand) Value {
	switch r.Intn(12) {
	case 0:
		return Int(int64(r.Intn(10)))
	case 1:
		return Int(-1 << 62)
	case 2:
		return Float(float64(r.Intn(10))) // integral float: folds with Int in indexes
	case 3:
		return Float(r.NormFloat64())
	case 4:
		return Bool(r.Intn(2) == 0)
	case 5:
		return String(fmt.Sprintf("shared-%d", r.Intn(5)))
	case 6:
		return String(fmt.Sprintf("https://example.net/very/long/provenance/url/%d", r.Intn(50)))
	case 7:
		return String("") // empty string is a valid, distinct payload
	case 8:
		return List(Int(2), String("x"))
	case 9:
		return List(Float(2), String("x")) // same rendering as above, different kinds
	case 10:
		return List()
	default:
		return List(String(fmt.Sprintf("t%d", r.Intn(3))), Bool(true), Float(0.5))
	}
}

// buildZoo builds a randomized graph and its boxed shadow model.
func buildZoo(t *testing.T, g *Graph, seed int64, nodes int) *boxedModel {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := newBoxedModel()
	labels := []string{"AS", "Prefix", "IP", "HostName", "Tag", "Org"}
	keys := []string{"id", "name", "score", "flag", "tags", "cc", "ref"}
	var ids []NodeID
	for i := 0; i < nodes; i++ {
		props := Props{"id": Int(int64(i))}
		for _, k := range keys[1:] {
			if r.Intn(3) == 0 {
				props[k] = zooValue(r)
			}
		}
		nl := []string{labels[r.Intn(len(labels))]}
		if r.Intn(3) == 0 {
			nl = append(nl, labels[r.Intn(len(labels))])
		}
		id := g.AddNode(nl, props)
		ids = append(ids, id)
		m.add(id, g.NodeLabels(id), props)
	}
	// Overwrites, clears, and late label additions.
	for i := 0; i < nodes; i++ {
		id := ids[r.Intn(len(ids))]
		k := keys[r.Intn(len(keys))]
		var v Value
		if r.Intn(4) == 0 {
			v = Null()
		} else {
			v = zooValue(r)
		}
		if err := g.SetNodeProp(id, k, v); err != nil {
			t.Fatal(err)
		}
		m.set(id, k, v)
		if r.Intn(8) == 0 {
			l := labels[r.Intn(len(labels))]
			if err := g.AddLabel(id, l); err != nil {
				t.Fatal(err)
			}
			m.labels[id] = g.NodeLabels(id)
		}
	}
	types := []string{"ORIGINATE", "RESOLVES_TO", "MEMBER_OF"}
	for i := 0; i < nodes*2; i++ {
		props := Props{"w": Int(int64(i))}
		if r.Intn(2) == 0 {
			props["reference_name"] = String(fmt.Sprintf("dataset.%d", r.Intn(4)))
		}
		if _, err := g.AddRel(types[r.Intn(len(types))], ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], props); err != nil {
			t.Fatal(err)
		}
	}
	// Deletions leave tombstone slots for the snapshot to carry.
	for i := 0; i < nodes/10; i++ {
		id := ids[r.Intn(len(ids))]
		if err := g.DeleteNode(id); err == nil {
			delete(m.props, id)
			delete(m.labels, id)
		}
	}
	g.EnsureIndex("AS", "id")
	g.EnsureIndex("Prefix", "name")
	return m
}

// TestColumnarMatchesBoxedModel drives randomized mutations through the
// columnar store and checks the public property/label API against the
// boxed shadow model, live and across a snapshot round-trip — with both a
// fresh and a seeded (pre-populated, foreign-id) dictionary.
func TestColumnarMatchesBoxedModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := New()
		m := buildZoo(t, g, seed, 300)
		m.check(t, g, fmt.Sprintf("seed %d live", seed))

		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}

		fresh, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		m.check(t, fresh, fmt.Sprintf("seed %d fresh load", seed))
		graphsEquivalent(t, g, fresh)

		// A seeded dictionary already holding unrelated strings forces the
		// loader's file-id → global-id remap onto non-contiguous ids.
		dict := NewInterner()
		for i := 0; i < 100; i++ {
			dict.intern(fmt.Sprintf("unrelated-%d", i))
		}
		seeded, rep, err := LoadWith(bytes.NewReader(buf.Bytes()), LoadOptions{Dict: dict})
		if err != nil {
			t.Fatal(err)
		}
		if rep.DictStrings == 0 || rep.DictReused != 0 {
			t.Fatalf("seeded load report = %+v, want strings > 0, reused 0", rep)
		}
		m.check(t, seeded, fmt.Sprintf("seed %d seeded load", seed))
		graphsEquivalent(t, g, seeded)

		// Loading again with the now-warm dictionary reuses every string.
		warm, rep2, err := LoadWith(bytes.NewReader(buf.Bytes()), LoadOptions{Dict: dict})
		if err != nil {
			t.Fatal(err)
		}
		if rep2.DictReused != rep2.DictStrings {
			t.Fatalf("warm load reused %d of %d strings, want all", rep2.DictReused, rep2.DictStrings)
		}
		m.check(t, warm, fmt.Sprintf("seed %d warm load", seed))
	}
}

// TestColumnarIndexLookupsMatchScan cross-checks NodesByProp (interned
// bucket keys) against a full scan with Value.Equal for every stored value
// — including the Int/Float fold and list payloads — plus probes for
// values that were never stored (the dictionary-miss fast path).
func TestColumnarIndexLookupsMatchScan(t *testing.T) {
	g := New()
	buildZoo(t, g, 99, 300)
	g.EnsureIndex("AS", "name")
	g.EnsureIndex("AS", "score")
	g.EnsureIndex("AS", "tags")

	scan := func(label, key string, v Value) map[NodeID]bool {
		want := map[NodeID]bool{}
		for _, id := range g.NodesByLabel(label) {
			if g.NodeProp(id, key).Equal(v) {
				want[id] = true
			}
		}
		return want
	}
	check := func(label, key string, v Value) {
		t.Helper()
		want := scan(label, key, v)
		got := map[NodeID]bool{}
		for _, id := range g.NodesByProp(label, key, v) {
			got[id] = true
		}
		if len(got) != len(want) {
			t.Fatalf("NodesByProp(%s,%s,%v) = %d nodes, scan %d", label, key, v, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("NodesByProp(%s,%s,%v) missing node %d", label, key, v, id)
			}
		}
	}

	probes := []Value{
		String("shared-1"), String(""), String("never-stored"),
		Int(3), Float(3), Float(0.5), Bool(true),
		List(Int(2), String("x")), List(Float(2), String("x")), List(),
	}
	for _, v := range probes {
		check("AS", "name", v)
		check("AS", "score", v)
		check("AS", "tags", v)
	}
}

// TestCOWStormSharedInterner is the -race gate over the shared dictionary:
// concurrent clones of one frozen generation intern overlapping string
// sets while readers hammer the frozen parent's lookups, scans, and index
// probes. Any unsynchronized access to the shared intern table or the
// structurally-shared columns is a data race the race detector flags. The
// writers also append to the base's AS label set, whose backing array has a
// claimed tail with room, so they race for the same slot.
func TestCOWStormSharedInterner(t *testing.T) {
	base := New()
	var asIDs []NodeID
	for i := 0; i < 200; i++ {
		asIDs = append(asIDs, base.AddNode([]string{"AS"}, Props{
			"asn":  Int(int64(i)),
			"name": String(fmt.Sprintf("AS Example %d", i)),
		}))
	}
	base.EnsureIndex("AS", "asn")
	base.Freeze()

	const writers, readers, rounds = 4, 4, 50
	var wg sync.WaitGroup
	clones := make([]*Graph, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := base.Clone()
			clones[w] = c
			for i := 0; i < rounds; i++ {
				// Half the strings overlap across writers (contended
				// intern appends), half are writer-private.
				shared := fmt.Sprintf("storm-shared-%d", i%10)
				private := fmt.Sprintf("storm-w%d-%d", w, i)
				id := c.AddNode([]string{"Tag"}, Props{"label": String(shared), "own": String(private)})
				if err := c.SetNodeProp(id, "extra", List(String(shared), Int(int64(i)))); err != nil {
					panic(err)
				}
				if err := c.SetNodeProp(asIDs[i%len(asIDs)], "name", String(shared)); err != nil {
					panic(err)
				}
				c.AddNode([]string{"AS"}, Props{"asn": Int(int64(1000 + w*rounds + i))})
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Frozen-parent reads race only if sharing is broken.
				id := asIDs[(i*7+rd)%len(asIDs)]
				if v := base.NodeProp(id, "name"); v.IsNull() {
					panic("frozen node lost its name")
				}
				base.NodesByProp("AS", "asn", Int(int64(i%200)))
				base.BulkRead(func(br *BulkReader) {
					br.EachNodeProp(id, func(string, Value) {})
				})
				if n := len(base.NodesByLabel("AS")); n != 200 {
					panic(fmt.Sprintf("frozen NodesByLabel = %d nodes", n))
				}
			}
		}(rd)
	}
	wg.Wait()

	// Every clone saw only its own writes on top of the shared base.
	for w, c := range clones {
		if got := c.CountByLabel("Tag"); got != rounds {
			t.Fatalf("clone %d has %d Tag nodes, want %d", w, got, rounds)
		}
		if got := c.NodesByLabel("AS"); len(got) != 200+rounds || got[200] != NodeID(200+2) {
			t.Fatalf("clone %d has %d AS nodes, from the 201st %v, want %d from node 202", w, len(got), got[200:201], 200+rounds)
		}
	}
	if base.NumNodes() != 200 {
		t.Fatalf("frozen base mutated: %d nodes", base.NumNodes())
	}
	// And all clones share one dictionary with the base.
	for w, c := range clones {
		if c.Interner() != base.Interner() {
			t.Fatalf("clone %d does not share the base dictionary", w)
		}
	}
}
