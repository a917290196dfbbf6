package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStoreAgainstShadowModel drives the store with random operation
// sequences and cross-checks every observable against a naive shadow
// implementation: counts, label membership, property lookups, degrees,
// and index results must always agree. The last seeds start from 9 000
// nodes with a distinct indexed value each and publish every operation as
// a generation through an MVStore, so the copy-on-write slot pages, index
// shards and claimed label-set tails are all crossed; the first generation
// must stay byte-identical throughout.
func TestStoreAgainstShadowModel(t *testing.T) {
	type shadowNode struct {
		labels map[string]bool
		props  map[string]int64
	}
	type shadowRel struct {
		typ      string
		from, to NodeID
	}

	labels := []string{"A", "B", "C"}
	types := []string{"R", "S"}

	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := New()
		g.EnsureIndex("A", "v")

		nodes := map[NodeID]*shadowNode{}
		rels := map[RelID]*shadowRel{}
		var nodeIDs []NodeID
		var relIDs []RelID

		// write applies an operation to g, or publishes it as the next
		// generation of st.
		var st *MVStore
		write := func(fn func(g *Graph)) {
			if st == nil {
				fn(g)
				return
			}
			if _, err := st.Update(func(g *Graph) error { fn(g); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		var first *Graph
		var firstBytes []byte
		if seed >= 8 {
			for i := 0; i < 9000; i++ {
				l := labels[i%len(labels)]
				v := int64(5 + i)
				id := g.AddNode([]string{l}, Props{"v": Int(v)})
				nodes[id] = &shadowNode{labels: map[string]bool{l: true}, props: map[string]int64{"v": v}}
				nodeIDs = append(nodeIDs, id)
			}
			st = NewMVStore(g)
			first, firstBytes = g, snapshotBytes(t, g)
		}

		liveNodes := func() []NodeID {
			out := nodeIDs[:0:0]
			for _, id := range nodeIDs {
				if _, ok := nodes[id]; ok {
					out = append(out, id)
				}
			}
			return out
		}

		for op := 0; op < 600; op++ {
			switch r.Intn(10) {
			case 0, 1, 2: // add node
				l := labels[r.Intn(len(labels))]
				v := int64(r.Intn(5))
				var id NodeID
				write(func(g *Graph) { id = g.AddNode([]string{l}, Props{"v": Int(v)}) })
				nodes[id] = &shadowNode{
					labels: map[string]bool{l: true},
					props:  map[string]int64{"v": v},
				}
				nodeIDs = append(nodeIDs, id)
			case 3, 4, 5: // add rel
				live := liveNodes()
				if len(live) < 2 {
					continue
				}
				from := live[r.Intn(len(live))]
				to := live[r.Intn(len(live))]
				ty := types[r.Intn(len(types))]
				var id RelID
				write(func(g *Graph) {
					var err error
					if id, err = g.AddRel(ty, from, to, nil); err != nil {
						t.Fatal(err)
					}
				})
				rels[id] = &shadowRel{ty, from, to}
				relIDs = append(relIDs, id)
			case 6: // set prop
				live := liveNodes()
				if len(live) == 0 {
					continue
				}
				id := live[r.Intn(len(live))]
				v := int64(r.Intn(5))
				write(func(g *Graph) {
					if err := g.SetNodeProp(id, "v", Int(v)); err != nil {
						t.Fatal(err)
					}
				})
				nodes[id].props["v"] = v
			case 7: // add label
				live := liveNodes()
				if len(live) == 0 {
					continue
				}
				id := live[r.Intn(len(live))]
				l := labels[r.Intn(len(labels))]
				write(func(g *Graph) {
					if err := g.AddLabel(id, l); err != nil {
						t.Fatal(err)
					}
				})
				nodes[id].labels[l] = true
			case 8: // delete node (detach)
				live := liveNodes()
				if len(live) == 0 {
					continue
				}
				id := live[r.Intn(len(live))]
				write(func(g *Graph) {
					if err := g.DeleteNode(id); err != nil {
						t.Fatal(err)
					}
				})
				delete(nodes, id)
				for rid, rel := range rels {
					if rel.from == id || rel.to == id {
						delete(rels, rid)
					}
				}
			case 9: // delete rel
				var live []RelID
				for _, id := range relIDs {
					if _, ok := rels[id]; ok {
						live = append(live, id)
					}
				}
				if len(live) == 0 {
					continue
				}
				id := live[r.Intn(len(live))]
				write(func(g *Graph) {
					if err := g.DeleteRel(id); err != nil {
						t.Fatal(err)
					}
				})
				delete(rels, id)
			}
		}

		// --- cross-check every observable ---
		if st != nil {
			g = st.Current()
			if !bytes.Equal(snapshotBytes(t, first), firstBytes) {
				t.Fatalf("seed %d: publishing later generations changed the first", seed)
			}
		}
		if g.NumNodes() != len(nodes) {
			t.Fatalf("seed %d: NumNodes = %d, shadow %d", seed, g.NumNodes(), len(nodes))
		}
		if g.NumRels() != len(rels) {
			t.Fatalf("seed %d: NumRels = %d, shadow %d", seed, g.NumRels(), len(rels))
		}
		for _, l := range labels {
			want := 0
			for _, sn := range nodes {
				if sn.labels[l] {
					want++
				}
			}
			if got := g.CountByLabel(l); got != want {
				t.Fatalf("seed %d: CountByLabel(%s) = %d, shadow %d", seed, l, got, want)
			}
		}
		for id, sn := range nodes {
			for _, l := range labels {
				if g.NodeHasLabel(id, l) != sn.labels[l] {
					t.Fatalf("seed %d: node %d label %s mismatch", seed, id, l)
				}
			}
			if got, _ := g.NodeProp(id, "v").AsInt(); got != sn.props["v"] {
				t.Fatalf("seed %d: node %d prop v = %d, shadow %d", seed, id, got, sn.props["v"])
			}
			// Degree agrees.
			wantDeg := 0
			for _, rel := range rels {
				if rel.from == id {
					wantDeg++
				}
				if rel.to == id && rel.from != id {
					wantDeg++
				}
			}
			if got := g.Degree(id, DirBoth, nil); got != wantDeg {
				t.Fatalf("seed %d: node %d degree = %d, shadow %d", seed, id, got, wantDeg)
			}
		}
		// Indexed lookup agrees with a shadow scan.
		for _, v := range []int64{0, 1, 2, 3, 4, 5 + r.Int63n(9000), 5 + r.Int63n(9000)} {
			want := 0
			for _, sn := range nodes {
				if sn.labels["A"] && sn.props["v"] == v {
					want++
				}
			}
			if got := len(g.NodesByProp("A", "v", Int(v))); got != want {
				t.Fatalf("seed %d: NodesByProp(A, v, %d) = %d, shadow %d", seed, v, got, want)
			}
		}
		// Snapshot round-trip preserves the final state.
		var equal bool
		func() {
			defer func() { equal = recover() == nil }()
			gg := mustRoundTrip(t, g)
			if gg.NumNodes() != len(nodes) || gg.NumRels() != len(rels) {
				panic("round-trip mismatch")
			}
		}()
		if !equal {
			t.Fatalf("seed %d: snapshot round-trip failed", seed)
		}
	}
}

func mustRoundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	gg, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return gg
}
