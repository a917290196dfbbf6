package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestTypedRelsMatchReference checks the typed adjacency scan against a
// reference built from RelType and RelEndpoints alone: for every node,
// direction and type set, Rels must list exactly the incident
// relationships of those types, each self-loop once under DirBoth, in
// ascending RelID order — the order adjacency lists are appended in and a
// loader rebuilds them in. The graph is seeded with self-loops, type
// alternations, deletes and re-adds, then checked again as a COW clone
// that kept mutating and after a save/load round trip.
func TestTypedRelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	types := []string{"A", "B", "C"}
	g := New()
	var nodes []NodeID
	for range 40 {
		nodes = append(nodes, g.AddNode([]string{"N"}, nil))
	}
	addRels := func(g *Graph, n int) {
		for range n {
			from := nodes[r.Intn(len(nodes))]
			to := from // one in eight is a self-loop
			if r.Intn(8) != 0 {
				to = nodes[r.Intn(len(nodes))]
			}
			if !g.HasNode(from) || !g.HasNode(to) {
				continue
			}
			if _, err := g.AddRel(types[r.Intn(len(types))], from, to, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	deleteRels := func(g *Graph, n int) {
		var live []RelID
		g.EachRel(func(id RelID) bool { live = append(live, id); return true })
		for _, i := range r.Perm(len(live))[:n] {
			if err := g.DeleteRel(live[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	addRels(g, 300)
	deleteRels(g, 60)
	for _, id := range nodes[:3] {
		if err := g.DeleteNode(id); err != nil {
			t.Fatal(err)
		}
	}
	addRels(g, 80)
	checkTypedRels(t, "built", g)

	g.Freeze()
	clone := g.Clone()
	deleteRels(clone, 40)
	addRels(clone, 60)
	checkTypedRels(t, "clone", clone)
	checkTypedRels(t, "parent of clone", g)

	var buf bytes.Buffer
	if err := clone.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkTypedRels(t, "loaded", loaded)
}

func checkTypedRels(t *testing.T, what string, g *Graph) {
	t.Helper()
	var all []RelID
	g.EachRel(func(id RelID) bool { all = append(all, id); return true })
	sets := [][]string{nil, {"A"}, {"B"}, {"C"}, {"A", "B"}, {"C", "A"}, {"A", "B", "C"}}
	loops := 0
	g.EachNode(func(id NodeID) bool {
		for _, names := range sets {
			var ids []uint16
			for _, n := range names {
				tid, ok := g.TypeID(n)
				if !ok {
					t.Fatalf("%s: type %s not stored", what, n)
				}
				ids = append(ids, tid)
			}
			for _, dir := range []Dir{DirOut, DirIn, DirBoth} {
				var want []RelID
				for pass, wantDir := range []Dir{DirOut, DirIn} {
					if dir != DirBoth && dir != wantDir {
						continue
					}
					for _, rid := range all {
						from, to := g.RelEndpoints(rid)
						end := from
						if pass == 1 {
							end = to
						}
						if end != id || dir == DirBoth && pass == 1 && from == to {
							continue
						}
						if len(names) == 0 || slices.Contains(names, g.RelType(rid)) {
							want = append(want, rid)
						}
						if pass == 0 && from == to {
							loops++
						}
					}
				}
				if got := g.Rels(id, dir, ids, nil); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d %s %v: Rels %v, reference %v", what, id, dirName(dir), names, got, want)
				}
			}
		}
		return true
	})
	if loops == 0 {
		t.Fatalf("%s: no self-loops to check", what)
	}
}

func dirName(d Dir) string {
	return [...]string{"out", "in", "both"}[d]
}

// TestRelsAtStretchesMatchRels walks every node's adjacency in stretches
// of a few relationships, from each position RelsAt returns: the stretches
// concatenate to what Rels lists, self-loops under DirBoth included, and a
// stretch read again from its position lists the same relationships.
func TestRelsAtStretchesMatchRels(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := New()
	var nodes []NodeID
	for range 12 {
		nodes = append(nodes, g.AddNode([]string{"N"}, nil))
	}
	for range 200 {
		from, to := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
		if _, err := g.AddRel([]string{"A", "B"}[r.Intn(2)], from, to, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := g.TypeID("A")
	for _, id := range nodes {
		for _, types := range [][]uint16{nil, {a}} {
			for _, dir := range []Dir{DirOut, DirIn, DirBoth} {
				want := g.Rels(id, dir, types, nil)
				for _, limit := range []int{1, 3, 7} {
					var got []RelID
					for pos := 0; ; {
						stretch, next := g.RelsAt(id, dir, types, pos, limit, nil)
						if again, _ := g.RelsAt(id, dir, types, pos, len(stretch), nil); !slices.Equal(again, stretch) {
							t.Fatalf("node %d %s: stretch from %d read %v, then %v", id, dirName(dir), pos, stretch, again)
						}
						got = append(got, stretch...)
						if len(stretch) < limit {
							break
						}
						pos = next
					}
					if !slices.Equal(got, want) {
						t.Fatalf("node %d %s types %v, stretches of %d: %v, Rels %v", id, dirName(dir), types, limit, got, want)
					}
				}
			}
		}
	}
}
