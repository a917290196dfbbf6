package graph

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// indexState renders every label set and index bucket of g by name and
// decoded key, so graphs with different dictionaries compare equal when
// their indexes hold the same members. Snapshots carry only index
// declarations, so this is what catches a clone writing into a set or
// shard it shares. It also checks each index's bookkeeping: every bucket
// sits in the shard its key hashes to, none is empty, and the kept count
// is the real one.
func indexState(t *testing.T, g *Graph) string {
	t.Helper()
	var lines []string
	for lid, s := range g.labelIdx {
		lines = append(lines, fmt.Sprintf("label %s %v", g.labelNames[lid], s.sorted()))
	}
	for pid, idx := range g.propIdx {
		name := g.labelNames[pid.label] + "." + g.dict.str(pid.key)
		n := 0
		for _, sh := range idx.shards {
			for k, s := range sh.buckets {
				n++
				if idx.get(k) != s {
					t.Errorf("%s: bucket %v is not in the shard its key selects", name, k)
				}
				if s.size() == 0 {
					t.Errorf("%s: bucket %v is empty", name, k)
				}
				key := fmt.Sprintf("%d:%v:%d", k.kind, k.b, k.num)
				if k.kind == KindString || k.kind == KindList {
					key = fmt.Sprintf("%d:%q", k.kind, g.dict.str(uint32(k.num)))
				}
				lines = append(lines, fmt.Sprintf("index %s %s %v", name, key, s.sorted()))
			}
		}
		if n != idx.n {
			t.Errorf("%s holds %d buckets, counts %d", name, n, idx.n)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// bigSeedN puts the last node and relationship pages two slots short of
// full, so a few appends cross into a fourth page.
const bigSeedN = 3*slotPageSize - 2

// bigSeedGraph is seedGraph at a size that crosses every COW boundary:
// three slot pages of nodes and of relationships, an asn index of thousands
// of buckets (many shard doublings) and an AS label set with a claimed
// tail.
func bigSeedGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.EnsureIndex("AS", "asn")
	for i := 1; i <= bigSeedN; i++ {
		id, created := g.MergeNode("AS", "asn", Int(int64(i)), nil, Props{"name": String(fmt.Sprintf("AS%d", i))})
		if !created {
			t.Fatalf("seed: AS %d existed", i)
		}
		if i > 1 {
			if _, err := g.AddRel("PEERS_WITH", id-1, id, nil); err != nil {
				t.Fatalf("seed: rel: %v", err)
			}
		}
	}
	return g
}

// bigOps runs cowOps plus writes at the large sizes: appends to the AS
// label set and the asn index that cross into a new page, overwrites and
// deletes on every page, and an out-of-order label. first keys the new
// ASes, so two sibling clones can write different data; an odd first also
// shifts their node IDs by one.
func bigOps(first int64) func(*Graph) {
	return func(g *Graph) {
		cowOps(g)
		if first%2 == 1 {
			g.AddNode([]string{"Tag"}, nil)
		}
		for i := int64(0); i < 8; i++ {
			id, created := g.MergeNode("AS", "asn", Int(first+i), nil, Props{"name": String(fmt.Sprintf("new %d", first+i))})
			if !created {
				panic("merge found a new AS")
			}
			if _, err := g.AddRel("PEERS_WITH", NodeID(first%100+1), id, Props{"w": Int(first)}); err != nil {
				panic(err)
			}
		}
		// Descending, so the new label's later adds are out of order.
		for _, id := range []NodeID{2*slotPageSize + 20, slotPageSize + 20, 20} {
			if err := g.SetNodeProp(id, "name", String(fmt.Sprintf("over %d", first))); err != nil {
				panic(err)
			}
			if err := g.SetRelProp(RelID(id), "w", Int(first)); err != nil {
				panic(err)
			}
			if err := g.AddLabel(id+NodeID(first%7), "Tier1"); err != nil {
				panic(err)
			}
		}
		if err := g.AddLabel(bigSeedN+1, "AS"); err != nil { // out of order on a claimed set
			panic(err)
		}
		if err := g.DeleteNode(slotPageSize + NodeID(first%50)); err != nil {
			panic(err)
		}
		if err := g.DeleteRel(2*slotPageSize + RelID(first%50)); err != nil {
			panic(err)
		}
	}
}

// TestCloneCopyOnWriteIsolationAcrossPages is TestCloneCopyOnWriteIsolation
// at sizes that cross the slot-page, index-shard and claimed-tail
// boundaries, with two sibling clones of one frozen parent writing the same
// structures: each clone must equal a directly built graph, and the parent
// must not change.
func TestCloneCopyOnWriteIsolationAcrossPages(t *testing.T) {
	parent := bigSeedGraph(t)
	parent.Freeze()
	as := parent.labelIdx[parent.labelIDs["AS"]]
	asn := parent.propIdx[propIdxID{parent.labelIDs["AS"], parent.dict.intern("asn")}]
	if len(parent.nodes.pages) != 3 || len(parent.rels.pages) != 3 {
		t.Fatalf("seed spans %d node and %d rel pages, want 3", len(parent.nodes.pages), len(parent.rels.pages))
	}
	if asn.n <= 512 || len(asn.shards) < 8 {
		t.Fatalf("asn index: %d buckets in %d shards", asn.n, len(asn.shards))
	}
	if as.claim == nil || cap(as.base) == len(as.base) {
		t.Fatalf("AS label set has no claimed tail with room (len %d cap %d)", len(as.base), cap(as.base))
	}
	parentBytes, parentIndexes := snapshotBytes(t, parent), indexState(t, parent)

	opsA, opsB := bigOps(100_000), bigOps(200_003)
	a, b := parent.Clone(), parent.Clone()
	opsA(a)
	opsB(b)

	// The first sibling appended to the shared AS tail in place; the
	// second lost the claim and copied.
	if got := as.base[:len(as.base)+1][len(as.base)]; got != bigSeedN+2 {
		t.Errorf("the slot past the parent's AS members holds %d, want clone A's first AS %d", got, bigSeedN+2)
	}
	if bAS := b.labelIdx[b.labelIDs["AS"]]; &bAS.base[0] == &as.base[0] {
		t.Error("clone B shares the AS label set's backing array after clone A claimed its tail")
	}

	if !bytes.Equal(snapshotBytes(t, parent), parentBytes) {
		t.Fatal("mutating the clones changed the frozen parent")
	}
	if got := indexState(t, parent); got != parentIndexes {
		t.Fatal("mutating the clones changed the frozen parent's indexes")
	}
	for _, c := range []struct {
		name  string
		clone *Graph
		ops   func(*Graph)
	}{{"A", a, opsA}, {"B", b, opsB}} {
		want := bigSeedGraph(t)
		c.ops(want)
		if !bytes.Equal(snapshotBytes(t, c.clone), snapshotBytes(t, want)) {
			t.Errorf("clone %s after ops differs from the directly built graph", c.name)
		}
		if indexState(t, c.clone) != indexState(t, want) {
			t.Errorf("clone %s's indexes differ from the directly built graph's", c.name)
		}
		if len(c.clone.nodes.pages) != 4 || len(c.clone.rels.pages) != 4 {
			t.Errorf("clone %s spans %d node and %d rel pages, want 4", c.name, len(c.clone.nodes.pages), len(c.clone.rels.pages))
		}
	}
}
