package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// randomGraph builds a pseudo-random graph for round-trip testing.
func randomGraph(seed int64, nodes, rels int) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := New()
	labels := []string{"AS", "Prefix", "IP", "HostName", "Tag"}
	var ids []NodeID
	for i := 0; i < nodes; i++ {
		props := Props{
			"id": Int(int64(i)),
		}
		switch r.Intn(4) {
		case 0:
			props["name"] = String("n" + string(rune('a'+r.Intn(26))))
		case 1:
			props["score"] = Float(r.Float64())
		case 2:
			props["flag"] = Bool(r.Intn(2) == 0)
		case 3:
			props["tags"] = Strings("x", "y")
		}
		nl := []string{labels[r.Intn(len(labels))]}
		if r.Intn(3) == 0 {
			nl = append(nl, labels[r.Intn(len(labels))])
		}
		ids = append(ids, g.AddNode(nl, props))
	}
	types := []string{"ORIGINATE", "RESOLVES_TO", "PART_OF"}
	for i := 0; i < rels; i++ {
		from := ids[r.Intn(len(ids))]
		to := ids[r.Intn(len(ids))]
		_, _ = g.AddRel(types[r.Intn(len(types))], from, to, Props{"w": Int(int64(i))})
	}
	// A few deletions exercise tombstone slots.
	for i := 0; i < nodes/10; i++ {
		_ = g.DeleteNode(ids[r.Intn(len(ids))])
	}
	g.EnsureIndex("AS", "id")
	return g
}

// graphsEquivalent compares two graphs structurally.
func graphsEquivalent(t *testing.T, a, b *Graph) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.Nodes != sb.Nodes || sa.Rels != sb.Rels {
		t.Fatalf("counts differ: %d/%d vs %d/%d", sa.Nodes, sa.Rels, sb.Nodes, sb.Rels)
	}
	for l, n := range sa.ByLabel {
		if sb.ByLabel[l] != n {
			t.Fatalf("label %s: %d vs %d", l, n, sb.ByLabel[l])
		}
	}
	for ty, n := range sa.ByRelType {
		if sb.ByRelType[ty] != n {
			t.Fatalf("type %s: %d vs %d", ty, n, sb.ByRelType[ty])
		}
	}
	// Node-by-node comparison (IDs are preserved by snapshots).
	a.EachNode(func(id NodeID) bool {
		if !b.HasNode(id) {
			t.Fatalf("node %d missing after load", id)
		}
		al, bl := a.NodeLabels(id), b.NodeLabels(id)
		if len(al) != len(bl) {
			t.Fatalf("node %d labels differ: %v vs %v", id, al, bl)
		}
		ap, bp := a.NodeProps(id), b.NodeProps(id)
		if len(ap) != len(bp) {
			t.Fatalf("node %d props differ", id)
		}
		for k, v := range ap {
			if !bp[k].Equal(v) {
				t.Fatalf("node %d prop %s: %v vs %v", id, k, v, bp[k])
			}
		}
		// Adjacency preserved.
		if len(a.Rels(id, DirBoth, nil, nil)) != len(b.Rels(id, DirBoth, nil, nil)) {
			t.Fatalf("node %d degree differs", id)
		}
		return true
	})
	a.EachRel(func(id RelID) bool {
		if a.RelType(id) != b.RelType(id) {
			t.Fatalf("rel %d type differs", id)
		}
		af, at := a.RelEndpoints(id)
		bf, bt := b.RelEndpoints(id)
		if af != bf || at != bt {
			t.Fatalf("rel %d endpoints differ", id)
		}
		return true
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomGraph(seed, 200, 400)
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		graphsEquivalent(t, g, loaded)
		// Index declarations survive the round trip.
		if !loaded.HasIndex("AS", "id") {
			t.Error("index lost in snapshot")
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := randomGraph(9, 100, 150)
	var b1, b2 bytes.Buffer
	if err := g.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two saves of the same graph differ byte-wise")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := New()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != 0 || loaded.NumRels() != 0 {
		t.Error("empty graph round-trip not empty")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("Load(garbage) should fail")
	}
	// Valid gzip, wrong magic.
	g := New()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncations must error, not panic.
	for _, n := range []int{1, 5, 10, len(data) / 2} {
		if n >= len(data) {
			continue
		}
		if _, err := Load(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("Load(truncated to %d) should fail", n)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snapshot")
	g := randomGraph(4, 50, 80)
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Atomic write: no .tmp residue.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEquivalent(t, g, loaded)
	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadFile(missing) should fail")
	}
}

// TestWriteFileAtomic pins the contract every durable write relies on: a
// failing write callback leaves the previous file byte-identical with no
// temp sibling behind, and a successful call replaces the content.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	put := func(content string, fail error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("directory holds %d entries, want only %s", len(entries), filepath.Base(path))
		}
	}

	if err := put("first\n", nil); err != nil {
		t.Fatal(err)
	}
	check("first\n")
	boom := errors.New("disk on fire")
	if err := put("half-written", boom); !errors.Is(err, boom) {
		t.Fatalf("failing callback returned %v, want its own error", err)
	}
	check("first\n")
	if err := put("second\n", nil); err != nil {
		t.Fatal(err)
	}
	check("second\n")
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// arenaFixture is a graph whose neighbouring nodes and rels share the
// loader's property chunk and adjacency arena: 40 nodes with three
// properties each, one ring rel and one self-loop per node. Its last node
// carries more labels than readNodeLabels' stack buffer holds.
func arenaFixture() *Graph {
	const n = 40
	g := New()
	many := make([]string, 10)
	for i := range many {
		many[i] = fmt.Sprintf("L%d", i)
	}
	for i := range n {
		labels := []string{"AS"}
		if i == n-1 {
			labels = many
		}
		g.AddNode(labels, Props{"asn": Int(int64(i)), "name": String(fmt.Sprintf("n%d", i)), "z": Bool(i%2 == 0)})
	}
	for i := 1; i <= n; i++ {
		id := NodeID(i)
		_, _ = g.AddRel("R", id, NodeID(i%n+1), Props{"w": Int(int64(i)), "src": String("ring")}) // rel 2i-1
		_, _ = g.AddRel("LOOP", id, id, Props{"w": Int(int64(-i))})                               // rel 2i
	}
	g.EnsureIndex("AS", "asn")
	return g
}

// sameProps fails unless got holds exactly want, looking each key up
// through lookup so that an unsorted column fails its binary search.
func sameProps(t *testing.T, what string, got, want Props, lookup func(string) Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: props %v, want %v", what, got, want)
	}
	for k, v := range want {
		if !lookup(k).Equal(v) {
			t.Fatalf("%s: prop %s = %v, want %v", what, k, lookup(k), v)
		}
	}
}

// sameEntities fails unless every node and rel of got outside the skip
// sets has want's labels, properties and adjacency lists, in order.
func sameEntities(t *testing.T, got, want *Graph, skipNodes []NodeID, skipRels []RelID) {
	t.Helper()
	for i := range want.nodes.n {
		id := NodeID(i + 1)
		if slices.Contains(skipNodes, id) {
			continue
		}
		gn, wn := got.node(id), want.node(id)
		if (gn == nil) != (wn == nil) {
			t.Fatalf("node %d presence differs", id)
		}
		if wn == nil {
			continue
		}
		what := fmt.Sprintf("node %d", id)
		if !slices.Equal(got.NodeLabels(id), want.NodeLabels(id)) {
			t.Fatalf("%s: labels %v, want %v", what, got.NodeLabels(id), want.NodeLabels(id))
		}
		sameProps(t, what, got.NodeProps(id), want.NodeProps(id), func(k string) Value { return got.NodeProp(id, k) })
		if !slices.Equal(gn.out, wn.out) || !slices.Equal(gn.in, wn.in) {
			t.Fatalf("%s: adjacency out %v in %v, want out %v in %v", what, gn.out, gn.in, wn.out, wn.in)
		}
	}
	for i := range want.rels.n {
		id := RelID(i + 1)
		if slices.Contains(skipRels, id) {
			continue
		}
		if (got.rel(id) == nil) != (want.rel(id) == nil) {
			t.Fatalf("rel %d presence differs", id)
		}
		if want.rel(id) != nil {
			sameProps(t, fmt.Sprintf("rel %d", id), got.RelProps(id), want.RelProps(id), func(k string) Value { return got.RelProp(id, k) })
		}
	}
}

// TestLoadedColumnsDoNotAlias guards the loader's cap == len invariant: a
// property column or adjacency list carved from a shared arena must
// reallocate when it grows, never write into its neighbour's entries.
func TestLoadedColumnsDoNotAlias(t *testing.T) {
	var buf bytes.Buffer
	if err := arenaFixture().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	load := func(t *testing.T, opts LoadOptions) *Graph {
		t.Helper()
		g, _, err := LoadWith(bytes.NewReader(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fresh := load(t, LoadOptions{})

	const k NodeID = 20
	ring, loop := RelID(2*k-1), RelID(2*k)
	// Each column and list grows at full length first (the write that
	// would land in a neighbour), then shrinks.
	mutate := func(t *testing.T, g *Graph) RelID {
		t.Helper()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(g.SetNodeProp(k, "added", Int(1)))
		must(g.SetRelProp(ring, "added", Int(1)))
		added, err := g.AddRel("LOOP", k, k, nil)
		must(err)
		must(g.SetNodeProp(k, "asn", Null()))
		must(g.SetRelProp(ring, "src", Null()))
		must(g.DeleteRel(loop))
		return added
	}
	check := func(t *testing.T, g *Graph, added RelID) {
		t.Helper()
		sameEntities(t, g, fresh, []NodeID{k}, []RelID{ring, loop})
		wantNode := fresh.NodeProps(k)
		delete(wantNode, "asn")
		wantNode["added"] = Int(1)
		sameProps(t, "node k", g.NodeProps(k), wantNode, func(key string) Value { return g.NodeProp(k, key) })
		sameProps(t, "rel k", g.RelProps(ring), Props{"w": Int(int64(k)), "added": Int(1)}, func(key string) Value { return g.RelProp(ring, key) })
		ids := func(adj []adjEntry) []RelID {
			out := make([]RelID, len(adj))
			for i, e := range adj {
				out[i] = e.rel()
			}
			return out
		}
		adj := func(adj []adjEntry) []RelID {
			return append(slices.DeleteFunc(ids(adj), func(id RelID) bool { return id == loop }), added)
		}
		n, f := g.node(k), fresh.node(k)
		if want := adj(f.out); !slices.Equal(ids(n.out), want) {
			t.Fatalf("node k out %v, want %v", ids(n.out), want)
		}
		if want := adj(f.in); !slices.Equal(ids(n.in), want) {
			t.Fatalf("node k in %v, want %v", ids(n.in), want)
		}
		if g.rel(loop) != nil || g.rel(added) == nil {
			t.Fatal("rel delete or add lost")
		}
	}

	t.Run("in place", func(t *testing.T) {
		g := load(t, LoadOptions{}) // owns its slabs: every write lands in place
		check(t, g, mutate(t, g))
	})
	t.Run("clone", func(t *testing.T) {
		parent := load(t, LoadOptions{})
		st := NewMVStore(parent)
		var added RelID
		if _, err := st.Update(func(c *Graph) error { added = mutate(t, c); return nil }); err != nil {
			t.Fatal(err)
		}
		check(t, st.Current(), added)
		sameEntities(t, parent, fresh, nil, nil)
	})
	t.Run("seeded dictionary out of file order", func(t *testing.T) {
		// Seeding the keys in reverse name order makes every column's
		// global key ids disagree with the file's name order, so each
		// column takes the sort fallback.
		dict := NewInterner()
		for _, key := range []string{"z", "w", "src", "name", "asn"} {
			dict.intern(key)
		}
		g := load(t, LoadOptions{Dict: dict})
		if n := g.node(k); dict.str(n.cprops[0].key) != "z" {
			t.Fatalf("seeded column not in key-id order: first key %q", dict.str(n.cprops[0].key))
		}
		sameEntities(t, g, fresh, nil, nil)
		if !bytes.Equal(snapshotBytes(t, g), data) {
			t.Fatal("seeded load re-saves to different bytes")
		}
	})
	t.Run("fresh load equals the built graph", func(t *testing.T) {
		built := arenaFixture()
		if got := fresh.NodeLabels(40); len(got) != 10 {
			t.Fatalf("node 40 labels %v, want 10 (more than the stack buffer)", got)
		}
		sameEntities(t, fresh, built, nil, nil)
	})
}

var errWriteFailed = errors.New("injected write failure")

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, errWriteFailed
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// settledGoroutines waits until at most want goroutines run, returning
// the last count it saw.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestSaveWriteFailureLeavesNothingRunning fails the writer at offsets in
// the header, inside the first section, mid-file and in the trailer: Save
// must return that error and leave no goroutine of its own running.
func TestSaveWriteFailureLeavesNothingRunning(t *testing.T) {
	g := randomGraph(3, 4000, 12000)
	size := len(snapshotBytes(t, g))
	before := runtime.NumGoroutine()
	for _, off := range []int{0, 3, sectionHdrSize, size / 2, size - 1} {
		err := g.Save(&failAfter{w: io.Discard, n: off})
		if !errors.Is(err, errWriteFailed) {
			t.Fatalf("write failing at byte %d of %d: Save returned %v", off, size, err)
		}
		if n := settledGoroutines(before); n > before {
			t.Fatalf("write failing at byte %d: %d goroutines running after Save, %d before", off, n, before)
		}
	}
}

// TestStoreSaveFailureKeepsPreviousGeneration fails a generation's write
// midway: the store must report the error, leave no temp file, and still
// hold and open the previous generation byte for byte.
func TestStoreSaveFailureKeepsPreviousGeneration(t *testing.T) {
	st := testStore(t, 2)
	g1 := randomGraph(1, 200, 400)
	gen1 := mustSaveGen(t, st, g1)
	want, err := os.ReadFile(gen1.Path)
	if err != nil {
		t.Fatal(err)
	}
	g2 := randomGraph(2, 4000, 12000)
	size := len(snapshotBytes(t, g2))
	for _, off := range []int{0, size / 2, size - 1} {
		st.wrapFile = func(w io.Writer) io.Writer { return &failAfter{w: w, n: off} }
		if _, err := st.Save(g2); !errors.Is(err, errWriteFailed) {
			t.Fatalf("save failing at byte %d: %v", off, err)
		}
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Seq != gen1.Seq {
		t.Fatalf("generations after failed saves: %+v", gens)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("failed save left %s behind", e.Name())
		}
	}
	got, err := os.ReadFile(gen1.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failed saves changed the previous generation's bytes")
	}
	g, rep, err := st.Open()
	if err != nil || rep.Loaded.Seq != gen1.Seq {
		t.Fatalf("open after failed saves: generation %d, %v", rep.Loaded.Seq, err)
	}
	if !bytes.Equal(snapshotBytes(t, g), want) {
		t.Fatal("previous generation reloads to different bytes")
	}
}
