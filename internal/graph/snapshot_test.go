package graph

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
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
