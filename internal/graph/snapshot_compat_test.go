package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureGraph is the deterministic graph behind the snapshot suites (and
// behind the committed old-format fixtures, which were written from it).
func fixtureGraph() *Graph {
	g := New()
	labels := []string{"AS", "Prefix", "IP", "HostName", "Tag"}
	var ids []NodeID
	for i := 0; i < 40; i++ {
		props := Props{"id": Int(int64(i))}
		switch i % 4 {
		case 0:
			props["name"] = String(fmt.Sprintf("n%d", i))
		case 1:
			props["score"] = Float(float64(i) / 7.0)
		case 2:
			props["flag"] = Bool(i%8 == 2)
		case 3:
			props["tags"] = Strings("x", "y")
		}
		nl := []string{labels[i%len(labels)]}
		if i%3 == 0 {
			nl = append(nl, labels[(i+1)%len(labels)])
		}
		ids = append(ids, g.AddNode(nl, props))
	}
	types := []string{"ORIGINATE", "RESOLVES_TO", "PART_OF"}
	for i := 0; i < 60; i++ {
		from := ids[(i*7)%len(ids)]
		to := ids[(i*13+5)%len(ids)]
		if _, err := g.AddRel(types[i%len(types)], from, to, Props{"w": Int(int64(i))}); err != nil {
			panic(err)
		}
	}
	for _, i := range []int{4, 17, 29} {
		if err := g.DeleteNode(ids[i]); err != nil {
			panic(err)
		}
	}
	g.EnsureIndex("AS", "id")
	g.EnsureIndex("Prefix", "id")
	return g
}

// oldFormatFixtures are snapshots of fixtureGraph (and of an empty graph)
// in the two layouts written before the columnar one: a bare gzip stream
// ("v1"), and the sectioned container without a dictionary section
// ("v2-boxed"). No decoder for them remains; they are kept so the loader's
// rejection of them stays tested.
var oldFormatFixtures = []string{
	"testdata/v1-golden.snapshot",
	"testdata/v1-empty.snapshot",
	"testdata/v2-boxed.snapshot",
}

// recognisableFrom returns the shortest prefix length of an old-format
// fixture that already identifies its layout: the two gzip magic bytes,
// or everything up to and including the third section's id byte. A
// shorter prefix is equally a prefix of a columnar file, so it can only be
// called truncated.
func recognisableFrom(t *testing.T, data []byte) int {
	t.Helper()
	if data[0] == 0x1f {
		return 2
	}
	off := len(snapshotMagic) + 1
	for range 2 {
		off += sectionHdrSize + int(binary.LittleEndian.Uint64(data[off+5:]))
	}
	if data[off] != secNodes {
		t.Fatalf("fixture's third section is %#x, not the node section", data[off])
	}
	return off + 1
}

// TestOldFormatsRejected is the format cut's gate: each committed
// old-format fixture, and every truncation of it long enough to tell the
// layout, fails with the unsupported-format error — not ErrCorrupt, which
// would make a store report an intact old dump as damaged. Shorter
// truncations and every single-bit flip must still fail cleanly.
func TestOldFormatsRejected(t *testing.T) {
	for _, fixture := range oldFormatFixtures {
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadFileWith(fixture, LoadOptions{Dict: NewInterner()}); !errors.Is(err, errUnsupportedFormat) {
			t.Fatalf("%s: LoadFileWith = %v, want the unsupported-format error", fixture, err)
		}
		from := recognisableFrom(t, data)
		for i := 0; i <= len(data); i++ {
			g, err := Load(bytes.NewReader(data[:i]))
			switch {
			case err == nil:
				t.Fatalf("%s truncated to %d bytes was accepted (%d nodes)", fixture, i, g.NumNodes())
			case i < from:
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s truncated to %d bytes (layout not yet recognisable): %v, want ErrCorrupt", fixture, i, err)
				}
			case !errors.Is(err, errUnsupportedFormat) || errors.Is(err, ErrCorrupt):
				t.Fatalf("%s truncated to %d bytes: %v, want the unsupported-format error", fixture, i, err)
			}
		}
		for i := range data {
			flipped := append([]byte(nil), data...)
			flipped[i] ^= 1 << (i % 8)
			mustFailLoad(t, flipped, fixture+" bit flip")
		}
	}
}

// TestStoreSkipsOldFormatGeneration: a store whose newest generation
// predates the columnar layout (manifested, checksum intact) opens the
// next-older columnar generation and says why it skipped the newer one.
func TestStoreSkipsOldFormatGeneration(t *testing.T) {
	for _, fixture := range oldFormatFixtures {
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		good, err := st.Save(fixtureGraph())
		if err != nil {
			t.Fatal(err)
		}
		old := Generation{
			Seq:        good.Seq + 1,
			Path:       filepath.Join(st.Dir(), genFileName(good.Seq+1)),
			Size:       int64(len(data)),
			CRC:        crc32.Checksum(data, castagnoli),
			manifested: true,
		}
		if err := os.WriteFile(old.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := st.writeManifest([]Generation{old, good}); err != nil {
			t.Fatal(err)
		}

		g, rep, err := st.Open()
		if err != nil {
			t.Fatalf("%s: Open: %v", fixture, err)
		}
		if rep.Loaded.Seq != good.Seq {
			t.Fatalf("%s: loaded generation %d, want %d", fixture, rep.Loaded.Seq, good.Seq)
		}
		if len(rep.Skipped) != 1 || rep.Skipped[0].Seq != old.Seq ||
			!strings.Contains(rep.Skipped[0].Reason, "unsupported snapshot format") {
			t.Fatalf("%s: skipped = %+v, want generation %d with the unsupported-format reason", fixture, rep.Skipped, old.Seq)
		}
		graphsEquivalent(t, fixtureGraph(), g)
	}
}

// TestSnapshotByteStableWithMultipleIndexes pins the determinism the
// resumable-build guarantee rests on: two saves of equivalent graphs are
// byte-identical even with several property indexes (whose in-memory form
// is an unordered map).
func TestSnapshotByteStableWithMultipleIndexes(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureGraph().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureGraph().Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("equivalent graphs produced different snapshot bytes")
	}
}
