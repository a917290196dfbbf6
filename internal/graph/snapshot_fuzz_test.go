package graph

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoad throws arbitrary bytes at the snapshot loader. The invariant is
// the corruption suite's, universally quantified: Load returns a graph or
// an error — it never panics, hangs, or allocates beyond what the input
// can back. Seeds cover the format and its truncations, the old-format
// fixtures (which Load must reject, never mis-decode), and the journal
// format (whose magic Load rejects).
func FuzzLoad(f *testing.F) {
	for _, data := range loadCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must round-trip: save it and load it back.
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("accepted graph does not re-save: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("accepted graph does not round-trip: %v", err)
		}
	})
}

// loadCorpus is FuzzLoad's seed corpus: the old-format fixtures, the
// current format (small, arena-sized and empty graphs), half of each, and
// bare magics.
func loadCorpus(tb testing.TB) [][]byte {
	var corpus [][]byte
	for _, fixture := range oldFormatFixtures {
		data, err := os.ReadFile(fixture)
		if err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, data, data[:len(data)/2])
	}
	for _, g := range []*Graph{fixtureGraph(), arenaFixture()} {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, buf.Bytes(), buf.Bytes()[:buf.Len()/2])
	}
	var empty bytes.Buffer
	if err := New().Save(&empty); err != nil {
		tb.Fatal(err)
	}
	return append(corpus, empty.Bytes(), []byte(snapshotMagic), []byte{0x1f, 0x8b}, []byte(batchMagic))
}

// FuzzReadBatch does the same for the checkpoint journal decoder.
func FuzzReadBatch(f *testing.F) {
	b := NewBatch()
	n1 := b.MergeNode("AS", "asn", Int(64500), []string{"BGPCollector"}, Props{"name": String("TEST-AS")})
	n2 := b.MergeNode("Prefix", "prefix", String("192.0.2.0/24"), nil, nil)
	_ = b.SetNodeProp(n1, "rank", Int(7))
	_ = b.AddLabel(n2, "RPKI")
	_ = b.AddRel("ORIGINATE", n1, n2, Props{"count": Int(3)})
	var buf bytes.Buffer
	if err := WriteBatch(&buf, b); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add([]byte(batchMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		rb, err := ReadBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must apply cleanly: every handle was validated.
		if _, err := New().ApplyBatch(rb); err != nil {
			t.Fatalf("accepted journal fails to apply: %v", err)
		}
	})
}
