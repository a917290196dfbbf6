package graph

import (
	"fmt"
	"runtime"
	"testing"
)

// upsertBatch stages n new ASes, each with a Name and a NAME relationship:
// the shape of one small ingest publish.
func upsertBatch(first int64, n int) *Batch {
	b := NewBatch()
	for i := int64(0); i < int64(n); i++ {
		as := b.MergeNode("AS", "asn", Int(first+i), nil, nil)
		name := b.MergeNode("Name", "name", String(fmt.Sprintf("NAME-%d", first+i)), nil, nil)
		if err := b.AddRel("NAME", as, name, Props{"reference_name": String("test.ingest")}); err != nil {
			panic(err)
		}
	}
	return b
}

// publishBytes builds a store of ases ASes with their names, then returns
// the bytes allocated per published 50-upsert batch.
func publishBytes(t *testing.T, ases int) float64 {
	t.Helper()
	g := New()
	if _, err := g.ApplyBatch(upsertBatch(1, ases)); err != nil {
		t.Fatal(err)
	}
	st := NewMVStore(g)
	const publishes = 40
	batches := make([]*Batch, publishes)
	for i := range batches {
		batches[i] = upsertBatch(int64(10_000_000+50*i), 50)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		if _, _, err := st.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / publishes
}

// TestApplyBatchCostIndependentOfGraphSize pins that a publish costs what
// it writes: a 50-upsert batch allocates about as much on a graph four
// times larger. Copying the slot tables, a whole index directory or a whole
// label's member list per publish grows with the graph and breaks the
// ratio; the ceiling is the measured cost plus a quarter.
func TestApplyBatchCostIndependentOfGraphSize(t *testing.T) {
	// 316 600 bytes measured per batch at 40k ASes, 299 000 at 10k
	// (go1.24, linux/amd64). The flat slot tables, single-map index
	// directories and capacity-capped label sets this store replaced took
	// 5 462 000 and 1 442 000.
	const bytesCeiling = 395800
	small, large := publishBytes(t, 10_000), publishBytes(t, 40_000)
	t.Logf("bytes per published batch: %.0f at 10k ASes, %.0f at 40k", small, large)
	if large > 1.3*small {
		t.Errorf("a publish on a 4× larger graph allocates %.2f× as much (%.0f vs %.0f bytes), want at most 1.3×", large/small, large, small)
	}
	if large > bytesCeiling {
		t.Errorf("a publish allocates %.0f bytes, ceiling %d", large, bytesCeiling)
	}
}

// TestLabelDeltaFoldsIntoBase pins that out-of-order label adds do not pile
// up: once a set's delta outgrows an eighth of its base (plus 32) it folds
// back into the base, so reads of the label stop merging and allocating.
// The label starts on 8*(adds-33) later nodes, so every add is out of
// order and the last one takes the delta past that threshold.
func TestLabelDeltaFoldsIntoBase(t *testing.T) {
	const adds = 1000
	g := New()
	for i := 0; i < adds; i++ {
		g.AddNode([]string{"A"}, nil)
	}
	for i := 0; i < 8*(adds-33); i++ {
		g.AddNode([]string{"Y"}, nil)
	}
	st := NewMVStore(g)
	for id := NodeID(1); id <= adds; id++ {
		if _, err := st.Update(func(g *Graph) error { return g.AddLabel(id, "Y") }); err != nil {
			t.Fatal(err)
		}
	}
	var got []NodeID
	var allocs float64
	st.Current().BulkRead(func(br *BulkReader) {
		allocs = testing.AllocsPerRun(10, func() { got = br.NodesByLabel("Y") })
	})
	if want := adds + 8*(adds-33); len(got) != want || got[0] != 1 || got[adds] != adds+1 {
		t.Fatalf("NodesByLabel(Y) = %d nodes starting %v, want %d starting at 1", len(got), got[:2], want)
	}
	if allocs != 0 {
		t.Errorf("NodesByLabel on the head allocates %.0f objects, want 0", allocs)
	}
}
