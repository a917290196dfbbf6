package iyp_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"iyp"
	"iyp/internal/graph"
)

// residentBytesPerNodeCeiling bounds what a loaded generation may cost in
// live heap, per node (adjacency, relationships, properties, indexes and
// the dictionary all divided over the node count). Measured at the parent
// of the commit that added this test: 995 B/node at scale 0.1, seed 42
// (go1.24, linux/amd64; 994–995 across runs, 1020 under -race); the
// ceiling is 1.5× that. It is the assertion behind the columnar store's
// reason to exist — the boxed layout it replaced (commit 206293d) cost
// 3.0× more per node, so a change that boxes values again or stops sharing
// dictionary strings lands well above the ceiling.
const residentBytesPerNodeCeiling = 1492

// TestColumnarResidentBytesPerNode uses the benchmark's arithmetic for
// graph.heap_bytes_per_node: live heap after loading a snapshot minus
// live heap before, over the node count.
func TestColumnarResidentBytesPerNode(t *testing.T) {
	db, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "iyp.snapshot")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(g.NumNodes())
	t.Logf("%d nodes, %d rels: %.0f resident bytes per node", g.NumNodes(), g.NumRels(), perNode)
	if perNode > residentBytesPerNodeCeiling {
		t.Fatalf("loaded graph costs %.0f bytes per node, ceiling %d", perNode, residentBytesPerNodeCeiling)
	}
	runtime.KeepAlive(g)
}
