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
	path := scale01Snapshot(t)
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

// scale01Snapshot saves the scale-0.1, seed-42 build the memory tests
// measure and returns its path.
func scale01Snapshot(t *testing.T) string {
	t.Helper()
	db, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "iyp.snapshot")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// A snapshot load allocates per page and per chunk, not per entity: nodes
// and rels come from slabs, property columns and adjacency lists from
// arenas. Measured at scale 0.1, seed 42 (go1.24, linux/amd64), per node
// plus rel: the per-entity loader this replaced made 7.82 allocations
// during the load and kept 3.51 more live heap objects after it (3.87
// under -race); the slab loader 1.53 and 1.17 (1.47 under -race). Each
// ceiling is the slab loader's figure ×1.25, the live-object one taken
// under -race, where it is higher.
const (
	loadMallocsPerEntityCeiling     = 1.91
	loadLiveObjectsPerEntityCeiling = 1.84
)

// TestSnapshotLoadAllocationsPerEntity counts, per node plus rel, the
// allocations graph.LoadFile makes and the heap objects the loaded graph
// keeps live.
func TestSnapshotLoadAllocationsPerEntity(t *testing.T) {
	path := scale01Snapshot(t)
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := graph.LoadFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&live)

	entities := float64(g.NumNodes() + g.NumRels())
	mallocs := float64(after.Mallocs-before.Mallocs) / entities
	objects := (float64(live.HeapObjects) - float64(before.HeapObjects)) / entities
	t.Logf("%d nodes, %d rels: %.3f mallocs and %.3f live objects per entity", g.NumNodes(), g.NumRels(), mallocs, objects)
	if mallocs > loadMallocsPerEntityCeiling {
		t.Errorf("load made %.3f mallocs per entity, ceiling %.3f", mallocs, loadMallocsPerEntityCeiling)
	}
	if objects > loadLiveObjectsPerEntityCeiling {
		t.Errorf("loaded graph keeps %.3f live objects per entity, ceiling %.3f", objects, loadLiveObjectsPerEntityCeiling)
	}
	runtime.KeepAlive(g)
}
