package graph

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func snapshotBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// seedGraph builds a small mutable graph with an index, some labels and
// relationships — enough to exercise every COW path.
func seedGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.EnsureIndex("AS", "asn")
	for i := 1; i <= 10; i++ {
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

func TestFrozenGraphRejectsWrites(t *testing.T) {
	g := seedGraph(t)
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("graph not frozen")
	}
	if _, err := g.ApplyBatch(NewBatch()); !errors.Is(err, ErrFrozen) {
		t.Fatalf("ApplyBatch on frozen graph: err = %v, want ErrFrozen", err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on frozen graph did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddNode", func() { g.AddNode([]string{"X"}, nil) })
	mustPanic("SetNodeProp", func() { _ = g.SetNodeProp(1, "k", Int(1)) })
	mustPanic("DeleteNode", func() { _ = g.DeleteNode(1) })
	mustPanic("AddRel", func() { _, _ = g.AddRel("T", 1, 2, nil) })
	mustPanic("EnsureIndex", func() { g.EnsureIndex("AS", "name") })
	mustPanic("MergeNode", func() { g.MergeNode("AS", "asn", Int(1), nil, nil) })
}

func TestCloneRequiresFrozen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a live graph did not panic")
		}
	}()
	New().Clone()
}

// cowOps exercises every COW path on a graph grown from seedGraph:
// in-place merge on an indexed node, property overwrite (index
// remove+add), new label on an existing node, rel add/delete, node delete
// (detach), new node, index backfill, property delete.
func cowOps(g *Graph) {
	if _, created := g.MergeNode("AS", "asn", Int(3), []string{"RouteCollector"}, Props{"name": String("renamed")}); created {
		panic("merge created")
	}
	if err := g.SetNodeProp(3, "name", String("overwritten")); err != nil {
		panic(err)
	}
	if err := g.SetNodeProp(4, "country", String("JP")); err != nil {
		panic(err)
	}
	if err := g.AddLabel(5, "IXP"); err != nil {
		panic(err)
	}
	if _, err := g.AddRel("MEMBER_OF", 1, 5, Props{"w": Int(7)}); err != nil {
		panic(err)
	}
	if err := g.DeleteRel(2); err != nil {
		panic(err)
	}
	if err := g.DeleteNode(10); err != nil {
		panic(err)
	}
	g.AddNode([]string{"Prefix"}, Props{"prefix": String("10.0.0.0/8")})
	g.EnsureIndex("AS", "name")
	if err := g.SetNodeProp(6, "name", Null()); err != nil { // prop delete
		panic(err)
	}
}

// TestCloneCopyOnWriteIsolation is the core MVCC correctness test: mutating
// a clone must leave the frozen parent byte-identical, and the clone must
// end up byte-identical to a graph that had the same ops applied directly.
func TestCloneCopyOnWriteIsolation(t *testing.T) {
	parent := seedGraph(t)
	parent.Freeze()
	parentBefore := snapshotBytes(t, parent)

	clone := parent.Clone()
	cowOps(clone)

	if got := snapshotBytes(t, parent); !bytes.Equal(got, parentBefore) {
		t.Fatal("mutating the clone changed the frozen parent")
	}

	// A fresh graph with the same history must be byte-identical to the
	// clone (snapshots encode deterministically).
	want := seedGraph(t)
	cowOps(want)
	if !bytes.Equal(snapshotBytes(t, clone), snapshotBytes(t, want)) {
		t.Fatal("clone after ops differs from directly-built graph")
	}

	// And the clone's query-visible state must be correct.
	if got := clone.NodeProp(3, "name"); !got.Equal(String("overwritten")) {
		t.Fatalf("clone node 3 name = %v", got)
	}
	if !parent.NodeProp(3, "name").Equal(String("AS3")) {
		t.Fatal("parent node 3 renamed")
	}
	if !clone.NodeHasLabel(5, "IXP") || parent.NodeHasLabel(5, "IXP") {
		t.Fatal("IXP label leaked between generations")
	}
	if clone.HasNode(10) || !parent.HasNode(10) {
		t.Fatal("node 10 deletion leaked")
	}
	if got := clone.NodesByProp("AS", "asn", Int(3)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("clone index lookup = %v", got)
	}
	if got := parent.NodesByProp("AS", "asn", Int(10)); len(got) != 1 || got[0] != 10 {
		t.Fatalf("parent index lookup after clone delete = %v", got)
	}
}

func TestMVStoreLifecycle(t *testing.T) {
	st := NewMVStore(seedGraph(t))
	if st.CurrentGen() != 1 {
		t.Fatalf("initial gen = %d", st.CurrentGen())
	}

	g1, gen1, release1 := st.Acquire()
	if gen1 != 1 || !g1.Frozen() {
		t.Fatalf("Acquire: gen=%d frozen=%v", gen1, g1.Frozen())
	}
	n1 := g1.NumNodes()

	b := NewBatch()
	h := b.MergeNode("AS", "asn", Int(99), nil, Props{"name": String("new")})
	if err := b.AddLabel(h, "Tagged"); err != nil {
		t.Fatal(err)
	}
	res, gen2, err := st.ApplyBatch(b)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if gen2 != 2 || res.NodesCreated != 1 {
		t.Fatalf("ApplyBatch: gen=%d created=%d", gen2, res.NodesCreated)
	}

	// The pinned snapshot still sees the old state; the head sees the new.
	if g1.NumNodes() != n1 {
		t.Fatal("pinned generation changed under reader")
	}
	if st.Current().NumNodes() != n1+1 {
		t.Fatal("head missing the new node")
	}

	// AcquireGen can still reach generation 1.
	gOld, releaseOld, err := st.AcquireGen(1)
	if err != nil {
		t.Fatalf("AcquireGen(1): %v", err)
	}
	if gOld != g1 {
		t.Fatal("AcquireGen(1) returned a different graph")
	}
	releaseOld()
	release1()
	release1() // idempotent

	if _, _, err := st.AcquireGen(77); err == nil {
		t.Fatal("AcquireGen of unknown generation succeeded")
	}
}

func TestMVStoreUpdateErrorDiscardsClone(t *testing.T) {
	st := NewMVStore(seedGraph(t))
	before := snapshotBytes(t, st.Current())
	boom := errors.New("boom")
	if _, err := st.Update(func(g *Graph) error {
		g.AddNode([]string{"Junk"}, nil)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Update error = %v", err)
	}
	if st.CurrentGen() != 1 {
		t.Fatalf("failed update advanced generation to %d", st.CurrentGen())
	}
	if !bytes.Equal(snapshotBytes(t, st.Current()), before) {
		t.Fatal("failed update mutated the head")
	}
}

func TestMVStoreReclamation(t *testing.T) {
	st := NewMVStore(seedGraph(t))
	st.SetRetain(1)

	var retired int
	var mu sync.Mutex
	st.OnRetire(func(*Graph) {
		mu.Lock()
		retired++
		mu.Unlock()
	})

	// Pin generation 1, then publish 6 more generations.
	_, gen, release := st.Acquire()
	if gen != 1 {
		t.Fatalf("gen = %d", gen)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.Update(func(g *Graph) error {
			g.AddNode([]string{"Churn"}, nil)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Generations 2..5 are retired, unpinned, and outside retain=1 → gone.
	// Generation 1 is pinned → must survive despite being superseded.
	if _, releaseG1, err := st.AcquireGen(1); err != nil {
		t.Fatalf("pinned generation 1 was reclaimed: %v", err)
	} else {
		releaseG1()
	}
	if _, _, err := st.AcquireGen(3); err == nil {
		t.Fatal("generation 3 should have been reclaimed")
	}
	if got := st.Reclaimed(); got < 3 {
		t.Fatalf("reclaimed = %d, want >= 3", got)
	}

	// Releasing the last pin lets generation 1 go too.
	release()
	st.SetRetain(1) // nudge reclamation
	if _, _, err := st.AcquireGen(1); err == nil {
		t.Fatal("generation 1 still available after release + reclaim")
	}
	mu.Lock()
	if retired < 4 {
		t.Fatalf("OnRetire ran %d times, want >= 4", retired)
	}
	mu.Unlock()

	// The store tracks only the retain window now.
	if live := st.Live(); live > 2 {
		t.Fatalf("live generations = %d, want <= 2 (current + retain 1)", live)
	}

	gens := st.Generations()
	if len(gens) == 0 || !gens[len(gens)-1].Current || gens[len(gens)-1].Gen != 7 {
		t.Fatalf("Generations() = %+v", gens)
	}
}

// TestMVStoreConcurrentReadersWriters hammers Acquire/release against
// Update from many goroutines; run with -race this is the core safety
// check that lock-free frozen reads never observe a mutation.
func TestMVStoreConcurrentReadersWriters(t *testing.T) {
	st := NewMVStore(seedGraph(t))
	st.SetRetain(0)

	const readers = 8
	const writes = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, _, release := st.Acquire()
				// Exercise a read mix: counts, index lookups, traversal.
				nodes := g.NumNodes()
				byLabel := g.CountByLabel("AS")
				if byLabel > nodes {
					t.Errorf("label count %d exceeds node count %d", byLabel, nodes)
				}
				for _, id := range g.NodesByLabel("Churn") {
					if !g.HasNode(id) {
						t.Errorf("label index lists dead node %d", id)
					}
				}
				g.Rels(1, DirBoth, nil, nil)
				release()
			}
		}()
	}

	for i := 0; i < writes; i++ {
		if _, err := st.Update(func(g *Graph) error {
			id := g.AddNode([]string{"Churn"}, Props{"i": Int(int64(i))})
			if id%3 == 0 {
				return g.DeleteNode(id)
			}
			_, err := g.AddRel("PEERS_WITH", 1, id, nil)
			return err
		}); err != nil {
			t.Errorf("update %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if st.CurrentGen() != uint64(1+writes) {
		t.Fatalf("final gen = %d, want %d", st.CurrentGen(), 1+writes)
	}
}

func TestMVStoreSwapPublishesLoadedGraph(t *testing.T) {
	st := NewMVStore(seedGraph(t))
	oldG, oldGen, release := st.Acquire()
	if oldGen != 1 {
		t.Fatalf("initial generation = %d", oldGen)
	}

	next := New()
	next.AddNode([]string{"Replacement"}, Props{"v": Int(42)})
	if gen := st.Swap(next); gen != 2 {
		t.Fatalf("Swap returned generation %d, want 2", gen)
	}
	if st.Current() != next || st.CurrentGen() != 2 {
		t.Fatal("Swap did not publish the new graph as head")
	}
	// Swap takes ownership: the published graph is frozen.
	if !next.Frozen() {
		t.Fatal("Swap did not freeze the published graph")
	}
	// The pinned reader still sees the superseded generation, whole.
	if n := oldG.NumNodes(); n != 10 {
		t.Fatalf("pinned reader sees %d nodes after swap, want 10", n)
	}
	release()

	// A second swap retires generation 2 in turn.
	another := New()
	another.AddNode([]string{"Replacement"}, Props{"v": Int(43)})
	if gen := st.Swap(another); gen != 3 {
		t.Fatalf("second Swap returned %d, want 3", gen)
	}
}

// TestMVStorePinDrainUnderGenerationChurn is the replica reload pattern at
// stress pace: a follower swaps whole new generations in every few
// microseconds while readers continuously pin and release. Every retired
// generation must be reclaimed once its pins drain — no leaked pins, no
// generations kept alive forever.
func TestMVStorePinDrainUnderGenerationChurn(t *testing.T) {
	st := NewMVStore(seedGraph(t))
	st.SetRetain(0) // reclaim superseded generations as soon as pins drain

	const swaps = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, _, release := st.Acquire()
				if g.NumNodes() == 0 {
					t.Error("acquired an empty generation")
				}
				release()
			}
		}()
	}

	for i := 0; i < swaps; i++ {
		g := New()
		g.AddNode([]string{"Marker"}, Props{"gen": Int(int64(i))})
		st.Swap(g)
	}
	close(stop)
	wg.Wait()

	// Reclamation is synchronous: the final releases and swaps already ran
	// it, so no nudge is allowed here. swaps generations were retired (the
	// seed plus all but the last marker); with retain 0 only the head may
	// survive.
	if st.Live() != 1 || st.Reclaimed() != uint64(swaps) {
		t.Fatalf("reclamation did not keep up: live=%d reclaimed=%d (want 1, %d)",
			st.Live(), st.Reclaimed(), swaps)
	}
	for _, gi := range st.Generations() {
		if gi.Pins != 0 {
			t.Errorf("generation %d leaked %d pins", gi.Gen, gi.Pins)
		}
	}
}

// TestAcquireRetryReclaimsRetiredGeneration drives Acquire's retry branch
// deterministically: a publish lands between the reader's pin and its
// re-check, so the writer's reclaim pass skips the old head because of the
// reader's transient pin. Undoing that pin must finish the reclamation —
// with retain 0 the old head leaves at once and its OnRetire hook runs.
func TestAcquireRetryReclaimsRetiredGeneration(t *testing.T) {
	seed := seedGraph(t)
	st := NewMVStore(seed)
	st.SetRetain(0)
	var retired []*Graph
	st.OnRetire(func(g *Graph) { retired = append(retired, g) })

	next := New()
	next.AddNode([]string{"Marker"}, nil)
	testAcquireHook = func() {
		testAcquireHook = nil // publish once; the retry pins the new head
		st.Swap(next)
	}
	defer func() { testAcquireHook = nil }()

	g, gen, release := st.Acquire()
	defer release()
	if g != next || gen != 2 {
		t.Fatalf("Acquire returned generation %d, want the new head 2", gen)
	}
	if st.Live() != 1 || st.Reclaimed() != 1 {
		t.Fatalf("retired head not reclaimed after the retry: live=%d reclaimed=%d (want 1, 1)",
			st.Live(), st.Reclaimed())
	}
	if len(retired) != 1 || retired[0] != seed {
		t.Fatalf("OnRetire ran for %d generations, want the seed once", len(retired))
	}
}

// TestUnnumberPlaceholder checks the follower's start-up step: an empty
// first generation becomes the unnumbered generation 0, the first swap then
// takes exactly the number asked for, and the placeholder leaves the chain
// as soon as its last pin drains however wide the retain window is. A store
// that holds data is left alone.
func TestUnnumberPlaceholder(t *testing.T) {
	full := New()
	full.AddNode([]string{"N"}, nil)
	holding := NewMVStore(full)
	if holding.UnnumberPlaceholder(); holding.CurrentGen() != 1 {
		t.Fatalf("a store holding data was renumbered to generation %d", holding.CurrentGen())
	}

	st := NewMVStore(New())
	_, pinnedGen, release := st.Acquire()
	if st.UnnumberPlaceholder(); st.CurrentGen() != 0 {
		t.Fatalf("placeholder not unnumbered: current gen %d", st.CurrentGen())
	}
	if pinnedGen != 1 {
		t.Fatalf("reader pinned before the call saw generation %d", pinnedGen)
	}
	_, gen0, release0 := st.Acquire()
	if gen0 != 0 {
		t.Fatalf("Acquire on the placeholder = generation %d, want 0", gen0)
	}

	g := New()
	g.AddNode([]string{"N"}, nil)
	if got := st.SwapAt(g, 1); got != 1 {
		t.Fatalf("first swap over the placeholder published generation %d, want 1", got)
	}
	release()
	if st.Live() != 2 {
		t.Fatalf("live generations = %d, want head + pinned placeholder", st.Live())
	}
	release0()
	if st.Live() != 1 {
		t.Fatalf("live generations = %d after the last pin drained, want only the head", st.Live())
	}
}

func TestPlaceholderLeavesTheRetainWindow(t *testing.T) {
	st := NewMVStore(New())
	st.UnnumberPlaceholder()
	g := New()
	g.AddNode([]string{"N"}, nil)
	st.SwapAt(g, 1)
	if gens := st.Generations(); len(gens) != 1 || gens[0].Gen != 1 {
		t.Fatalf("generations after the first swap = %+v, want only generation 1", gens)
	}
	if _, _, err := st.AcquireGen(0); err == nil {
		t.Fatal("the superseded placeholder is still acquirable")
	}
}
