package graph

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testStore(t *testing.T, keep int) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir(), StoreOptions{Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustSaveGen(t *testing.T, st *Store, g *Graph) Generation {
	t.Helper()
	gen, err := st.Save(g)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestStoreSaveOpenRoundTrip(t *testing.T) {
	st := testStore(t, 3)
	g := fixtureGraph()
	gen := mustSaveGen(t, st, g)
	if gen.Seq != 1 {
		t.Fatalf("first generation seq = %d", gen.Seq)
	}
	loaded, report, err := st.Open()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Skipped) != 0 || report.Loaded.Seq != 1 {
		t.Fatalf("report = %+v", report)
	}
	graphsEquivalent(t, g, loaded)
}

func TestStoreKeepsNGenerationsAndPrunes(t *testing.T) {
	st := testStore(t, 3)
	for i := 0; i < 5; i++ {
		mustSaveGen(t, st, randomGraph(int64(i+1), 20, 30))
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 {
		t.Fatalf("retained %d generations, want 3", len(gens))
	}
	if gens[0].Seq != 5 || gens[2].Seq != 3 {
		t.Fatalf("retained seqs: %d..%d, want 5..3", gens[0].Seq, gens[2].Seq)
	}
	// Pruned files are really gone.
	for _, seq := range []uint64{1, 2} {
		if _, err := os.Stat(filepath.Join(st.Dir(), genFileName(seq))); !os.IsNotExist(err) {
			t.Errorf("generation %d not pruned (err=%v)", seq, err)
		}
	}
}

// corruptTail flips a byte near the end of a file (inside the v2 trailer
// CRC region, so the damage is always fatal for that generation).
func corruptTail(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreOpenFallsBackOverCorruptNewest(t *testing.T) {
	st := testStore(t, 3)
	good := randomGraph(1, 30, 40)
	mustSaveGen(t, st, good)
	latest := mustSaveGen(t, st, randomGraph(2, 30, 40))

	corruptTail(t, latest.Path)
	g, report, err := st.Open()
	if err != nil {
		t.Fatalf("Open with one bad generation: %v", err)
	}
	if report.Loaded.Seq != 1 {
		t.Fatalf("loaded generation %d, want fallback to 1", report.Loaded.Seq)
	}
	if len(report.Skipped) != 1 || report.Skipped[0].Seq != 2 {
		t.Fatalf("skipped = %+v", report.Skipped)
	}
	if !strings.Contains(report.Skipped[0].Reason, "mismatch") {
		t.Errorf("skip reason does not explain the damage: %q", report.Skipped[0].Reason)
	}
	graphsEquivalent(t, good, g)
}

func TestStoreOpenFallsBackOverTruncatedNewest(t *testing.T) {
	st := testStore(t, 3)
	good := randomGraph(1, 30, 40)
	mustSaveGen(t, st, good)
	latest := mustSaveGen(t, st, randomGraph(2, 30, 40))

	data, err := os.ReadFile(latest.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(latest.Path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	g, report, err := st.Open()
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded.Seq != 1 || len(report.Skipped) != 1 {
		t.Fatalf("report = %+v", report)
	}
	graphsEquivalent(t, good, g)
}

func TestStoreOpenFallsBackOverMissingNewest(t *testing.T) {
	st := testStore(t, 3)
	mustSaveGen(t, st, randomGraph(1, 30, 40))
	latest := mustSaveGen(t, st, randomGraph(2, 30, 40))
	if err := os.Remove(latest.Path); err != nil {
		t.Fatal(err)
	}
	_, report, err := st.Open()
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded.Seq != 1 || len(report.Skipped) != 1 {
		t.Fatalf("report = %+v", report)
	}
}

func TestStoreOpenAllGenerationsBad(t *testing.T) {
	st := testStore(t, 3)
	for i := 0; i < 2; i++ {
		gen := mustSaveGen(t, st, randomGraph(int64(i+1), 10, 10))
		corruptTail(t, gen.Path)
	}
	_, report, err := st.Open()
	if !errors.Is(err, ErrNoGenerations) {
		t.Fatalf("err = %v, want ErrNoGenerations", err)
	}
	if len(report.Skipped) != 2 {
		t.Fatalf("skipped = %+v", report.Skipped)
	}
}

func TestStoreOpenEmpty(t *testing.T) {
	st := testStore(t, 3)
	if _, _, err := st.Open(); !errors.Is(err, ErrNoGenerations) {
		t.Fatalf("err = %v, want ErrNoGenerations", err)
	}
}

func TestStoreRecoversUnmanifestedGeneration(t *testing.T) {
	// Crash window: the snapshot rename completed but the manifest update
	// never happened. The dir scan must surface the orphan generation, and
	// Open must serve it (its own internal checksums vouch for it).
	st := testStore(t, 3)
	mustSaveGen(t, st, randomGraph(1, 20, 20))
	orphan := fixtureGraph()
	if err := orphan.SaveFile(filepath.Join(st.Dir(), genFileName(7))); err != nil {
		t.Fatal(err)
	}
	g, report, err := st.Open()
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded.Seq != 7 {
		t.Fatalf("loaded generation %d, want the newer unmanifested 7", report.Loaded.Seq)
	}
	graphsEquivalent(t, orphan, g)

	// The next Save sequences after the orphan and re-manifests everything.
	gen := mustSaveGen(t, st, randomGraph(2, 20, 20))
	if gen.Seq != 8 {
		t.Fatalf("next save seq = %d, want 8", gen.Seq)
	}
}

func TestStoreToleratesTornManifestTail(t *testing.T) {
	st := testStore(t, 3)
	good := randomGraph(1, 30, 40)
	mustSaveGen(t, st, good)
	f, err := os.OpenFile(filepath.Join(st.Dir(), storeManifest), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("gen 99 gen-000099.snap"); err != nil { // torn mid-append
		t.Fatal(err)
	}
	f.Close()
	g, report, err := st.Open()
	if err != nil {
		t.Fatal(err)
	}
	if report.Loaded.Seq != 1 {
		t.Fatalf("loaded %d", report.Loaded.Seq)
	}
	graphsEquivalent(t, good, g)
}

func TestStoreGarbageCollectsTempFiles(t *testing.T) {
	st := testStore(t, 3)
	stale := filepath.Join(st.Dir(), "gen-000001.snapshot.tmp-12345")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustSaveGen(t, st, randomGraph(1, 10, 10))
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Save (err=%v)", err)
	}
}

func TestStoreSaveDoesNotDisturbOldGenerationsOnNewWrite(t *testing.T) {
	st := testStore(t, 2)
	g1 := randomGraph(1, 20, 20)
	gen1 := mustSaveGen(t, st, g1)
	before, err := os.ReadFile(gen1.Path)
	if err != nil {
		t.Fatal(err)
	}
	mustSaveGen(t, st, randomGraph(2, 20, 20))
	after, err := os.ReadFile(gen1.Path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("previous generation bytes changed")
	}
}

// markerGen builds a tiny graph identified by seq: one Marker node plus a
// few filler nodes, so a concurrent reader can check which generation it
// got and that the generation is internally consistent.
func markerGen(seq uint64) *Graph {
	g := New()
	items := int(seq%4) + 2
	g.AddNode([]string{"Marker"}, Props{"gen": Int(int64(seq)), "items": Int(int64(items))})
	for i := 0; i < items; i++ {
		g.AddNode([]string{"Item"}, Props{"gen": Int(int64(seq))})
	}
	return g
}

// checkMarkerGraph asserts the loaded graph is one whole markerGen — the
// marker's recorded item count matches the Item nodes present, i.e. the
// reader never sees a half-published generation.
func checkMarkerGraph(t *testing.T, g *Graph, seq uint64) {
	t.Helper()
	markers := g.NodesByLabel("Marker")
	if len(markers) != 1 {
		t.Fatalf("generation %d: %d Marker nodes, want 1", seq, len(markers))
	}
	gen, _ := g.NodeProp(markers[0], "gen").AsInt()
	items, _ := g.NodeProp(markers[0], "items").AsInt()
	if uint64(gen) != seq {
		t.Fatalf("loaded generation says gen=%d, store says seq=%d", gen, seq)
	}
	if got := len(g.NodesByLabel("Item")); got != int(items) {
		t.Fatalf("generation %d: marker records %d items, graph has %d", seq, items, got)
	}
}

// TestGenerationsSafeDuringConcurrentPublish is the follower's view of a
// live builder: one goroutine publishes (and prunes) generations in the
// same directory another lists and opens. Listing must never error, heads
// must be monotone, every load must be a whole generation, and the only
// acceptable skip reason is a file pruned between listing and loading.
func TestGenerationsSafeDuringConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	builder, err := OpenStore(dir, StoreOptions{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const pubs = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= pubs; i++ {
			if _, err := builder.Save(markerGen(uint64(i))); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()

	checkOnce := func(lastHead uint64) uint64 {
		gens, err := follower.Generations()
		if err != nil {
			t.Fatalf("Generations during publish: %v", err)
		}
		for i := 1; i < len(gens); i++ {
			if gens[i-1].Seq <= gens[i].Seq {
				t.Fatalf("listing not strictly newest-first: %d then %d", gens[i-1].Seq, gens[i].Seq)
			}
		}
		g, report, err := follower.Open()
		if err != nil {
			if errors.Is(err, ErrNoGenerations) && lastHead == 0 {
				return 0 // builder hasn't landed the first generation yet
			}
			t.Fatalf("Open during publish: %v", err)
		}
		for _, s := range report.Skipped {
			if !strings.Contains(s.Reason, "missing") && !strings.Contains(s.Reason, "no such file") {
				t.Fatalf("generation %d skipped for %q; concurrent publish must only ever race as a vanished file", s.Seq, s.Reason)
			}
		}
		if report.Loaded.Seq < lastHead {
			t.Fatalf("head went backwards: %d after %d", report.Loaded.Seq, lastHead)
		}
		checkMarkerGraph(t, g, report.Loaded.Seq)
		return report.Loaded.Seq
	}

	var head uint64
	for {
		select {
		case <-done:
			if final := checkOnce(head); final != pubs {
				t.Fatalf("after publishing finished, Open loaded %d, want %d", final, pubs)
			}
			return
		default:
			head = checkOnce(head)
		}
	}
}

func TestStoreMTimeMovesOnSave(t *testing.T) {
	st := testStore(t, 3)
	if _, ok := st.MTime(); ok {
		t.Fatal("empty store reported a manifest mtime")
	}
	mustSaveGen(t, st, fixtureGraph())
	mt1, ok := st.MTime()
	if !ok {
		t.Fatal("no manifest mtime after save")
	}
	mustSaveGen(t, st, fixtureGraph())
	mt2, ok := st.MTime()
	if !ok {
		t.Fatal("no manifest mtime after second save")
	}
	if !mt2.After(mt1) && !mt2.Equal(mt1) {
		t.Fatalf("mtime went backwards: %v -> %v", mt1, mt2)
	}
	if mt2.Equal(mt1) {
		t.Log("filesystem mtime granularity too coarse to distinguish saves (not a failure)")
	}
}

// loadClass names the errors.Is class of a generation load's outcome.
func loadClass(err error) string {
	for _, c := range []struct {
		name   string
		target error
	}{
		{"missing", ErrGenMissing},
		{"truncated", ErrGenTruncated},
		{"corrupt", ErrCorrupt},
		{"unsupported", errUnsupportedFormat},
	} {
		if errors.Is(err, c.target) {
			return c.name
		}
	}
	if err != nil {
		return "other"
	}
	return "ok"
}

// loadMatchesReference loads gen through Store.Load and through the
// two-read reference (VerifyGen, then LoadFileWith), each seeded with a
// fresh dictionary from dict (which may return nil). Both must fail in the
// same class, or both succeed with the same LoadReport and graphs that save
// to identical bytes. It returns the shared class.
func loadMatchesReference(t testing.TB, st *Store, gen Generation, dict func() *Interner) string {
	t.Helper()
	g, rep, err := st.Load(gen, dict())
	refErr := st.VerifyGen(gen)
	var refG *Graph
	var refRep LoadReport
	if refErr == nil {
		refG, refRep, refErr = LoadFileWith(gen.Path, LoadOptions{Dict: dict()})
	}
	class := loadClass(err)
	if ref := loadClass(refErr); class != ref {
		t.Fatalf("Store.Load: %s (%v), reference: %s (%v)", class, err, ref, refErr)
	}
	if err != nil {
		return class
	}
	if rep != refRep {
		t.Fatalf("LoadReport %+v, reference %+v", rep, refRep)
	}
	var got, want bytes.Buffer
	if err := g.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := refG.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Store.Load's graph saves to %d bytes that differ from the reference's %d", got.Len(), want.Len())
	}
	return class
}

// storeGen writes data as generation 1 of st and returns its record:
// manifested with the size and CRC of recorded (the bytes the builder meant
// to publish), or an unmanifested orphan when recorded is nil.
func storeGen(t testing.TB, st *Store, data, recorded []byte) Generation {
	t.Helper()
	gen := Generation{Seq: 1, Path: filepath.Join(st.Dir(), genFileName(1))}
	if err := os.WriteFile(gen.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if recorded != nil {
		gen.Size, gen.CRC, gen.manifested = int64(len(recorded)), crc32.Checksum(recorded, castagnoli), true
	}
	return gen
}

func TestStoreLoadMatchesVerifyThenLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := randomGraph(1, 30, 40).Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	flipped := bytes.Clone(snap)
	flipped[len(flipped)/2] ^= 0x10
	preColumnar, err := os.ReadFile("testdata/v2-boxed.snapshot")
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		// setup places the generation's file and returns its record.
		setup func(t *testing.T, st *Store) Generation
		want  string
	}{
		{"intact", func(t *testing.T, st *Store) Generation { return storeGen(t, st, snap, snap) }, "ok"},
		{"missing", func(t *testing.T, st *Store) Generation {
			gen := storeGen(t, st, snap, snap)
			if err := os.Remove(gen.Path); err != nil {
				t.Fatal(err)
			}
			return gen
		}, "missing"},
		{"truncated", func(t *testing.T, st *Store) Generation { return storeGen(t, st, snap[:len(snap)/3], snap) }, "truncated"},
		{"over-long", func(t *testing.T, st *Store) Generation {
			return storeGen(t, st, append(bytes.Clone(snap), "garbage"...), snap)
		}, "corrupt"},
		{"bit flip, honest manifest", func(t *testing.T, st *Store) Generation { return storeGen(t, st, flipped, snap) }, "corrupt"},
		{"bit flip, lying manifest", func(t *testing.T, st *Store) Generation { return storeGen(t, st, flipped, flipped) }, "corrupt"},
		{"unmanifested orphan", func(t *testing.T, st *Store) Generation { return storeGen(t, st, snap, nil) }, "ok"},
		{"pre-columnar fixture", func(t *testing.T, st *Store) Generation {
			return storeGen(t, st, preColumnar, preColumnar)
		}, "unsupported"},
		{"directory at the generation path", func(t *testing.T, st *Store) Generation {
			gen := storeGen(t, st, snap, snap)
			if err := os.Remove(gen.Path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(gen.Path, 0o755); err != nil {
				t.Fatal(err)
			}
			return gen
		}, "other"},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := testStore(t, 3)
			gen := c.setup(t, st)
			for _, dict := range []func() *Interner{
				func() *Interner { return nil },
				func() *Interner { return randomGraph(2, 30, 40).Interner() },
			} {
				if got := loadMatchesReference(t, st, gen, dict); got != c.want {
					t.Fatalf("class %s, want %s", got, c.want)
				}
			}
		})
	}
}

// FuzzStoreLoadMatchesReference extends the table test to arbitrary bytes:
// written lands on disk, and the record is the size and CRC of intended
// (honest), of written (lying), or absent (an orphan), chosen by manifest.
// Seeds are FuzzLoad's corpus, intact and cut short, damaged and extended.
func FuzzStoreLoadMatchesReference(f *testing.F) {
	for _, data := range loadCorpus(f) {
		long := append(bytes.Clone(data), 0)
		flipped := bytes.Clone(data)
		if len(flipped) > 0 {
			flipped[len(flipped)/2] ^= 0x10
		}
		for manifest := range uint8(3) {
			for _, written := range [][]byte{data, data[:len(data)/2], long, flipped} {
				f.Add(data, written, manifest)
			}
		}
	}
	f.Fuzz(func(t *testing.T, intended, written []byte, manifest uint8) {
		st := testStore(t, 3)
		recorded := [][]byte{intended, written, nil}[manifest%3]
		if recorded == nil && manifest%3 != 2 {
			recorded = []byte{} // an empty record is still a record
		}
		loadMatchesReference(t, st, storeGen(t, st, written, recorded), func() *Interner { return nil })
	})
}
