package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"iyp/internal/graph"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// markerGraph builds a tiny graph stamped with seq so tests can tell which
// builder generation is serving.
func markerGraph(seq uint64) *graph.Graph {
	g := graph.New()
	g.AddNode([]string{"Marker"}, graph.Props{"gen": graph.Int(int64(seq))})
	for i := 0; i < 3; i++ {
		g.AddNode([]string{"Item"}, graph.Props{"n": graph.Int(int64(i))})
	}
	return g
}

// servingSeq reads the marker stamp out of the MVStore's current head, or 0
// for the placeholder graph.
func servingSeq(mv *graph.MVStore) uint64 {
	g, _, release := mv.Acquire()
	defer release()
	markers := g.NodesByLabel("Marker")
	if len(markers) != 1 {
		return 0
	}
	v, _ := g.NodeProp(markers[0], "gen").AsInt()
	return uint64(v)
}

func newTestFollower(t *testing.T, cfg Config) (*FaultStore, *graph.MVStore, *Follower) {
	t.Helper()
	fs, err := NewFaultStore(t.TempDir(), 42)
	if err != nil {
		t.Fatalf("NewFaultStore: %v", err)
	}
	mv := graph.NewMVStore(graph.New())
	mv.SetRetain(1)
	return fs, mv, New(fs.Store(), mv, cfg)
}

func TestFollowerServesFirstGoodGeneration(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})

	// Empty store: not ready, not faulted — nothing to serve is not a fault.
	out := f.Poll()
	if out.Loaded || out.Faulted {
		t.Fatalf("empty-store poll = %+v, want idle", out)
	}
	if st := f.Status(); st.Ready {
		t.Fatalf("ready before any load: %+v", st)
	}

	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	out = f.Poll()
	if !out.Loaded || out.Seq != 1 {
		t.Fatalf("poll after publish = %+v, want Loaded seq 1", out)
	}
	if got := servingSeq(mv); got != 1 {
		t.Fatalf("serving seq = %d, want 1", got)
	}
	st := f.Status()
	if !st.Ready || st.Degraded || st.LastGoodGen != 1 || st.Reloads[0] != 1 {
		t.Fatalf("status after load: %+v", st)
	}

	// Re-poll with no news: no-op, still serving 1.
	out = f.Poll()
	if out.Loaded || out.Faulted || servingSeq(mv) != 1 {
		t.Fatalf("idle re-poll = %+v serving=%d", out, servingSeq(mv))
	}
}

func TestFollowerKeepsLastGoodPastCorruptHead(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	if _, err := fs.PublishBitFlip(markerGraph(2), false); err != nil {
		t.Fatalf("PublishBitFlip: %v", err)
	}
	out := f.Poll()
	if out.Loaded || !out.Faulted {
		t.Fatalf("poll over corrupt head = %+v, want faulted not loaded", out)
	}
	if !errors.Is(out.Err, graph.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", out.Err)
	}
	if got := servingSeq(mv); got != 1 {
		t.Fatalf("serving seq = %d, want last-good 1", got)
	}
	if n := f.Status().Reloads[indexOf(ReloadCorrupt)]; n != 1 {
		t.Fatalf("corrupt count = %d, want 1", n)
	}

	// Builder recovers with gen 3: follower converges.
	if _, err := fs.PublishGood(markerGraph(3)); err != nil {
		t.Fatal(err)
	}
	out = f.Poll()
	if !out.Loaded || out.Seq != 3 || servingSeq(mv) != 3 {
		t.Fatalf("recovery poll = %+v serving=%d, want 3", out, servingSeq(mv))
	}
}

func TestFollowerLyingManifestCaughtByLoader(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	// Lying manifest vouches for the flipped bytes: the CRC pre-check
	// passes, so only the snapshot's internal checksums can refuse it.
	if _, err := fs.PublishBitFlip(markerGraph(2), true); err != nil {
		t.Fatalf("PublishBitFlip lying: %v", err)
	}
	out := f.Poll()
	if out.Loaded || servingSeq(mv) != 1 {
		t.Fatalf("lying-manifest generation served: %+v serving=%d", out, servingSeq(mv))
	}
	if n := f.Status().Reloads[indexOf(ReloadCorrupt)]; n != 1 {
		t.Fatalf("corrupt count = %d, want 1", n)
	}
}

func TestFollowerClassifiesTruncation(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	if _, err := fs.PublishTruncated(markerGraph(2), false); err != nil {
		t.Fatalf("PublishTruncated: %v", err)
	}
	out := f.Poll()
	if out.Loaded || !errors.Is(out.Err, graph.ErrGenTruncated) {
		t.Fatalf("poll = %+v, want ErrGenTruncated", out)
	}
	if n := f.Status().Reloads[indexOf(ReloadTruncated)]; n != 1 {
		t.Fatalf("truncated count = %d, want 1", n)
	}
	if servingSeq(mv) != 1 {
		t.Fatalf("serving seq = %d, want 1", servingSeq(mv))
	}
}

func TestFollowerRecoversTornManifestViaOrphanScan(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})
	// Tear needs an existing manifest line to ruin, so seed one first.
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	// The snapshot is intact; only its manifest record is torn. The orphan
	// scan finds it and the loader's internal checksums vouch for it.
	if _, err := fs.PublishTornManifest(markerGraph(2)); err != nil {
		t.Fatalf("PublishTornManifest: %v", err)
	}
	out := f.Poll()
	if !out.Loaded || out.Seq != 2 || servingSeq(mv) != 2 {
		t.Fatalf("torn-manifest poll = %+v serving=%d, want 2", out, servingSeq(mv))
	}
}

func TestFollowerRecoversRenameThenCrashOrphan(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	// Crash between the snapshot rename and the manifest rename: the new
	// generation exists only as an unmanifested file.
	if _, err := fs.PublishOrphan(markerGraph(2)); err != nil {
		t.Fatalf("PublishOrphan: %v", err)
	}
	out := f.Poll()
	if !out.Loaded || out.Seq != 2 || servingSeq(mv) != 2 {
		t.Fatalf("orphan poll = %+v serving=%d, want 2", out, servingSeq(mv))
	}
}

func TestFollowerRetryBudgetSkipsWornGeneration(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{MaxAttempts: 2})
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()
	if _, err := fs.PublishBitFlip(markerGraph(2), false); err != nil {
		t.Fatal(err)
	}

	// Two polls spend the budget; the third skips without re-reading.
	for i := 0; i < 3; i++ {
		if out := f.Poll(); out.Loaded || !out.Faulted {
			t.Fatalf("poll %d = %+v, want faulted", i, out)
		}
	}
	if n := f.Status().Reloads[indexOf(ReloadCorrupt)]; n != 2 {
		t.Fatalf("corrupt count = %d, want exactly MaxAttempts=2", n)
	}

	// A newer good generation clears the wedge and prunes the budget map.
	if _, err := fs.PublishGood(markerGraph(3)); err != nil {
		t.Fatal(err)
	}
	if out := f.Poll(); !out.Loaded || out.Seq != 3 {
		t.Fatalf("recovery poll = %+v, want 3", out)
	}
	if servingSeq(mv) != 3 {
		t.Fatalf("serving seq = %d, want 3", servingSeq(mv))
	}
	f.mu.Lock()
	pending := len(f.attempts)
	f.mu.Unlock()
	if pending != 0 {
		t.Fatalf("attempts map holds %d superseded entries, want 0", pending)
	}
}

func TestFollowerListErrorClassified(t *testing.T) {
	fs, _, f := newTestFollower(t, Config{})
	if err := os.RemoveAll(fs.Store().Dir()); err != nil {
		t.Fatal(err)
	}
	out := f.Poll()
	if !out.Faulted || out.Err == nil {
		t.Fatalf("poll on removed dir = %+v, want faulted", out)
	}
	if n := f.Status().Reloads[indexOf(ReloadListError)]; n != 1 {
		t.Fatalf("list_error count = %d, want 1", n)
	}
}

func TestFollowerReadFailuresAreIOErrors(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})
	gen, err := fs.PublishGood(markerGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the snapshot was: listing still offers the
	// generation, but reading it fails outright.
	saved := gen.Path + ".saved"
	if err := os.Rename(gen.Path, saved); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(gen.Path, 0o755); err != nil {
		t.Fatal(err)
	}
	out := f.Poll()
	if out.Loaded || !out.Faulted {
		t.Fatalf("poll with unreadable snapshot = %+v", out)
	}
	st := f.Status()
	if n := st.Reloads[indexOf(ReloadIOError)]; n != 1 {
		t.Fatalf("io_error count = %d, want 1 (reloads %v)", n, st.Reloads)
	}

	// The file restored: the same generation loads.
	if err := os.Remove(gen.Path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, gen.Path); err != nil {
		t.Fatal(err)
	}
	if out := f.Poll(); !out.Loaded || out.Seq != 1 {
		t.Fatalf("poll after restore = %+v, want loaded 1", out)
	}
	if got := servingSeq(mv); got != 1 {
		t.Fatalf("serving seq = %d, want 1", got)
	}
}

func TestFollowerStartNotifyClose(t *testing.T) {
	before := runtime.NumGoroutine()
	fs, mv, f := newTestFollower(t, Config{Interval: time.Hour}) // polling off: Notify drives it
	fs.Store().OnSave(func(graph.Generation) { f.Notify() })
	f.Start()
	f.Start() // idempotent
	t.Cleanup(f.Close)

	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.LastGood() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never picked up gen 1: %v", f.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if servingSeq(mv) != 1 {
		t.Fatalf("serving seq = %d, want 1", servingSeq(mv))
	}

	f.Close()
	f.Close() // idempotent
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowerBackoffBoundedAndJittered(t *testing.T) {
	_, _, f := newTestFollower(t, Config{Interval: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 3})
	rng := newSeededRand(3)
	for consecutive := 1; consecutive <= 10; consecutive++ {
		d := f.backoffDelay(rng, consecutive)
		if d < 50*time.Millisecond || d >= time.Second {
			t.Fatalf("consecutive=%d: delay %v outside [Interval/2, MaxBackoff)", consecutive, d)
		}
	}
	// Determinism: the same seed replays the same schedule.
	a, b := newSeededRand(9), newSeededRand(9)
	for i := 1; i <= 5; i++ {
		if da, db := f.backoffDelay(a, i), f.backoffDelay(b, i); da != db {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, da, db)
		}
	}
}

func TestFollowerStatusDegradedPastStaleness(t *testing.T) {
	fs, _, _ := newTestFollower(t, Config{})
	now := time.Unix(1000, 0)
	mv := graph.NewMVStore(graph.New())
	f := New(fs.Store(), mv, Config{
		StaleAfter: time.Minute,
		Now:        func() time.Time { return now },
	})
	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	if st := f.Status(); !st.Ready || st.Degraded {
		t.Fatalf("fresh status: %+v", st)
	}
	now = now.Add(2 * time.Minute)
	st := f.Status()
	if !st.Ready || !st.Degraded || st.Age != 2*time.Minute {
		t.Fatalf("stale status: %+v", st)
	}
	if !strings.Contains(st.String(), "degraded") {
		t.Fatalf("String() = %q, want degraded", st.String())
	}
}

// indexOf maps a reload-result label to its slot in Status.Reloads.
func indexOf(result string) int {
	for i, r := range ReloadResults {
		if r == result {
			return i
		}
	}
	panic(fmt.Sprintf("unknown reload result %q", result))
}

// TestFollowerBumpWatcherPicksUpPublish proves the push-notification path:
// polling is effectively off (hour-long interval), so the only way the
// follower can see the new generation inside the deadline is the manifest
// mtime watcher Notify()ing the poll loop.
func TestFollowerBumpWatcherPicksUpPublish(t *testing.T) {
	before := runtime.NumGoroutine()
	fs, mv, f := newTestFollower(t, Config{
		Interval:     time.Hour,
		BumpInterval: 2 * time.Millisecond,
	})
	f.Start()
	t.Cleanup(f.Close)

	// Let Start's immediate first poll (empty store) and the watcher's
	// initial mtime read settle, so the pickup below must come from a
	// detected mtime change, not the startup poll.
	time.Sleep(50 * time.Millisecond)

	if _, err := fs.PublishGood(markerGraph(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.LastGood() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("bump watcher never woke the poll loop: %v", f.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if servingSeq(mv) != 1 {
		t.Fatalf("serving seq = %d, want 1", servingSeq(mv))
	}

	f.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerReloadsReuseDictionary pins the columnar reload win: the
// second generation's snapshot load is seeded with the first's string
// dictionary, so every string that survived the rebuild is shared rather
// than re-allocated, and the iyp_replica_dict_* counters show it.
func TestFollowerReloadsReuseDictionary(t *testing.T) {
	fs, mv, f := newTestFollower(t, Config{})

	stable := func(g *graph.Graph) {
		for i := 0; i < 20; i++ {
			g.AddNode([]string{"AS"}, graph.Props{
				"name":    graph.String(fmt.Sprintf("Example Network %d", i)),
				"country": graph.String("NL"),
			})
		}
	}
	g1 := markerGraph(1)
	stable(g1)
	if _, err := fs.PublishGood(g1); err != nil {
		t.Fatal(err)
	}
	if out := f.Poll(); !out.Loaded {
		t.Fatalf("poll 1 = %+v", out)
	}
	st := f.Status()
	if st.DictStrings == 0 {
		t.Fatal("first reload decoded no dictionary entries; snapshot not columnar?")
	}
	if st.DictReused != 0 {
		t.Fatalf("first reload reports %d reused entries with no previous dictionary", st.DictReused)
	}

	g2 := markerGraph(2)
	stable(g2)
	g2.AddNode([]string{"AS"}, graph.Props{"name": graph.String("Newcomer")})
	if _, err := fs.PublishGood(g2); err != nil {
		t.Fatal(err)
	}
	if out := f.Poll(); !out.Loaded || out.Seq != 2 {
		t.Fatalf("poll 2 = %+v", out)
	}
	st2 := f.Status()
	reused := st2.DictReused - st.DictReused
	decoded := st2.DictStrings - st.DictStrings
	if reused == 0 {
		t.Fatal("second reload reused no dictionary entries from the previous generation")
	}
	if reused >= decoded {
		t.Fatalf("second reload reused %d of %d entries; the new string should have missed", reused, decoded)
	}

	// The serving generation's graph really shares storage: its dictionary
	// is the same object the previous generation populated.
	g, _, release := mv.Acquire()
	defer release()
	if g.Interner() == nil {
		t.Fatal("serving graph has no dictionary")
	}
}
