package iyp_test

// Replica failover stress: a follower serving queries through the HTTP API
// while a fault-injecting builder publishes good and damaged generations
// into its store. The suite asserts the replica tier's contract end to end:
//
//   - a damaged generation is never served — every response satisfies the
//     marker invariant baked into each published graph;
//   - serving survives every fault class with zero query failures (the
//     follower rejects off the serving path; stale-but-consistent wins);
//   - the follower converges to the builder's head once faults clear;
//   - nothing leaks: goroutines return to baseline after Close, superseded
//     generations drain to zero pinned readers.
//
// Run under -race this is also the data-race check for the watch loop, the
// hot-swap path and the pin-count reclamation under concurrent readers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"iyp/internal/graph"
	"iyp/internal/replica"
	"iyp/internal/server"
)

// failoverGraph builds one published generation: a Marker node recording
// its builder seq and how many Item nodes hang off it. A reader that ever
// observes items != count(i) is reading a generation that should never have
// been swapped in.
func failoverGraph(seq uint64) *graph.Graph {
	g := graph.New()
	items := int(seq%5) + 3
	m := g.AddNode([]string{"Marker"}, graph.Props{
		"gen":   graph.Int(int64(seq)),
		"items": graph.Int(int64(items)),
	})
	for i := 0; i < items; i++ {
		it := g.AddNode([]string{"Item"}, graph.Props{"n": graph.Int(int64(i))})
		if _, err := g.AddRel("HAS", m, it, nil); err != nil {
			panic(err)
		}
	}
	return g
}

const failoverQuery = `{"query": "MATCH (m:Marker)-[:HAS]-(i:Item) RETURN m.gen AS gen, m.items AS items, count(*) AS n"}`

type failoverRow struct {
	Gen   int64 `json:"gen"`
	Items int64 `json:"items"`
	N     int64 `json:"n"`
}

// checkFailoverResponse decodes one 200 response and asserts the marker
// invariant, returning the generation seq the query observed.
func checkFailoverResponse(t *testing.T, body []byte) int64 {
	t.Helper()
	var resp struct {
		Rows []failoverRow `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad response: %v: %s", err, body)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("marker query returned %d rows, want 1: %s", len(resp.Rows), body)
	}
	r := resp.Rows[0]
	if r.Items != r.N {
		t.Fatalf("CORRUPT GENERATION SERVED: gen %d claims %d items, graph has %d", r.Gen, r.Items, r.N)
	}
	return r.Gen
}

// hammer runs clients closed-loop readers, attempts each, against h. Every
// response must be 200 (a ready replica never sheds on faults) and satisfy
// the marker invariant; per-client observed generations must be monotone
// (the chain only moves forward). Returns total queries and elapsed time.
func hammer(t *testing.T, h http.Handler, clients, attempts int) (int, time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen int64
			for i := 0; i < attempts; i++ {
				w := postJSON(h, "/v1/query", failoverQuery)
				if w.Code != http.StatusOK {
					t.Errorf("query failed: %d %s", w.Code, w.Body)
					return
				}
				gen := checkFailoverResponse(t, w.Body.Bytes())
				if gen < lastGen {
					t.Errorf("generation went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
			}
		}()
	}
	wg.Wait()
	return clients * attempts, time.Since(t0)
}

// publishSchedule pushes one generation per entry, returning the seq of the
// last good (loadable) publish.
func publishSchedule(t *testing.T, fs *replica.FaultStore, schedule []string) uint64 {
	t.Helper()
	var lastGood uint64
	for _, kind := range schedule {
		g := failoverGraph(nextFailoverSeq(fs))
		var gen graph.Generation
		var err error
		switch kind {
		case "good":
			gen, err = fs.PublishGood(g)
			lastGood = gen.Seq
		case "bitflip":
			_, err = fs.PublishBitFlip(g, false)
		case "lying":
			_, err = fs.PublishBitFlip(g, true)
		case "truncated":
			_, err = fs.PublishTruncated(g, false)
		case "torn":
			gen, err = fs.PublishTornManifest(g)
			lastGood = gen.Seq // snapshot intact: recoverable via orphan scan
		case "orphan":
			gen, err = fs.PublishOrphan(g)
			lastGood = gen.Seq // ditto
		default:
			t.Fatalf("unknown fault kind %q", kind)
		}
		if err != nil {
			t.Fatalf("publish %s: %v", kind, err)
		}
	}
	return lastGood
}

// nextFailoverSeq peeks the store's next seq so failoverGraph's marker can
// bake it in (Save assigns head+1).
func nextFailoverSeq(fs *replica.FaultStore) uint64 {
	head, ok, err := fs.Store().Head()
	if err != nil || !ok {
		return 1
	}
	return head.Seq + 1
}

// waitLastGood blocks until the follower serves seq or the deadline hits.
func waitLastGood(t *testing.T, f *replica.Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.LastGood() != seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged to gen %d: %v", seq, f.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicaFailoverUnderFaults(t *testing.T) {
	baseline := runtime.NumGoroutine()

	fs, err := replica.NewFaultStore(t.TempDir(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMVStore(graph.New())
	mv.SetRetain(0) // replicas do not hoard superseded graphs
	f := replica.New(fs.Store(), mv, replica.Config{Interval: 2 * time.Millisecond, Seed: 1234})
	h := server.New(mv, server.Config{Replica: f})

	// Not ready before the first load; ready right after.
	if w := getPath(h, "/v1/ready"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-load ready status = %d", w.Code)
	}
	if _, err := fs.PublishGood(failoverGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()
	waitLastGood(t, f, 1)
	if w := getPath(h, "/v1/ready"); w.Code != http.StatusOK {
		t.Fatalf("post-load ready status = %d: %s", w.Code, w.Body)
	}

	// Phase A is fault-free churn; phase B is every fault class,
	// interleaved with good publishes. Publisher and readers run
	// concurrently in both. Each phase is about a tenth of a second of
	// queries, so the two are run in alternating rounds: a change in
	// machine load (other test packages, the GC) during the test lands on
	// both phases instead of deciding the ratio between them.
	const clients, rounds, attempts = 4, 5, 30 // 150 queries per client and phase
	faulted := []string{
		"bitflip", "good", "lying", "truncated", "good",
		"torn", "orphan", "bitflip", "good", "truncated",
	}
	phase := func(schedule []string) (int, time.Duration) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, kind := range schedule {
				publishSchedule(t, fs, []string{kind})
				time.Sleep(5 * time.Millisecond)
			}
		}()
		n, d := hammer(t, h, clients, attempts)
		<-done
		return n, d
	}
	var nA, nB int
	var dA, dB time.Duration
	per := len(faulted) / rounds
	for r := range rounds {
		runA := func() { n, d := phase([]string{"good", "good"}); nA, dA = nA+n, dA+d }
		runB := func() { n, d := phase(faulted[r*per : (r+1)*per]); nB, dB = nB+n, dB+d }
		if r%2 == 0 {
			runA()
			runB()
		} else {
			runB()
			runA()
		}
	}

	// Goodput: every query in both phases returned 200 (hammer fails the
	// test otherwise), so the ≥95% acceptance is about throughput — faults
	// must not slow the serving path. Generous margin: wall-clock ratios
	// under -race in CI are noisy; the benchmark's serve_during_ingest
	// workload measures the serving cost of a reload precisely.
	qpsA := float64(nA) / dA.Seconds()
	qpsB := float64(nB) / dB.Seconds()
	if qpsB < 0.5*qpsA {
		t.Errorf("faulted-phase goodput %.0f qps fell below half of fault-free %.0f qps", qpsB, qpsA)
	}
	t.Logf("goodput: fault-free %.0f qps, faulted %.0f qps (%.2fx)", qpsA, qpsB, qpsB/qpsA)

	// Convergence: faults cleared, one final good publish must be picked up.
	finalSeq := publishSchedule(t, fs, []string{"good"})
	waitLastGood(t, f, finalSeq)
	st := f.Status()
	if !st.Ready || st.Degraded {
		t.Fatalf("status after convergence: %+v", st)
	}
	if got := st.Reloads[reloadIndex(replica.ReloadCorrupt)]; got == 0 {
		t.Error("no corrupt reloads counted despite bit-flipped publishes")
	}
	if got := st.Reloads[reloadIndex(replica.ReloadTruncated)]; got == 0 {
		t.Error("no truncated reloads counted despite truncated publishes")
	}

	// Shutdown: no leaked goroutines, no pinned readers, retired
	// generations drained.
	f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, gi := range mv.Generations() {
		if gi.Pins != 0 {
			t.Errorf("generation %d still has %d pinned readers", gi.Gen, gi.Pins)
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for mv.Live() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d generations still live after drain (want 1)", mv.Live())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicaServesLastGoodThroughPureFaultStorm(t *testing.T) {
	fs, err := replica.NewFaultStore(t.TempDir(), 77)
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMVStore(graph.New())
	f := replica.New(fs.Store(), mv, replica.Config{Interval: 2 * time.Millisecond, Seed: 77})
	h := server.New(mv, server.Config{Replica: f})

	if _, err := fs.PublishGood(failoverGraph(1)); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()
	waitLastGood(t, f, 1)

	// Nothing but damage from here on — the replica must keep answering
	// from generation 1 for the whole storm.
	for _, kind := range []string{"bitflip", "truncated", "lying", "bitflip", "truncated"} {
		publishSchedule(t, fs, []string{kind})
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		w := postJSON(h, "/v1/query", failoverQuery)
		if w.Code != http.StatusOK {
			t.Fatalf("query failed during fault storm: %d %s", w.Code, w.Body)
		}
		if gen := checkFailoverResponse(t, w.Body.Bytes()); gen != 1 {
			t.Fatalf("storm served generation %d, want last-good 1", gen)
		}
	}
	if f.LastGood() != 1 {
		t.Fatalf("LastGood = %d, want 1", f.LastGood())
	}
	if st := f.Status(); st.Reloads[reloadIndex(replica.ReloadCorrupt)] == 0 {
		t.Error("storm produced no corrupt classifications")
	}
}

// getPath drives a GET in-process, mirroring postJSON.
func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// reloadIndex maps a reload-result label to its Status.Reloads slot.
func reloadIndex(result string) int {
	for i, r := range replica.ReloadResults {
		if r == result {
			return i
		}
	}
	panic(fmt.Sprintf("unknown reload result %q", result))
}
