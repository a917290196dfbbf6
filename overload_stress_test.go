package iyp_test

// Overload stress: a governed server at several times its capacity must
// keep serving cheap indexed lookups while abusive expensive clients
// hammer it, and must come back to a clean idle state (no leaked
// goroutines, slots or queue positions) once the storm passes. The same
// storm against a test-local bare-semaphore handler (the pre-governance
// behaviour) demonstrates the collapse the admission layer prevents.
//
// The expensive workload is an injected `algo.stall` procedure that holds
// an execution slot for a fixed wall-clock time while honouring
// cancellation: deterministic slot pressure, independent of how fast the
// machine computes. Its "algo." prefix makes the cost estimator classify
// it as analytics, so the degrade ladder sheds it first — exactly like the
// real whole-graph kernels it stands in for.
//
// Run under -race this doubles as the data-race check for the admission
// path: token buckets, the degrade ladder, the watchdog registry and the
// shed counters are all exercised from many goroutines at once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"iyp"
	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/server"
)

func init() {
	cypher.RegisterProc(cypher.ProcSpec{
		Name: "algo.stall",
		Cols: []string{"ok"},
		Help: "Hold an execution slot for cfg.ms milliseconds (stress tests).",
		Impl: func(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
			ms := cypher.CfgInt(cfg, "ms", 100)
			select {
			case <-pc.Ctx.Done():
				return pc.Ctx.Err()
			case <-time.After(time.Duration(ms) * time.Millisecond):
			}
			return emit([]cypher.Val{cypher.ScalarVal(graph.Bool(true))})
		},
	})
}

func overloadGraph(nAS int) *graph.Graph {
	g := graph.New()
	for i := 0; i < nAS; i++ {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(64000 + i))})
	}
	g.EnsureIndex("AS", "asn")
	return g
}

// postJSON drives the handler in-process; no listener, no network flakes.
func postJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// semaphoreServer is the ungoverned baseline: a bare semaphore in front of
// the executor, answering 503 the moment its slots are taken — no budgets,
// no queue, no degrade ladder.
type semaphoreServer struct {
	db    *iyp.DB
	slots chan struct{}
}

func (s *semaphoreServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Query  string           `json:"query"`
		Params map[string]int64 `json:"params"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		http.Error(w, "at capacity", http.StatusServiceUnavailable)
		return
	}
	params := make(map[string]iyp.Value, len(req.Params))
	for k, v := range req.Params {
		params[k] = iyp.IntValue(v)
	}
	if _, err := s.db.Query(r.Context(), req.Query, iyp.WithParams(params)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// runOverloadStorm fires expensiveClients abusive analytics loops and
// cheapClients well-behaved indexed-lookup loops at h, and reports how
// many cheap attempts succeeded, were shed, or otherwise failed. Cheap
// clients honour Retry-After (capped, so the test stays fast); expensive
// clients deliberately do not — they model the aggressive traffic
// admission control exists to contain.
func runOverloadStorm(t *testing.T, h http.Handler, expensiveClients, cheapClients, cheapAttempts int) (ok, shed, failed int) {
	t.Helper()
	const expensive = `{"query": "CALL algo.stall({ms: 120}) YIELD ok RETURN ok"}`
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < expensiveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				postJSON(h, "/v1/query", expensive)
			}
		}()
	}

	var mu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < cheapClients; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for i := 0; i < cheapAttempts; i++ {
				asn := 64000 + (c*cheapAttempts+i)%400
				body := fmt.Sprintf(`{"query": "MATCH (a:AS {asn: $asn}) RETURN a.asn AS asn", "params": {"asn": %d}}`, asn)
				w := postJSON(h, "/v1/query", body)
				mu.Lock()
				switch {
				case w.Code == http.StatusOK:
					ok++
				case w.Code == http.StatusServiceUnavailable || w.Code == http.StatusTooManyRequests:
					shed++
				default:
					failed++
				}
				mu.Unlock()
				if w.Code != http.StatusOK {
					// A well-behaved client backs off as told (capped so a
					// long Retry-After cannot stall the test).
					time.Sleep(20 * time.Millisecond)
				}
			}
		}(c)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	return ok, shed, failed
}

func TestOverloadGovernedKeepsCheapGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("overload storm takes a few seconds")
	}
	g := overloadGraph(400)
	cfg := server.Config{
		MaxConcurrent: 2,
		QueueDepth:    8,
		MaxQueueWait:  5 * time.Second,
		SlowQuery:     10 * time.Second, // keep the latency-tail ladder term quiet
	}
	governed := server.New(graph.NewMVStore(g), cfg)
	ungoverned := &semaphoreServer{db: iyp.Wrap(g), slots: make(chan struct{}, cfg.MaxConcurrent)}

	goroutinesBefore := runtime.NumGoroutine()

	// Sanity: unloaded, every cheap lookup succeeds.
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"query": "MATCH (a:AS {asn: $asn}) RETURN a.asn AS asn", "params": {"asn": %d}}`, 64000+i)
		if w := postJSON(governed, "/v1/query", body); w.Code != http.StatusOK {
			t.Fatalf("unloaded cheap query %d: status %d (%s)", i, w.Code, w.Body)
		}
	}

	// The storm: 8 abusive analytics clients against 2 slots is 4x
	// capacity before the cheap traffic is even counted.
	const expensiveClients, cheapClients, attempts = 8, 4, 40
	govOK, govShed, govFailed := runOverloadStorm(t, governed, expensiveClients, cheapClients, attempts)
	ungovOK, ungovShed, ungovFailed := runOverloadStorm(t, ungoverned, expensiveClients, cheapClients, attempts)

	total := cheapClients * attempts
	t.Logf("governed:   cheap ok=%d shed=%d failed=%d of %d", govOK, govShed, govFailed, total)
	t.Logf("ungoverned: cheap ok=%d shed=%d failed=%d of %d", ungovOK, ungovShed, ungovFailed, total)

	if govFailed > 0 || ungovFailed > 0 {
		t.Fatalf("cheap queries failed with non-shed errors: governed=%d ungoverned=%d", govFailed, ungovFailed)
	}
	// The cheap-goodput floor: governance must keep at least 80% of the
	// cheap attempts succeeding while the server runs at 4x capacity.
	if floor := (total * 8) / 10; govOK < floor {
		t.Errorf("governed cheap goodput %d/%d below the 80%% floor (%d)", govOK, total, floor)
	}
	// And it must actually be governance doing it: the bare semaphore
	// under the same storm sheds cheap traffic that governance serves.
	if govOK <= ungovOK && ungovShed == 0 {
		t.Errorf("ungoverned baseline did not degrade (ok=%d shed=%d): storm too weak to prove anything", ungovOK, ungovShed)
	}

	// Drain and check for leaks: health must report an idle admission
	// layer...
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := httptest.NewRecorder()
		governed.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
		var h struct {
			InFlight   int `json:"in_flight"`
			QueueDepth int `json:"queue_depth"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatalf("health payload: %v", err)
		}
		if h.InFlight == 0 && h.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission layer never drained: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...and the goroutine count must come back to where it started
	// (in-flight stall procedures may take a moment to observe their
	// cancelled contexts).
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before storm, %d after drain", goroutinesBefore, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
