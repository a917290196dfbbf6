package server

// End-to-end tests for the overload-governance pipeline: panic recovery and
// plan quarantine, per-query memory budgets, per-client request budgets,
// the degrade ladder and the health endpoint.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"iyp/internal/cypher"
	"iyp/internal/graph"
)

func init() {
	// A procedure that always panics, injected once for the whole test
	// binary: the executor must convert the panic into a typed error
	// instead of letting it kill the process.
	cypher.RegisterProc(cypher.ProcSpec{
		Name: "test.panic",
		Cols: []string{"x"},
		Help: "Always panics (crash-recovery tests).",
		Impl: func(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
			panic("injected test panic")
		},
	})
}

func TestPanicRecoveryAndQuarantine(t *testing.T) {
	srv := newTestServer(testGraph())
	const crash = `{"query": "CALL test.panic() YIELD x RETURN x"}`

	// First execution: the panic is recovered into a typed 500 and the
	// process (this test binary) survives.
	w := post(t, srv, "/v1/query", crash)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status = %d, want 500 (body %s)", w.Code, w.Body)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "internal_panic" {
		t.Fatalf("code = %q, want internal_panic", e.Code)
	}

	// Replay: the plan is quarantined, so the crash is not re-executed.
	w = post(t, srv, "/v1/query", crash)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined replay: status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "plan_quarantined" {
		t.Fatalf("replay code = %q, want plan_quarantined", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("quarantine response is missing Retry-After")
	}

	// Other queries are untouched by the breaker.
	w = post(t, srv, "/v1/query", `{"query": "MATCH (a:AS {asn: 2497}) RETURN a.asn AS asn"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("healthy query after panic: status = %d (body %s)", w.Code, w.Body)
	}

	// The metrics surface both the recovery and the quarantine.
	body := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		"iyp_query_panics_recovered_total 1",
		"iyp_quarantined_plans 1",
		`iyp_sheds_total{reason="quarantine"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMemoryBudgetEndpoint(t *testing.T) {
	// A 4 KiB budget cannot hold 5000 materialized rows.
	srv := newTestServer(bigGraph(5000), Config{MaxQueryMem: 4096})
	w := post(t, srv, "/v1/query", `{"query": "MATCH (n:N) RETURN n.i AS i"}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", w.Code, w.Body)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "memory_budget" {
		t.Fatalf("code = %q, want memory_budget", e.Code)
	}
	if !strings.Contains(e.Error, "memory budget") {
		t.Fatalf("error message %q does not mention the budget", e.Error)
	}
	if body := get(t, srv, "/metrics").Body.String(); !strings.Contains(body, "iyp_memory_budget_kills_total 1") {
		t.Error("metrics missing iyp_memory_budget_kills_total 1")
	}

	// A query under the budget is unaffected. (Aggregations still charge
	// their input rows, so even count(n) over 5000 nodes would trip a 4 KiB
	// budget — the budget bounds materialized work, not result size.)
	w = post(t, srv, "/v1/query", `{"query": "RETURN 1 AS c"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("cheap query under budget: status = %d (body %s)", w.Code, w.Body)
	}
}

func TestClientBudget429(t *testing.T) {
	srv := newTestServer(testGraph(), Config{ClientQPS: 0.001, ClientBurst: 2})
	q := `{"query": "RETURN 1 AS n"}`
	for i := 0; i < 2; i++ {
		if w := post(t, srv, "/v1/query", q); w.Code != http.StatusOK {
			t.Fatalf("burst request %d: status = %d", i, w.Code)
		}
	}
	w := post(t, srv, "/v1/query", q)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status = %d, want 429", w.Code)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "budget_exhausted" {
		t.Fatalf("code = %q, want budget_exhausted", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	if body := get(t, srv, "/metrics").Body.String(); !strings.Contains(body, `iyp_sheds_total{reason="budget"} 1`) {
		t.Error("metrics missing budget shed counter")
	}
}

func TestDegradeLadderSheds(t *testing.T) {
	srv := newTestServer(testGraph(), Config{MaxConcurrent: 4, QueueDepth: 4})
	// Occupy half the slots: level 1, where analytics and expensive
	// estimates shed but cheap queries still run.
	srv.adm.slots <- struct{}{}
	srv.adm.slots <- struct{}{}

	w := post(t, srv, "/v1/query", `{"query": "CALL algo.pagerank() YIELD node, score RETURN score LIMIT 1"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("analytics at level 1: status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "overloaded" {
		t.Fatalf("code = %q, want overloaded", e.Code)
	}

	// An indexed lookup still serves at level 1.
	w = post(t, srv, "/v1/query", `{"query": "MATCH (a:AS {asn: 2497}) RETURN a.asn AS asn"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("indexed query at level 1: status = %d (body %s)", w.Code, w.Body)
	}

	// Fill all slots: level 3 admits only index-anchored queries; a label
	// scan sheds even though it is cheap in absolute terms.
	srv.adm.slots <- struct{}{}
	srv.adm.slots <- struct{}{}
	w = post(t, srv, "/v1/query", `{"query": "MATCH (n:AS) RETURN n.asn AS asn"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("label scan at level 3: status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	for i := 0; i < 4; i++ {
		<-srv.adm.slots
	}
	body := get(t, srv, "/metrics").Body.String()
	if !strings.Contains(body, `iyp_sheds_total{reason="analytics"} 1`) {
		t.Error("metrics missing analytics shed counter")
	}
	if !strings.Contains(body, `iyp_sheds_total{reason="index_only"} 1`) {
		t.Error("metrics missing index_only shed counter")
	}
}

// TestQueryEstimatedOncePerRequest: the degrade ladder and the calibration
// histogram share one EstimateQuery call. A served request at degrade level
// 1 needs both, an idle one only the histogram's; neither may plan the
// query twice on the hottest path there is.
func TestQueryEstimatedOncePerRequest(t *testing.T) {
	calls := 0
	estimateQuery = func(g *graph.Graph, q *cypher.Query, params map[string]cypher.Val) cypher.QueryEstimate {
		calls++
		return cypher.EstimateQuery(g, q, params)
	}
	defer func() { estimateQuery = cypher.EstimateQuery }()

	srv := newTestServer(testGraph(), Config{MaxConcurrent: 4, QueueDepth: 4})
	const lookup = `{"query": "MATCH (a:AS {asn: 2497}) RETURN a.asn AS asn"}`
	for _, occupied := range []int{0, 2} { // degrade level 0, then 1
		for i := 0; i < occupied; i++ {
			srv.adm.slots <- struct{}{}
		}
		calls = 0
		if w := post(t, srv, "/v1/query", lookup); w.Code != http.StatusOK {
			t.Fatalf("lookup with %d slots occupied: status = %d (body %s)", occupied, w.Code, w.Body)
		}
		if calls != 1 {
			t.Errorf("with %d slots occupied the request estimated the query %d times, want 1", occupied, calls)
		}
		for i := 0; i < occupied; i++ {
			<-srv.adm.slots
		}
	}
	// Both requests fed the histogram: the ladder's estimate was reused.
	if body := get(t, srv, "/metrics").Body.String(); !strings.Contains(body, "iyp_cost_estimate_ratio_count 2") {
		t.Errorf("ratio histogram did not observe both requests:\n%s", body)
	}
}

func TestHealthEndpoint(t *testing.T) {
	srv := newTestServer(testGraph(), Config{MaxConcurrent: 4, QueueDepth: 4})
	w := get(t, srv, "/v1/health")
	if w.Code != http.StatusOK {
		t.Fatalf("health status = %d", w.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatalf("health payload: %v", err)
	}
	if h.Status != "ok" || h.DegradeLevel != 0 || h.Capacity != 4 || h.InFlight != 0 {
		t.Fatalf("idle health = %+v", h)
	}

	// Under load the endpoint reports degradation but stays 200: load
	// balancers should route away gradually, not mark the node dead.
	srv.adm.slots <- struct{}{}
	srv.adm.slots <- struct{}{}
	srv.adm.slots <- struct{}{}
	w = get(t, srv, "/v1/health")
	if w.Code != http.StatusOK {
		t.Fatalf("loaded health status = %d, want 200", w.Code)
	}
	_ = json.Unmarshal(w.Body.Bytes(), &h)
	if h.Status != "degraded" || h.DegradeLevel < 1 || h.InFlight != 3 {
		t.Fatalf("loaded health = %+v", h)
	}
	for i := 0; i < 3; i++ {
		<-srv.adm.slots
	}
}
