package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iyp/internal/graph"
)

// newTestServer wraps a freshly-built graph in an MVCC store, the only
// form New accepts (the server always reads through pinned generations).
func newTestServer(g *graph.Graph, cfgs ...Config) *Server {
	return New(graph.NewMVStore(g), cfgs...)
}

func testGraph() *graph.Graph {
	g := graph.New()
	a := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2497)})
	b := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(65001)})
	p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("192.0.2.0/24")})
	_, _ = g.AddRel("ORIGINATE", a, p, nil)
	_, _ = g.AddRel("PEERS_WITH", a, b, nil)
	return g
}

// bigGraph is large enough that cartesian products are effectively
// unbounded work, for deadline/cancellation tests.
func bigGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode([]string{"N"}, graph.Props{"i": graph.Int(int64(i))})
	}
	return g
}

func post(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

type queryResp struct {
	Columns    []string         `json:"columns"`
	Rows       []map[string]any `json:"rows"`
	Count      int              `json:"count"`
	Truncated  bool             `json:"truncated"`
	TookMS     int64            `json:"took_ms"`
	Generation uint64           `json:"generation"`
}

type errResp struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func TestQueryEndpoint(t *testing.T) {
	srv := newTestServer(testGraph())
	// The v1 path and the legacy alias serve the identical API.
	for _, path := range []string{"/v1/query", "/db/query"} {
		w := post(t, srv, path, `{"query": "MATCH (x:AS) RETURN x.asn AS asn ORDER BY asn"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, w.Code, w.Body)
		}
		var resp queryResp
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count != 2 || len(resp.Rows) != 2 || resp.Truncated {
			t.Fatalf("%s: resp = %+v", path, resp)
		}
		if resp.Rows[0]["asn"] != float64(2497) { // JSON numbers decode as float64
			t.Errorf("%s: first row = %v", path, resp.Rows[0])
		}
	}
}

func TestQueryEndpointWithParams(t *testing.T) {
	srv := newTestServer(testGraph())
	w := post(t, srv, "/v1/query", `{"query": "MATCH (x:AS {asn: $asn}) RETURN count(x) AS n", "params": {"asn": 2497}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp queryResp
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	// JSON integer params must coerce to graph ints for index lookups.
	if resp.Rows[0]["n"] != float64(1) {
		t.Errorf("param query = %v", resp.Rows[0])
	}
}

func TestNormalizeParamNestedMap(t *testing.T) {
	// Integral JSON numbers inside nested objects and lists must arrive
	// as ints, not floats.
	v := normalizeParam(map[string]any{
		"asn":  float64(2497),
		"deep": map[string]any{"n": float64(3), "f": 1.5},
		"list": []any{float64(1), map[string]any{"m": float64(2)}},
	})
	m := v.(map[string]any)
	if _, ok := m["asn"].(int64); !ok {
		t.Errorf("top-level integral number = %T, want int64", m["asn"])
	}
	deep := m["deep"].(map[string]any)
	if _, ok := deep["n"].(int64); !ok {
		t.Errorf("nested integral number = %T, want int64", deep["n"])
	}
	if _, ok := deep["f"].(float64); !ok {
		t.Errorf("nested fractional number = %T, want float64", deep["f"])
	}
	list := m["list"].([]any)
	if _, ok := list[0].(int64); !ok {
		t.Errorf("list integral number = %T, want int64", list[0])
	}
	inner := list[1].(map[string]any)
	if _, ok := inner["m"].(int64); !ok {
		t.Errorf("map-in-list integral number = %T, want int64", inner["m"])
	}
}

func TestNestedMapParamThroughEndpoint(t *testing.T) {
	srv := newTestServer(testGraph())
	w := post(t, srv, "/v1/query",
		`{"query": "MATCH (x:AS {asn: $o.asn}) RETURN count(x) AS n", "params": {"o": {"asn": 2497}}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp queryResp
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if len(resp.Rows) != 1 || resp.Rows[0]["n"] != float64(1) {
		t.Errorf("nested map param rows = %v", resp.Rows)
	}
}

func TestQueryEndpointNodeSerialization(t *testing.T) {
	srv := newTestServer(testGraph())
	w := post(t, srv, "/v1/query", `{"query": "MATCH (x:AS {asn: 2497}) RETURN x"}`)
	var resp queryResp
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	node, ok := resp.Rows[0]["x"].(map[string]any)
	if !ok {
		t.Fatalf("node row = %v", resp.Rows[0])
	}
	if node["labels"].([]any)[0] != "AS" {
		t.Errorf("node labels = %v", node["labels"])
	}
	props := node["properties"].(map[string]any)
	if props["asn"] != float64(2497) {
		t.Errorf("node props = %v", props)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv := newTestServer(testGraph())
	cases := []struct {
		body string
		code int
		errc string
	}{
		{`{"query": "MATCH (x:AS RETURN x"}`, http.StatusBadRequest, "parse_error"},
		{`{"query": ""}`, http.StatusBadRequest, "bad_request"},
		{`not json`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		w := post(t, srv, "/v1/query", tc.body)
		if w.Code != tc.code {
			t.Errorf("body %q: status %d, want %d", tc.body, w.Code, tc.code)
		}
		var e errResp
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("body %q: error payload missing: %s", tc.body, w.Body)
		} else if e.Code != tc.errc {
			t.Errorf("body %q: code = %q, want %q", tc.body, e.Code, tc.errc)
		}
	}
	// GET on the query endpoint is not allowed.
	w := get(t, srv, "/v1/query")
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query = %d", w.Code)
	}
}

func TestMaxRowsTruncationFlag(t *testing.T) {
	srv := newTestServer(bigGraph(50), Config{DefaultMaxRows: 10})
	w := post(t, srv, "/v1/query", `{"query": "MATCH (n:N) RETURN n.i AS i"}`)
	var resp queryResp
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if len(resp.Rows) != 10 {
		t.Errorf("rows = %d, want capped 10", len(resp.Rows))
	}
	// The response must not lie: count matches the rows actually
	// returned, and truncation is explicit.
	if resp.Count != 10 {
		t.Errorf("count = %d, want 10 (returned rows)", resp.Count)
	}
	if !resp.Truncated {
		t.Error("truncated flag not set on a capped response")
	}

	// Per-request max_rows narrows the budget further.
	w = post(t, srv, "/v1/query", `{"query": "MATCH (n:N) RETURN n.i AS i", "max_rows": 3}`)
	resp = queryResp{}
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Count != 3 || !resp.Truncated {
		t.Errorf("max_rows=3: count = %d truncated = %v", resp.Count, resp.Truncated)
	}

	// Under the budget: full result, no flag.
	w = post(t, srv, "/v1/query", `{"query": "MATCH (n:N) RETURN n.i AS i", "max_rows": 100}`)
	resp = queryResp{}
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Count != 50 || resp.Truncated {
		t.Errorf("max_rows=100: count = %d truncated = %v", resp.Count, resp.Truncated)
	}
}

func TestQueryDeadlineReturns504(t *testing.T) {
	srv := newTestServer(bigGraph(300))
	t0 := time.Now()
	w := post(t, srv, "/v1/query",
		`{"query": "MATCH (a:N), (b:N), (c:N), (d:N) RETURN count(*)", "timeout_ms": 1}`)
	took := time.Since(t0)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "timeout" {
		t.Errorf("code = %q, want timeout", e.Code)
	}
	if took > time.Second {
		t.Errorf("deadline response took %v", took)
	}
}

// TestHugeTimeoutClampsToMax: a timeout_ms too large for a Duration must
// clamp to MaxTimeout, not wrap around into an already-expired deadline.
func TestHugeTimeoutClampsToMax(t *testing.T) {
	srv := newTestServer(testGraph())
	for _, ms := range []string{"9223372036854775807", "4611686018427387904"} {
		w := post(t, srv, "/v1/query", `{"query": "RETURN 1 AS n", "timeout_ms": `+ms+`}`)
		if w.Code != http.StatusOK {
			t.Errorf("timeout_ms=%s: status = %d, want 200: %s", ms, w.Code, w.Body)
		}
	}
}

func TestQueryCancellationMidQuery(t *testing.T) {
	srv := newTestServer(bigGraph(300))
	// Cancel the request context shortly after the query starts — the
	// same signal a dropped client connection produces.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		bytes.NewReader([]byte(`{"query": "MATCH (a:N), (b:N), (c:N), (d:N) RETURN count(*)"}`))).WithContext(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "canceled" {
		t.Errorf("code = %q, want canceled", e.Code)
	}
}

func TestConcurrencyLimiterRejects(t *testing.T) {
	// QueueDepth < 0 disables queueing: at capacity, requests shed
	// immediately with 503 + Retry-After — the old semaphore behaviour
	// with the new envelope.
	srv := newTestServer(testGraph(), Config{MaxConcurrent: 2, QueueDepth: -1})
	// Fill the slots directly: deterministic stand-in for two
	// long-running queries in flight.
	srv.adm.slots <- struct{}{}
	srv.adm.slots <- struct{}{}
	w := post(t, srv, "/v1/query", `{"query": "RETURN 1 AS n"}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Errorf("shed response is missing Retry-After")
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "overloaded" {
		t.Errorf("code = %q", e.Code)
	}
	// Draining a slot admits queries again.
	<-srv.adm.slots
	w = post(t, srv, "/v1/query", `{"query": "RETURN 1 AS n"}`)
	if w.Code != http.StatusOK {
		t.Errorf("after drain: status = %d", w.Code)
	}
	<-srv.adm.slots
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(testGraph())
	// Repeat one query so the plan cache records hits.
	for i := 0; i < 3; i++ {
		if w := post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN count(x) AS n"}`); w.Code != 200 {
			t.Fatalf("query %d: %d", i, w.Code)
		}
	}
	post(t, srv, "/v1/query", `{"query": "MATCH (x:AS RETURN"}`) // one parse error

	w := get(t, srv, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	body := w.Body.String()
	metric := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
				return v
			}
		}
		t.Fatalf("metric %s not found in:\n%s", name, body)
		return 0
	}
	if n := metric("iyp_queries_total"); n != 4 {
		t.Errorf("iyp_queries_total = %g, want 4", n)
	}
	if n := metric("iyp_plan_cache_hits_total"); n <= 0 {
		t.Errorf("iyp_plan_cache_hits_total = %g, want > 0 after repeated query", n)
	}
	if n := metric("iyp_query_errors_total"); n != 1 {
		t.Errorf("iyp_query_errors_total = %g, want 1", n)
	}
	if n := metric("iyp_rows_returned_total"); n != 3 {
		t.Errorf("iyp_rows_returned_total = %g, want 3", n)
	}
	if n := metric("iyp_queries_in_flight"); n != 0 {
		t.Errorf("iyp_queries_in_flight = %g, want 0 at rest", n)
	}
	if !strings.Contains(body, `iyp_query_duration_seconds_bucket{le="+Inf"} 4`) {
		t.Error("latency histogram +Inf bucket missing or wrong")
	}
}

func TestSlowQueryLogging(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	srv := newTestServer(testGraph(), Config{
		SlowQuery: time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN x.asn AS a"}`)
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "slow query") || !strings.Contains(logged[0], "took_ms=") {
		t.Errorf("slow-query log = %q", logged)
	}
}

func TestConcurrentQueriesRace(t *testing.T) {
	// Hammer one server from many goroutines; meaningful mainly under
	// `go test -race`, which CI runs.
	srv := newTestServer(testGraph(), Config{MaxConcurrent: 32})
	queries := []string{
		`{"query": "MATCH (x:AS) RETURN x.asn AS asn ORDER BY asn"}`,
		`{"query": "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix) RETURN count(p) AS n"}`,
		`{"query": "MATCH (x:AS {asn: $asn}) RETURN x", "params": {"asn": 2497}}`,
		`{"query": "RETURN 1 + 1 AS two"}`,
	}
	var wg sync.WaitGroup
	for wk := 0; wk < 8; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				body := queries[(wk+i)%len(queries)]
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte(body)))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("worker %d: status %d: %s", wk, w.Code, w.Body)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	if st := srv.cache.Stats(); st.Hits == 0 {
		t.Error("no plan-cache hits after hammering identical queries")
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv := newTestServer(testGraph())
	for _, path := range []string{"/v1/schema", "/db/schema"} {
		w := get(t, srv, path)
		if w.Code != http.StatusOK {
			t.Fatalf("%s status = %d", path, w.Code)
		}
		var resp struct {
			Entities      []struct{ Name string } `json:"entities"`
			Relationships []struct{ Name string } `json:"relationships"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Entities) != 24 || len(resp.Relationships) != 24 {
			t.Errorf("%s sizes: %d entities, %d relationships", path, len(resp.Entities), len(resp.Relationships))
		}
	}
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	srv := newTestServer(testGraph())
	w := get(t, srv, "/v1/stats")
	var st struct {
		Nodes int
		Rels  int
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 3 || st.Rels != 2 {
		t.Errorf("stats = %+v", st)
	}
	if w := get(t, srv, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := newTestServer(testGraph())
	w := post(t, srv, "/v1/explain", `{"query": "MATCH (x:AS)-[:ORIGINATE]->(p:Prefix) RETURN p"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Plan == "" {
		t.Error("empty plan")
	}
	// Parse errors surface as 400.
	if w := post(t, srv, "/v1/explain", `{"query": "MATCH ("}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad query explain status = %d", w.Code)
	}
}

// TestExplainEndpointHonoursParams: the "params" field /v1/explain always
// decoded now reaches the planner, so a parameterized lookup is explained
// as the index lookup it executes as — and identically to its literal twin.
func TestExplainEndpointHonoursParams(t *testing.T) {
	g := testGraph()
	g.EnsureIndex("AS", "asn")
	srv := newTestServer(g)
	plan := func(body string) string {
		t.Helper()
		w := post(t, srv, "/v1/explain", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		var resp struct {
			Plan string `json:"plan"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		// The trailing plan-cache line depends on the query text.
		before, _, _ := strings.Cut(resp.Plan, "plan cache:")
		return before
	}
	param := plan(`{"query": "MATCH (a:AS {asn:$asn})-[:ORIGINATE]-(p:Prefix) RETURN p.prefix", "params": {"asn": 2497}}`)
	if !strings.Contains(param, "index lookup AS.asn (inline property") {
		t.Errorf("parameterized lookup not explained as an index lookup:\n%s", param)
	}
	if literal := plan(`{"query": "MATCH (a:AS {asn:2497})-[:ORIGINATE]-(p:Prefix) RETURN p.prefix"}`); literal != param {
		t.Errorf("parameterized and literal plans differ:\n%s\nvs\n%s", param, literal)
	}
	if w := post(t, srv, "/v1/explain", `{"query": "RETURN $x", "params": {"x": {"a": [1, {}]}}}`); w.Code != http.StatusOK {
		t.Errorf("nested params: status = %d: %s", w.Code, w.Body)
	}
}

func TestLegacyAliasDeprecationHeaders(t *testing.T) {
	srv := newTestServer(testGraph())
	w := post(t, srv, "/db/query", `{"query": "RETURN 1 AS n"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("legacy alias status = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Deprecation"); got != "true" {
		t.Errorf("Deprecation header = %q", got)
	}
	if w.Header().Get("Sunset") == "" {
		t.Error("Sunset header missing on legacy alias")
	}
	if link := w.Header().Get("Link"); !strings.Contains(link, "/v1/query") || !strings.Contains(link, "successor-version") {
		t.Errorf("Link header = %q, want successor-version pointing at /v1/query", link)
	}
	// The v1 path must NOT carry deprecation headers.
	w = post(t, srv, "/v1/query", `{"query": "RETURN 1 AS n"}`)
	if w.Header().Get("Deprecation") != "" || w.Header().Get("Sunset") != "" {
		t.Error("deprecation headers leaked onto the /v1 path")
	}
}

func TestLegacyAliasDisabled(t *testing.T) {
	srv := newTestServer(testGraph(), Config{DisableLegacy: true})
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/db/query"},
		{http.MethodGet, "/db/schema"},
		{http.MethodGet, "/db/stats"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader([]byte(`{"query":"RETURN 1 AS n"}`)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusGone {
			t.Errorf("%s %s = %d, want 410", tc.method, tc.path, w.Code)
		}
		var e errResp
		_ = json.Unmarshal(w.Body.Bytes(), &e)
		if e.Code != "legacy_disabled" {
			t.Errorf("%s: code = %q", tc.path, e.Code)
		}
	}
	// v1 still serves.
	if w := post(t, srv, "/v1/query", `{"query": "RETURN 1 AS n"}`); w.Code != http.StatusOK {
		t.Errorf("/v1/query with legacy disabled = %d", w.Code)
	}
}

func TestWriteQueryRejectedReadOnly(t *testing.T) {
	srv := newTestServer(testGraph())
	for _, q := range []string{
		`{"query": "CREATE (n:X) RETURN n"}`,
		`{"query": "MATCH (x:AS) SET x.seen = true"}`,
		`{"query": "MATCH (x:AS) DELETE x"}`,
		`{"query": "MERGE (n:X {k: 1}) RETURN n"}`,
		`{"query": "MATCH (x:AS) REMOVE x.asn"}`,
		`{"query": "RETURN 1 AS n UNION MATCH (x) SET x.k = 1 RETURN 1 AS n"}`,
	} {
		w := post(t, srv, "/v1/query", q)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, w.Code)
		}
		var e errResp
		_ = json.Unmarshal(w.Body.Bytes(), &e)
		if e.Code != "read_only" {
			t.Errorf("%s: code = %q, want read_only", q, e.Code)
		}
	}
}

func TestGenerationsEndpointAndPinning(t *testing.T) {
	st := graph.NewMVStore(testGraph())
	srv := New(st)

	// Initially one generation.
	w := get(t, srv, "/v1/generations")
	if w.Code != http.StatusOK {
		t.Fatalf("generations status = %d", w.Code)
	}
	var gens generationsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &gens); err != nil {
		t.Fatal(err)
	}
	if gens.Current != 1 || len(gens.Generations) != 1 || !gens.Generations[0].Current {
		t.Fatalf("initial generations = %+v", gens)
	}

	// Every query response reports the generation it read.
	w = post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN count(x) AS n"}`)
	var resp queryResp
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Generation != 1 {
		t.Fatalf("query generation = %d, want 1", resp.Generation)
	}

	// Publish generation 2 out-of-band (the ingest path).
	if _, err := st.Update(func(g *graph.Graph) error {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(64999)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Unpinned queries see the new generation...
	w = post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN count(x) AS n"}`)
	resp = queryResp{}
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Generation != 2 || resp.Rows[0]["n"] != float64(3) {
		t.Fatalf("unpinned after write: gen=%d rows=%v", resp.Generation, resp.Rows)
	}
	// ...while an explicitly pinned request still reads generation 1.
	w = post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN count(x) AS n", "generation": 1}`)
	resp = queryResp{}
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Generation != 1 || resp.Rows[0]["n"] != float64(2) {
		t.Fatalf("pinned read: gen=%d rows=%v", resp.Generation, resp.Rows)
	}

	// /v1/generations now lists both.
	w = get(t, srv, "/v1/generations")
	gens = generationsResponse{}
	_ = json.Unmarshal(w.Body.Bytes(), &gens)
	if gens.Current != 2 || len(gens.Generations) != 2 {
		t.Fatalf("generations after write = %+v", gens)
	}

	// A reclaimed/unknown generation is a clean 404.
	w = post(t, srv, "/v1/query", `{"query": "RETURN 1 AS n", "generation": 99}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown generation status = %d, want 404", w.Code)
	}
	var e errResp
	_ = json.Unmarshal(w.Body.Bytes(), &e)
	if e.Code != "generation_gone" {
		t.Errorf("code = %q, want generation_gone", e.Code)
	}
}

func TestMetricsGenerationGauges(t *testing.T) {
	st := graph.NewMVStore(testGraph())
	srv := New(st)
	if _, err := st.Update(func(g *graph.Graph) error {
		g.AddNode([]string{"AS"}, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w := get(t, srv, "/metrics")
	body := w.Body.String()
	for _, want := range []string{
		"iyp_generation_current 2",
		"iyp_generations_live 2",
		"iyp_generations_reclaimed_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
