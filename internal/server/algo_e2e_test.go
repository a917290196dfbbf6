package server

import (
	"encoding/json"
	"strings"
	"testing"

	"iyp/internal/algo"
	"iyp/internal/graph"
)

// End-to-end coverage of the analytics procedures through the public
// HTTP API: CALL algo.* must stream through /v1/query under the same row
// budgets, deadlines and metrics as plain Cypher.

func TestQueryCallWCC(t *testing.T) {
	g := testGraph()
	defer algo.InvalidateViews(g)
	srv := newTestServer(g)

	w := post(t, srv, "/v1/query", `{"query": "CALL algo.wcc()"}`)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp queryResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 2 || resp.Columns[0] != "node" || resp.Columns[1] != "component" {
		t.Fatalf("columns = %v", resp.Columns)
	}
	// testGraph is a,b,p all connected: one component, three rows.
	if resp.Count != 3 {
		t.Fatalf("count = %d, want 3", resp.Count)
	}
	comps := map[any]bool{}
	for _, row := range resp.Rows {
		comps[row["component"]] = true
	}
	if len(comps) != 1 {
		t.Fatalf("component labels = %v, want a single component", comps)
	}
}

func TestQueryCallPageRankComposed(t *testing.T) {
	g := testGraph()
	defer algo.InvalidateViews(g)
	srv := newTestServer(g)

	w := post(t, srv, "/v1/query",
		`{"query": "CALL algo.pagerank() YIELD node, score RETURN node, score ORDER BY score DESC LIMIT 1"}`)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp queryResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 {
		t.Fatalf("count = %d, want 1", resp.Count)
	}
	if resp.Rows[0]["score"].(float64) <= 0 {
		t.Fatalf("top pagerank score not positive: %v", resp.Rows[0])
	}
}

func TestQueryCallMaxRows(t *testing.T) {
	g := testGraph()
	defer algo.InvalidateViews(g)
	srv := newTestServer(g)

	w := post(t, srv, "/v1/query", `{"query": "CALL algo.wcc()", "max_rows": 2}`)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp queryResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || !resp.Truncated {
		t.Fatalf("count=%d truncated=%v, want 2 rows and truncation", resp.Count, resp.Truncated)
	}
}

// chainGraph is a long directed path — the k-reach dependency kernel on
// it with unbounded reach is quadratic, which makes it a reliable
// deadline victim.
func chainGraph(n int) *graph.Graph {
	g := graph.New()
	prev := g.AddNode([]string{"N"}, nil)
	for i := 1; i < n; i++ {
		cur := g.AddNode([]string{"N"}, nil)
		_, _ = g.AddRel("NEXT", prev, cur, nil)
		prev = cur
	}
	return g
}

func TestQueryCallTimeout(t *testing.T) {
	g := chainGraph(3000)
	defer algo.InvalidateViews(g)
	srv := newTestServer(g)

	w := post(t, srv, "/v1/query",
		`{"query": "CALL algo.dependency({k: 3000, maxReach: -1})", "timeout_ms": 1}`)
	if w.Code != 504 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != "timeout" {
		t.Fatalf("error code %q, want timeout", resp.Code)
	}
}

func TestExplainCallReportsBypass(t *testing.T) {
	g := testGraph()
	srv := newTestServer(g)

	w := post(t, srv, "/v1/explain", `{"query": "CALL algo.wcc() YIELD node RETURN node"}`)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["plan_cache"] != "bypass" {
		t.Fatalf("plan_cache = %q, want bypass", resp["plan_cache"])
	}
	if !strings.Contains(resp["plan"], "algo.wcc") || !strings.Contains(resp["plan"], "not cacheable") {
		t.Fatalf("plan missing CALL description:\n%s", resp["plan"])
	}

	// A plain query reports miss before caching, hit once cached.
	w = post(t, srv, "/v1/explain", `{"query": "MATCH (a:AS) RETURN a.asn"}`)
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp["plan_cache"] != "miss" {
		t.Fatalf("plan_cache = %q, want miss", resp["plan_cache"])
	}
	post(t, srv, "/v1/query", `{"query": "MATCH (a:AS) RETURN a.asn"}`)
	w = post(t, srv, "/v1/explain", `{"query": "MATCH (a:AS) RETURN a.asn"}`)
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp["plan_cache"] != "hit" {
		t.Fatalf("plan_cache = %q, want hit", resp["plan_cache"])
	}
}

func TestMetricsIncludeAlgoCounters(t *testing.T) {
	g := testGraph()
	defer algo.InvalidateViews(g)
	srv := newTestServer(g)

	post(t, srv, "/v1/query", `{"query": "CALL algo.wcc()"}`)
	w := get(t, srv, "/metrics")
	body := w.Body.String()
	for _, want := range []string{
		`iyp_algo_kernel_runs_total{kernel="wcc"}`,
		"iyp_algo_view_builds_total",
		"iyp_algo_view_build_seconds_total",
		"iyp_plan_cache_bypasses_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}
