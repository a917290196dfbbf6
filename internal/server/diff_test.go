package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"iyp/internal/graph"
	"iyp/internal/temporal"
)

// twoGenServer publishes a second generation (one more AS and ORIGINATE)
// on top of testGraph so there is something to diff.
func twoGenServer(t *testing.T) *Server {
	t.Helper()
	st := graph.NewMVStore(testGraph())
	if _, err := st.Update(func(g *graph.Graph) error {
		n := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(3333)})
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("198.51.100.0/24")})
		_, err := g.AddRel("ORIGINATE", n, p, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st.SetRetain(4)
	return New(st)
}

func TestDiffEndpoint(t *testing.T) {
	srv := twoGenServer(t)

	w := get(t, srv, "/v1/diff?from=1")
	if w.Code != http.StatusOK {
		t.Fatalf("diff status = %d: %s", w.Code, w.Body)
	}
	var res temporal.DiffResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.From != 1 || res.To != 2 {
		t.Fatalf("diff range = %d -> %d, want 1 -> 2 (to defaults to head)", res.From, res.To)
	}
	if res.Nodes.Added != 2 || res.Rels.Added != 1 {
		t.Fatalf("diff totals = %+v / %+v, want 2 nodes and 1 rel added", res.Nodes, res.Rels)
	}

	// Explicit to, reversed: the additions become removals.
	w = get(t, srv, "/v1/diff?from=2&to=1")
	if w.Code != http.StatusOK {
		t.Fatalf("reverse diff status = %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Nodes.Removed != 2 || res.Rels.Removed != 1 {
		t.Fatalf("reverse diff totals = %+v / %+v", res.Nodes, res.Rels)
	}

	// A generation diffed against itself is empty.
	w = get(t, srv, "/v1/diff?from=2&to=2")
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatalf("self-diff not empty: %+v", res)
	}
}

func TestDiffEndpointErrors(t *testing.T) {
	srv := twoGenServer(t)
	if w := get(t, srv, "/v1/diff"); w.Code != http.StatusBadRequest {
		t.Fatalf("missing from: status = %d", w.Code)
	}
	if w := get(t, srv, "/v1/diff?from=banana"); w.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric from: status = %d", w.Code)
	}
	if w := get(t, srv, "/v1/diff?from=99"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown generation: status = %d", w.Code)
	}
	if w := get(t, srv, "/v1/diff?from=1&to=99"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown to generation: status = %d", w.Code)
	}
}

// The same engine must be reachable from Cypher over HTTP: CALL
// temporal.diff resolves generations through the server's GenResolver.
func TestQueryCallTemporalDiff(t *testing.T) {
	srv := twoGenServer(t)
	w := post(t, srv, "/v1/query",
		`{"query": "CALL temporal.diff({from: 1}) YIELD kind, name, added WHERE kind = 'total' RETURN kind, name, added"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp queryResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("rows = %v, want the nodes and rels totals", resp.Rows)
	}
}

// TestDiffWorkerCountNotARequestKnob: neither diff surface takes a worker
// count. A huge `workers` on /v1/diff or in CALL temporal.diff once split
// the kernel into one goroutine and one 64-bucket shard set per entity;
// now it is ignored, so the request allocates what the plain one does.
func TestDiffWorkerCountNotARequestKnob(t *testing.T) {
	g := graph.New()
	for i := 0; i < 1500; i++ {
		a := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(10000 + i))})
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))})
		if _, err := g.AddRel("ORIGINATE", a, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := graph.NewMVStore(g)
	if _, err := st.Update(func(g *graph.Graph) error {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(3333)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	const call = `{"query": "CALL temporal.diff({from: 1%s}) YIELD kind RETURN count(*) AS n"}`
	for _, tc := range []struct {
		name, workers string
		serve         func(workers string) *httptest.ResponseRecorder
	}{
		{"GET /v1/diff", "&workers=1048576", func(workers string) *httptest.ResponseRecorder {
			return get(t, srv, "/v1/diff?from=1"+workers)
		}},
		{"CALL temporal.diff", ", workers: 1048576", func(workers string) *httptest.ResponseRecorder {
			return post(t, srv, "/v1/query", fmt.Sprintf(call, workers))
		}},
	} {
		allocs := func(workers string) float64 {
			return testing.AllocsPerRun(3, func() {
				if w := tc.serve(workers); w.Code != http.StatusOK {
					t.Fatalf("%s: status = %d: %s", tc.name, w.Code, w.Body)
				}
			})
		}
		if plain, huge := allocs(""), allocs(tc.workers); huge > 1.5*plain {
			t.Errorf("%s: workers=1048576 allocates %.0f per request, the plain request %.0f (> 1.5x)", tc.name, huge, plain)
		}
	}
}

// AS OF over HTTP: the suffix pins the statement exactly like the
// "generation" request field.
func TestQueryAsOfSuffix(t *testing.T) {
	srv := twoGenServer(t)
	for _, body := range []string{
		`{"query": "MATCH (n:AS) RETURN count(n) AS n AS OF 1"}`,
		`{"query": "MATCH (n:AS) RETURN count(n) AS n", "generation": 1}`,
	} {
		w := post(t, srv, "/v1/query", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		var resp queryResp
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Generation != 1 {
			t.Fatalf("response generation = %d, want 1", resp.Generation)
		}
		if len(resp.Rows) != 1 || resp.Rows[0]["n"] != float64(2) {
			t.Fatalf("rows = %v, want n=2 (generation 1 had 2 ASes)", resp.Rows)
		}
	}
}
