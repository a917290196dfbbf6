package replica_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iyp/internal/graph"
	"iyp/internal/replica"
	"iyp/internal/server"
	"iyp/internal/temporal"
)

// TestFollowerNumbersGenerationsLikeTheStore follows a fresh store through
// seqs 1..3 and requires the replica to serve store seq N as generation N:
// /v1/generations lists exactly the store's seqs, and `AS OF 1` answers
// with seq 1's rows whether generation 1 is still in the in-memory retain
// window or has to come back from the persisted history. The follower's
// placeholder graph used to hold generation 1, which shifted every seq up
// by one and made `AS OF 1` read the empty placeholder while retained.
func TestFollowerNumbersGenerationsLikeTheStore(t *testing.T) {
	st, err := graph.OpenStore(t.TempDir(), graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMVStore(graph.New())
	temporal.Attach(mv, st, 0)
	f := replica.New(st, mv, replica.Config{})
	srv := server.New(mv, server.Config{Replica: f})

	// Seq N holds N Marker nodes.
	for seq := 1; seq <= 3; seq++ {
		g := graph.New()
		for i := 0; i < seq; i++ {
			g.AddNode([]string{"Marker"}, graph.Props{"i": graph.Int(int64(i))})
		}
		gen, err := st.Save(g)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Seq != uint64(seq) {
			t.Fatalf("store numbered the save %d, want %d", gen.Seq, seq)
		}
		if out := f.Poll(); !out.Loaded || out.Seq != uint64(seq) {
			t.Fatalf("poll after seq %d = %+v", seq, out)
		}
	}

	generations := func() []uint64 {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/generations", nil))
		var resp struct {
			Current     uint64          `json:"current"`
			Generations []graph.GenInfo `json:"generations"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("generations payload: %v (%s)", err, w.Body)
		}
		if resp.Current != 3 {
			t.Fatalf("current generation = %d, want the store's head seq 3", resp.Current)
		}
		var gens []uint64
		for _, gi := range resp.Generations {
			gens = append(gens, gi.Gen)
		}
		return gens
	}
	markersAsOf1 := func(when string) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(`{"query": "MATCH (m:Marker) RETURN count(m) AS n AS OF 1"}`)))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"n":1`) {
			t.Fatalf("AS OF 1 %s: status %d, body %s (seq 1 holds exactly one Marker)", when, w.Code, w.Body)
		}
	}

	if got := fmt.Sprint(generations()); got != "[1 2 3]" {
		t.Fatalf("/v1/generations = %s, want the store's seqs [1 2 3]", got)
	}
	markersAsOf1("inside the retain window")

	mv.SetRetain(0)
	if got := fmt.Sprint(generations()); got != "[3]" {
		t.Fatalf("/v1/generations after SetRetain(0) = %s, want [3]", got)
	}
	markersAsOf1("outside the retain window")
}
