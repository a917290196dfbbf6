package server

// Tests for the replica-facing surface: GET /v1/ready, the iyp_replica_*
// metrics family, and the cost-estimate calibration histogram.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"iyp/internal/graph"
	"iyp/internal/replica"
)

func TestReadySingleProcess(t *testing.T) {
	srv := newTestServer(testGraph())
	w := get(t, srv, "/v1/ready")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp readyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Generation != 1 {
		t.Fatalf("ready = %+v", resp)
	}
}

// newReplicaServer builds a follower over a fresh store plus a server
// configured as a replica over it. The follower is not started: tests
// drive Poll directly for determinism.
func newReplicaServer(t *testing.T, cfg replica.Config) (*graph.Store, *replica.Follower, *Server) {
	t.Helper()
	st, err := graph.OpenStore(t.TempDir(), graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMVStore(graph.New())
	f := replica.New(st, mv, cfg)
	return st, f, New(mv, Config{Replica: f})
}

func TestReadyReplicaLifecycle(t *testing.T) {
	st, f, srv := newReplicaServer(t, replica.Config{})

	// Before the first good load: 503, not_ready.
	w := get(t, srv, "/v1/ready")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-load status = %d: %s", w.Code, w.Body)
	}
	var resp readyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "not_ready" {
		t.Fatalf("pre-load ready = %+v", resp)
	}

	// After the follower serves a generation: 200 ok, builder seq exposed.
	if _, err := st.Save(testGraph()); err != nil {
		t.Fatal(err)
	}
	if out := f.Poll(); !out.Loaded {
		t.Fatalf("poll = %+v", out)
	}
	w = get(t, srv, "/v1/ready")
	if w.Code != http.StatusOK {
		t.Fatalf("post-load status = %d: %s", w.Code, w.Body)
	}
	resp = readyResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The placeholder is unnumbered: store seq 1 is served as generation 1.
	if resp.Status != "ok" || resp.BuilderGeneration != 1 || resp.Generation != 1 {
		t.Fatalf("post-load ready = %+v", resp)
	}

	// And the swapped generation actually serves queries.
	qw := post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN count(x) AS n"}`)
	if qw.Code != http.StatusOK || !strings.Contains(qw.Body.String(), `"n":2`) {
		t.Fatalf("query on replica: %d %s", qw.Code, qw.Body)
	}
}

func TestReadyReplicaDegraded(t *testing.T) {
	st, err := graph.OpenStore(t.TempDir(), graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMVStore(graph.New())
	// A follower that was last fed an hour ago (simulated clock).
	now := time.Unix(5000, 0)
	f := replica.New(st, mv, replica.Config{
		StaleAfter: time.Minute,
		Now:        func() time.Time { return now },
	})
	srv := New(mv, Config{Replica: f})

	if _, err := st.Save(testGraph()); err != nil {
		t.Fatal(err)
	}
	f.Poll()
	now = now.Add(time.Hour)

	w := get(t, srv, "/v1/ready")
	if w.Code != http.StatusOK {
		t.Fatalf("degraded status = %d (degraded replicas keep serving): %s", w.Code, w.Body)
	}
	var resp readyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "degraded" || resp.AgeSeconds != 3600 {
		t.Fatalf("degraded ready = %+v", resp)
	}
}

func TestMetricsReplicaFamily(t *testing.T) {
	st, f, srv := newReplicaServer(t, replica.Config{})
	if _, err := st.Save(testGraph()); err != nil {
		t.Fatal(err)
	}
	f.Poll()

	body := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		"iyp_replica_last_good_generation 1",
		"iyp_replica_generation_age_seconds",
		`iyp_replica_reloads_total{result="ok"} 1`,
		`iyp_replica_reloads_total{result="corrupt"} 0`,
		"iyp_replica_polls_total 1",
		"iyp_replica_ready 1",
		"iyp_replica_degraded 0",
		"iyp_replica_dict_strings_total",
		"iyp_replica_dict_reused_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMetricsOmitReplicaFamilyWhenSingleProcess(t *testing.T) {
	srv := newTestServer(testGraph())
	body := get(t, srv, "/metrics").Body.String()
	if strings.Contains(body, "iyp_replica_") {
		t.Fatalf("single-process metrics expose replica family:\n%s", body)
	}
}

func TestMetricsCostEstimateRatio(t *testing.T) {
	srv := newTestServer(testGraph())

	// A label-count query: the estimate and the actual are both derived
	// from the same statistics, so the ratio lands in a finite bucket.
	w := post(t, srv, "/v1/query", `{"query": "MATCH (x:AS) RETURN x.asn AS asn"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}

	body := get(t, srv, "/metrics").Body.String()
	if !strings.Contains(body, "iyp_cost_estimate_ratio_bucket") {
		t.Fatalf("metrics missing the cost-estimate histogram:\n%s", body)
	}
	if !strings.Contains(body, "iyp_cost_estimate_ratio_count 1") {
		t.Fatalf("ratio histogram did not observe the query:\n%s", body)
	}
	// The +Inf bucket always closes the histogram at the total count.
	if !strings.Contains(body, `iyp_cost_estimate_ratio_bucket{le="+Inf"} 1`) {
		t.Fatalf("ratio histogram +Inf bucket wrong:\n%s", body)
	}
}

func TestMetricsCostEstimateRatioSkipsAnalytics(t *testing.T) {
	srv := newTestServer(testGraph())
	w := post(t, srv, "/v1/query", `{"query": "CALL algo.wcc()"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("analytics query: %d %s", w.Code, w.Body)
	}
	body := get(t, srv, "/metrics").Body.String()
	if !strings.Contains(body, "iyp_cost_estimate_ratio_count 0") {
		t.Fatalf("analytics query should not feed the ratio histogram:\n%s", body)
	}
}
