package iyp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iyp"
	"iyp/internal/cypher"
	"iyp/internal/server"
)

var (
	buildOnce sync.Once
	buildDB   *iyp.DB
)

// testDB builds one small knowledge graph for all integration tests.
func testDB(t *testing.T) *iyp.DB {
	t.Helper()
	buildOnce.Do(func() {
		db, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if failed := db.Report.Failed(); len(failed) > 0 {
			t.Fatalf("failed datasets: %+v", failed)
		}
		buildDB = db
	})
	return buildDB
}

func TestBuildProducesHarmonizedGraph(t *testing.T) {
	db := testDB(t)
	st := db.Stats()
	if st.Nodes < 5000 || st.Rels < 20000 {
		t.Fatalf("graph too small: %d nodes, %d rels", st.Nodes, st.Rels)
	}
	// All 47 datasets imported.
	if len(db.Report.Crawls) != 47 {
		t.Errorf("crawls = %d", len(db.Report.Crawls))
	}
}

// TestPaperListingsVerbatim runs the paper's published queries unmodified.
func TestPaperListingsVerbatim(t *testing.T) {
	db := testDB(t)

	// Listing 1.
	res := listingGolden(t, db, "listing 1", `
// Select ASes originating prefixes
MATCH (x:AS)-[:ORIGINATE]-(:Prefix)
// Return the AS's ASN
RETURN DISTINCT x.asn`, 300,
		"5cfebec3260763f4b527438aec0aad58d528a6c9acf74ff1911847eb16798fed")
	if res.Len() == 0 {
		t.Error("listing 1: no originating ASes")
	}

	// Listing 2.
	res = listingGolden(t, db, "listing 2", `
// Find Prefixes with two originating ASes
MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
// Make sure that the ASNs of the two ASes are different
WHERE x.asn <> y.asn
// Return the prefix attribute of the Prefix node
RETURN DISTINCT p.prefix`, 11,
		"2543d1dbbe4d2f3012410cf13d683aec7cfc24fe18996bd5690afd3df5d77628")
	if res.Len() == 0 {
		t.Error("listing 2: no MOAS prefixes (the model plants some)")
	}

	// Listing 3 shape (organization parameterized: the simulated graph
	// has no CERN).
	res = listingGolden(t, db, "listing 3", `
MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
WHERE org.name STARTS WITH $prefix
MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
RETURN DISTINCT h.name`, 2976,
		"6f3a278fd842a56b85c2295c068018499aaa76a68d483a662c129c10c2e4697e",
		iyp.WithParams(map[string]iyp.Value{"prefix": iyp.StringValue("ORG-")}))
	if res.Len() == 0 {
		t.Error("listing 3: no hostnames in RPKI-valid space")
	}

	// Listing 4.
	res = listingGolden(t, db, "listing 4", `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)--(h:HostName)
-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI Invalid'
RETURN count(DISTINCT pfx)`, 1,
		"53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3")
	if res.Len() != 1 {
		t.Error("listing 4: expected a single count row")
	}

	// Listing 4 as the RiPKI study runs it, over the top tenth.
	listingGolden(t, db, "listing 4 window", listing4Query, 181,
		"22dacffb5a70d06c93711b66fa35c575464e68b05b54ad476858a096c9fafdbf", listing4TopTenth(t, db))

	// Listing 5 (reproducing the /24 grouping input).
	res, err := db.Query(context.Background(), `
MATCH (:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:PARENT]->(tld:DomainName)
WHERE tld.name IN ['com', 'net', 'org']
MATCH (d)-[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4})
RETURN d.name AS domain, collect(DISTINCT i.ip) AS ips`)
	if err != nil {
		t.Fatalf("listing 5: %v", err)
	}
	if res.Len() == 0 {
		t.Error("listing 5: no rows")
	}

	// Listing 6 verbatim.
	res, err = db.Query(context.Background(), `
// List prefixes of nameservers for all domain names in Tranco
MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:MANAGED_BY]-(a:AuthoritativeNameServer)
-[:RESOLVES_TO]-(i:IP {af:4})-[:PART_OF]-(pfx:Prefix)
RETURN d, COLLECT(DISTINCT pfx)`)
	if err != nil {
		t.Fatalf("listing 6: %v", err)
	}
	if res.Len() == 0 {
		t.Error("listing 6: no rows")
	}
}

// listingGolden runs a listing at the default parallelism (0: GOMAXPROCS
// workers), serially and on eight workers, and pins each result on the scale-0.1 build: its row
// count and the SHA-256 of its rows in returned order, so a change to the
// order in which the matcher enumerates adjacency shows up here even when
// the row set is unchanged. It returns the default run's result.
func listingGolden(t *testing.T, db *iyp.DB, name, query string, wantRows int, wantSHA string, opts ...iyp.QueryOption) *cypher.Result {
	t.Helper()
	var first *cypher.Result
	for _, par := range []int{0, 1, 8} {
		runOpts := opts
		if par > 0 {
			runOpts = append(slices.Clone(opts), iyp.WithParallelism(par))
		}
		res, err := db.Query(context.Background(), query, runOpts...)
		if err != nil {
			t.Fatalf("%s at parallelism %d: %v", name, par, err)
		}
		h := sha256.New()
		for _, vals := range res.Rows {
			for i, v := range vals {
				if i > 0 {
					h.Write([]byte{'\t'})
				}
				io.WriteString(h, v.String())
			}
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); res.Len() != wantRows || got != wantSHA {
			t.Errorf("%s at parallelism %d: %d rows, sha256 %s; golden %d rows, %s", name, par, res.Len(), got, wantRows, wantSHA)
		}
		if first == nil {
			first = res
		}
	}
	return first
}

// TestListing4AllocCeiling pins the executor's allocations on Listing 4's
// shape — a second MATCH anchored on the first one's bound variable,
// feeding RETURN DISTINCT — over the top tenth of the ranking. The
// ceilings are the measured values plus a quarter; a fat Val in every
// matched row, a per-scan adjacency buffer, a string per DISTINCT key or a
// copied binding per match each breach them.
func TestListing4AllocCeiling(t *testing.T) {
	// 905 objects and 277 112 bytes measured (899 and 272 664 before the
	// first clause's WHERE became cell predicates and its single anchor's
	// hop was cut into work items of adjacency entries). A work item per
	// input row of the bound-anchor clause, with a closure, a candidate
	// slice and position buffers each, and room for four more bindings in
	// every matched row took 2 079 and 541 264 (the ceiling was 2 560 and
	// 672 400 then). Copying every matched binding for a projection after
	// the match took 3 975 and 1 660 210; a 168-byte Val with per-scan
	// buffers and string keys took 19 054 objects.
	const ceiling, bytesCeiling = 1124, 341700
	db := testDB(t)
	window := listing4TopTenth(t, db)
	var rows int
	allocs, allocated := allocsPerRun(5, func() {
		res, err := db.Query(context.Background(), listing4Query, window)
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Len()
	})
	if rows == 0 {
		t.Fatal("listing 4: no (prefix, tag) rows in the top tenth")
	}
	if allocs > ceiling {
		t.Errorf("listing 4 allocates %.0f objects per query, ceiling %d", allocs, ceiling)
	}
	if allocated > bytesCeiling {
		t.Errorf("listing 4 allocates %.0f bytes per query, ceiling %d", allocated, bytesCeiling)
	}
}

// TestLookupAllocCeiling pins what one public-instance lookup allocates
// end to end: the four lookup templates, keyed by values that have
// answers, through the HTTP handler from request decoding to the encoded
// body. The ceilings are the measured values plus a quarter; a copied
// binding per match, a map per result row or a sorted latency window per
// request each breach them.
func TestLookupAllocCeiling(t *testing.T) {
	// 164 objects and 20 753 bytes measured, which leaves the ceilings
	// about a sixth of headroom. Before inline properties and WHERE
	// pushdowns became one compiled list of property tests it was 170 and
	// 20 648: the variable-set maps and key copies went, and a 248-byte
	// predicate per inline property, compiled for the estimate and again
	// for the execution, came. Before each pattern position carried its
	// WHERE cell predicates it was 20 304 bytes; with every binding copied,
	// a map per row for reflection to encode and a sorted latency window
	// it took 257 and 47 052.
	const allocsCeiling, bytesCeiling = 190, 24100
	db := testDB(t)
	var bodies [][]byte
	for _, tc := range []struct{ template, param, key string }{
		{`MATCH (a:AS {asn:$asn})-[:NAME]-(n:Name) RETURN DISTINCT n.name AS name ORDER BY name`,
			"asn", `MATCH (a:AS)-[:NAME]-(:Name) RETURN a.asn LIMIT 1`},
		{`MATCH (a:AS {asn:$asn})-[:ORIGINATE]-(p:Prefix) RETURN DISTINCT p.prefix AS prefix ORDER BY prefix`,
			"asn", `MATCH (a:AS)-[:ORIGINATE]-(:Prefix) RETURN a.asn LIMIT 1`},
		{`MATCH (p:Prefix {prefix:$prefix})-[:CATEGORIZED]-(t:Tag) RETURN DISTINCT t.label AS label ORDER BY label`,
			"prefix", `MATCH (p:Prefix)-[:CATEGORIZED]-(:Tag) RETURN p.prefix LIMIT 1`},
		{`MATCH (h:HostName {name:$name})-[:RESOLVES_TO]-(:IP)-[:PART_OF]-(p:Prefix)-[:ORIGINATE]-(a:AS) RETURN DISTINCT a.asn AS asn ORDER BY asn`,
			"name", `MATCH (h:HostName)-[:RESOLVES_TO]-(:IP)-[:PART_OF]-(:Prefix)-[:ORIGINATE]-(:AS) RETURN h.name LIMIT 1`},
	} {
		res, err := db.Query(context.Background(), tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("%s: no key with an answer", tc.key)
		}
		body, err := json.Marshal(map[string]any{"query": tc.template, "params": map[string]any{tc.param: res.Rows[0][0].Native(nil)}})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	srv := server.New(db.Store())
	allocs, allocated := allocsPerRun(50, func() {
		for _, body := range bodies {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"count":`)) || bytes.Contains(w.Body.Bytes(), []byte(`"count":0,`)) {
				t.Fatalf("lookup answered %d: %s", w.Code, w.Body)
			}
		}
	})
	allocs, allocated = allocs/float64(len(bodies)), allocated/float64(len(bodies))
	if allocs > allocsCeiling {
		t.Errorf("a lookup allocates %.0f objects per request, ceiling %d", allocs, allocsCeiling)
	}
	if allocated > bytesCeiling {
		t.Errorf("a lookup allocates %.0f bytes per request, ceiling %d", allocated, bytesCeiling)
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes too: the average
// objects and bytes f allocates per call, after one warm-up call, with
// GOMAXPROCS at 1 so no other goroutine's allocations are counted.
func allocsPerRun(runs int, f func()) (allocs, allocated float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestFigure4Neighborhood(t *testing.T) {
	// The sneak-peek walk of Figure 4: the top domain's 2-hop
	// neighbourhood must fuse several independent datasets.
	db := testDB(t)
	res, err := db.Query(context.Background(), `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK {rank: 1}]-(d:DomainName)-[r]-(x)
RETURN DISTINCT r.reference_name AS dataset`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() < 3 {
		t.Errorf("top domain's direct neighbourhood spans %d datasets", res.Len())
	}
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "iyp.snapshot")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := iyp.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := db.Stats(), re.Stats()
	if a.Nodes != b.Nodes || a.Rels != b.Rels {
		t.Fatalf("snapshot mismatch: %d/%d vs %d/%d", a.Nodes, a.Rels, b.Nodes, b.Rels)
	}
	// Queries behave identically on the loaded snapshot.
	q := `MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN count(DISTINCT x) AS n`
	r1, err := db.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := re.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := r1.ScalarInt()
	n2, _ := r2.ScalarInt()
	if n1 != n2 {
		t.Errorf("query differs after reload: %d vs %d", n1, n2)
	}
}

func TestHTTPQueryAPI(t *testing.T) {
	db := testDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	body := `{"query": "MATCH (x:AS) RETURN count(x) AS n"}`
	resp, err := http.Post(srv.URL+"/db/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0]["n"].(float64) < 100 {
		t.Errorf("rows = %v", out.Rows)
	}
}

func TestBuildDeterministicAcrossRuns(t *testing.T) {
	db1, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := db1.Stats(), db2.Stats()
	if s1.Nodes != s2.Nodes || s1.Rels != s2.Rels {
		t.Errorf("same seed, different graphs: %d/%d vs %d/%d", s1.Nodes, s1.Rels, s2.Nodes, s2.Rels)
	}
}

func TestBuildOverHTTPFetch(t *testing.T) {
	// The UseHTTP path fetches every dataset through a real localhost
	// HTTP server — the closest offline stand-in for the live pipeline.
	db, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.02, UseHTTP: true})
	if err != nil {
		t.Fatal(err)
	}
	if failed := db.Report.Failed(); len(failed) > 0 {
		t.Fatalf("HTTP build failed datasets: %+v", failed)
	}
	if db.Stats().Nodes == 0 {
		t.Error("HTTP build produced an empty graph")
	}
}

func TestWriteQueriesOnLocalInstance(t *testing.T) {
	// Paper §6.1: a local instance supports annotating the graph.
	db, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), `
MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(:Tag {label: 'RPKI Invalid'})
SET x.under_review = true
RETURN count(DISTINCT x) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if res.PropsSet == 0 {
		t.Skip("no invalid prefixes at this tiny scale")
	}
	check, err := db.Query(context.Background(), `MATCH (x:AS) WHERE x.under_review = true RETURN count(x) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := check.ScalarInt(); n == 0 {
		t.Error("annotation did not persist")
	}
}

func TestListenAndServeLifecycle(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- db.ListenAndServe(ctx, "127.0.0.1:0") }()
	// Cancelling the context shuts the server down cleanly.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
	// A bad address surfaces as an error.
	if err := db.ListenAndServe(context.Background(), "256.0.0.1:http"); err == nil {
		t.Error("bad address should error")
	}
}

func TestValueHelpers(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(context.Background(), `
RETURN $s AS s, $i AS i, $f AS f, $b AS b, size($l) AS n`,
		iyp.WithParams(map[string]iyp.Value{
			"s": iyp.StringValue("x"),
			"i": iyp.IntValue(7),
			"f": iyp.FloatValue(2.5),
			"b": iyp.BoolValue(true),
			"l": iyp.ListValue(iyp.IntValue(1), iyp.IntValue(2)),
		}))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Get(0, "n"); func() int64 { i, _ := v.AsInt(); return i }() != 2 {
		t.Errorf("list param size = %v", v)
	}
	if v, _ := res.Get(0, "f"); func() float64 { f, _ := v.AsFloat(); return f }() != 2.5 {
		t.Errorf("float param = %v", v)
	}
}

// TestQueryDeadlineAcceptance is the headline guarantee of the context-
// aware engine: a 1ms deadline on a pathological query (a four-way
// cartesian product over every AS) surfaces as context.DeadlineExceeded
// in well under 100ms instead of running for minutes.
func TestQueryDeadlineAcceptance(t *testing.T) {
	db := testDB(t)
	t0 := time.Now()
	_, err := db.Query(context.Background(),
		`MATCH (a:AS), (b:AS), (c:AS), (d:AS) RETURN count(*)`,
		iyp.WithTimeout(time.Millisecond))
	took := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > 100*time.Millisecond {
		t.Errorf("1ms-deadline query took %v; want well under 100ms", took)
	}
}

func TestQueryPreCancelledContext(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, `MATCH (a:AS) RETURN a.asn`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryMaxRowsSetsTruncated(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(context.Background(), `MATCH (a:AS) RETURN a.asn`, iyp.WithMaxRows(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 || !res.Truncated {
		t.Errorf("rows = %d truncated = %v, want 5/true", res.Len(), res.Truncated)
	}
}

// TestParallelQueriesOnOneDB hammers a single DB (and so a single plan
// cache) from many goroutines; run with -race this doubles as the
// concurrency-safety check for the whole query path.
func TestParallelQueriesOnOneDB(t *testing.T) {
	db := testDB(t)
	queries := []string{
		`MATCH (x:AS) RETURN count(x) AS n`,
		`MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn`,
		`MATCH (p:Prefix)-[:CATEGORIZED]-(t:Tag) RETURN t.label, count(p) AS n`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := db.Query(context.Background(), q, iyp.WithMaxRows(100)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMetricsReportCacheHits is the observability acceptance check:
// repeating a query through the HTTP API must register plan-cache hits on
// GET /metrics.
func TestMetricsReportCacheHits(t *testing.T) {
	db := testDB(t)
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	body := `{"query": "MATCH (x:AS) RETURN count(x) AS total_for_metrics"}`
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "iyp_plan_cache_hits_total ") {
			continue
		}
		n, err := strconv.Atoi(strings.Fields(line)[1])
		if err != nil {
			t.Fatal(err)
		}
		if n < 2 {
			t.Errorf("plan cache hits = %d after 3 identical queries, want >= 2", n)
		}
		return
	}
	t.Fatal("iyp_plan_cache_hits_total not found in /metrics output")
}

func TestLoadMissingSnapshot(t *testing.T) {
	if _, err := iyp.Load("/nonexistent/iyp.snapshot"); err == nil {
		t.Error("Load of missing file should error")
	}
}

func TestExplainThroughFacade(t *testing.T) {
	db := testDB(t)
	out, err := db.Explain(`MATCH (x:AS {asn: 1001})-[:ORIGINATE]->(p:Prefix) RETURN p`)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("empty explain output")
	}
}

// TestExplainParameterizedLookups pins EXPLAIN on the public instance's
// four lookup templates (the benchmark's lookup_zipf workload): each
// executes as an identity-index lookup, and EXPLAIN must say so whether
// the parameter is supplied, left out, or inlined as a literal, and say
// that the RETURN is evaluated at emit. Explain used to plan with no
// parameters at all and report a label scan.
func TestExplainParameterizedLookups(t *testing.T) {
	db := testDB(t)
	snap, release := db.Snapshot()
	defer release()
	for _, tc := range []struct {
		query, param string
		value        iyp.Value
		literal      string
		want         string
	}{
		{`MATCH (a:AS {asn:$asn})-[:NAME]-(n:Name) RETURN DISTINCT n.name AS name ORDER BY name`,
			"asn", iyp.IntValue(1001), "1001", "index lookup AS.asn"},
		{`MATCH (a:AS {asn:$asn})-[:ORIGINATE]-(p:Prefix) RETURN DISTINCT p.prefix AS prefix ORDER BY prefix`,
			"asn", iyp.IntValue(1001), "1001", "index lookup AS.asn"},
		{`MATCH (p:Prefix {prefix:$prefix})-[:CATEGORIZED]-(t:Tag) RETURN DISTINCT t.label AS label ORDER BY label`,
			"prefix", iyp.StringValue("192.0.2.0/24"), `"192.0.2.0/24"`, "index lookup Prefix.prefix"},
		{`MATCH (h:HostName {name:$name})-[:RESOLVES_TO]-(:IP)-[:PART_OF]-(p:Prefix)-[:ORIGINATE]-(a:AS) RETURN DISTINCT a.asn AS asn ORDER BY asn`,
			"name", iyp.StringValue("www.example.org"), `"www.example.org"`, "index lookup HostName.name"},
	} {
		supplied, err := db.Explain(tc.query, iyp.WithParams(map[string]iyp.Value{tc.param: tc.value}))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(supplied, "path 1: anchor at node 1 of") || !strings.Contains(supplied, tc.want) {
			t.Errorf("EXPLAIN with $%s supplied does not anchor on %q:\n%s", tc.param, tc.want, supplied)
		}
		// Each template's RETURN DISTINCT … ORDER BY alias runs at emit.
		if !strings.Contains(supplied, "\n  RETURN evaluated at match emit (DISTINCT per work item)\n") {
			t.Errorf("EXPLAIN does not evaluate the RETURN at emit:\n%s", supplied)
		}
		if pinned, err := snap.Explain(tc.query, iyp.WithParams(map[string]iyp.Value{tc.param: tc.value})); err != nil || pinned != supplied {
			t.Errorf("Snapshot.Explain differs from DB.Explain (err %v):\n%s", err, pinned)
		}
		// An unsupplied parameter is one unknown scalar: same plan.
		if missing, err := db.Explain(tc.query); err != nil || missing != supplied {
			t.Errorf("EXPLAIN without $%s differs from the supplied plan (err %v):\n%s\nvs\n%s", tc.param, err, missing, supplied)
		}
		// An inlined literal plans the same. The string values are
		// documentation addresses the graph does not store, so for them
		// EXPLAIN also says the clause never matches.
		want := supplied
		if _, isString := tc.value.AsString(); isString {
			want = strings.Replace(supplied, "\n  execution:", "\n  never matches: unknown string "+tc.literal+"\n  execution:", 1)
		}
		inlined, err := db.Explain(strings.Replace(tc.query, "$"+tc.param, tc.literal, 1))
		if err != nil || inlined != want {
			t.Errorf("EXPLAIN of the literal-inlined form differs (err %v):\n%s\nvs\n%s", err, inlined, want)
		}
	}
}
