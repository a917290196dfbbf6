package cypher

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"iyp/internal/graph"
)

// buildWideIYP creates an IYP-shaped graph big enough to clear the morsel
// engine's candidate threshold: nAS ASes with country and name metadata,
// 0–2 originated prefixes each (some RPKI-tagged), and a sparse PEERS_WITH
// mesh. Everything is derived from the loop index through a fixed LCG, so
// the graph is identical across runs.
func buildWideIYP(t testing.TB, nAS int) *graph.Graph {
	t.Helper()
	g := graph.New()
	countries := []string{"JP", "NL", "US", "BR", "KE"}
	ccNodes := make([]graph.NodeID, len(countries))
	for i, cc := range countries {
		ccNodes[i] = g.AddNode([]string{"Country"}, graph.Props{"country_code": graph.String(cc)})
	}
	tagValid := g.AddNode([]string{"Tag"}, graph.Props{"label": graph.String("RPKI Valid")})
	tagInvalid := g.AddNode([]string{"Tag"}, graph.Props{"label": graph.String("RPKI Invalid")})

	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}

	ases := make([]graph.NodeID, nAS)
	for i := 0; i < nAS; i++ {
		asn := int64(64000 + i)
		ases[i] = g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(asn)})
		mustRel(t, g, "COUNTRY", ases[i], ccNodes[next(len(ccNodes))], nil)
		if i%3 != 0 {
			name := g.AddNode([]string{"Name"}, graph.Props{"name": graph.String(fmt.Sprintf("AS-%d", asn))})
			mustRel(t, g, "NAME", ases[i], name, nil)
		}
		for p := 0; p < next(3); p++ {
			pfx := g.AddNode([]string{"Prefix"}, graph.Props{
				"prefix": graph.String(fmt.Sprintf("10.%d.%d.0/24", i%256, p)),
				"af":     graph.Int(4),
			})
			mustRel(t, g, "ORIGINATE", ases[i], pfx, nil)
			tag := tagValid
			if next(4) == 0 {
				tag = tagInvalid
			}
			mustRel(t, g, "CATEGORIZED", pfx, tag, nil)
		}
	}
	for i := 0; i < nAS; i++ {
		for k := 0; k < 2; k++ {
			j := next(nAS)
			if j != i {
				mustRel(t, g, "PEERS_WITH", ases[i], ases[j], nil)
			}
		}
	}
	g.EnsureIndex("AS", "asn")
	return g
}

// resultKey renders a result table (columns, rows, truncation flag) into a
// single comparable string.
func resultKey(res *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	fmt.Fprintf(&sb, "|truncated=%v\n", res.Truncated)
	for _, r := range res.Rows {
		for _, v := range r {
			sb.WriteString(v.groupKey())
			sb.WriteByte('\x1e')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// identityQueries are the paper-shaped query forms the MATCH driver must
// reproduce byte-identically at every worker count. wantErr marks the forms
// that must fail — with the same error at every worker count.
var identityQueries = []struct {
	name    string
	q       string
	opts    ExecOptions
	wantErr bool
}{
	{name: "rpki_coverage", q: `MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag)
		WHERE t.label = "RPKI Valid" RETURN a.asn, p.prefix`},
	{name: "moas_style_join", q: `MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
		WHERE x.asn <> y.asn RETURN DISTINCT p.prefix`},
	{name: "var_length_peering", q: `MATCH (a:AS)-[:PEERS_WITH*1..2]->(b:AS)
		RETURN a.asn, b.asn`},
	{name: "optional_match", q: `MATCH (a:AS) OPTIONAL MATCH (a)-[:NAME]->(n:Name)
		RETURN a.asn, n.name`},
	{name: "aggregation_by_country", q: `MATCH (a:AS)-[:COUNTRY]->(c:Country)
		RETURN c.country_code AS cc, count(*) AS n ORDER BY n DESC, cc`},
	{name: "limit_pushdown", q: `MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)
		RETURN a.asn, p.prefix LIMIT 7`},
	{name: "order_skip_limit", q: `MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC SKIP 3 LIMIT 11`},
	{name: "in_pushdown", q: `MATCH (a:AS)-[:COUNTRY]->(c:Country)
		WHERE a.asn IN [64003, 64007, 64211, 64399, 99999] RETURN a.asn, c.country_code`},
	{name: "max_rows_budget", q: `MATCH (a:AS)-[:PEERS_WITH]->(b:AS) RETURN a.asn, b.asn`,
		opts: ExecOptions{MaxRows: 13}},
	{name: "shortest_path_fallback", q: `MATCH p = shortestPath((a:AS {asn: 64001})-[:PEERS_WITH*..6]-(b:AS {asn: 64399}))
		RETURN length(p)`},
	{name: "union_branches", q: `MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: "JP"}) RETURN a.asn AS asn
		UNION MATCH (a:AS)-[:COUNTRY]->(c:Country {country_code: "NL"}) RETURN a.asn AS asn`},
	{name: "exists_subquery", q: `MATCH (a:AS) WHERE EXISTS { (a)-[:ORIGINATE]->(:Prefix) }
		RETURN count(a)`},

	// Many input rows feeding one clause: the work list spans rows, so a
	// second MATCH anchored on a bound variable (RiPKI Listing 4's shape),
	// and the whole-row clauses, fan out too.
	{name: "bound_anchor_rows", q: `MATCH (a:AS)-[:COUNTRY]->(c:Country) WHERE c.country_code <> "KE"
		MATCH (a)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag)
		RETURN a.asn, p.prefix, t.label`},
	{name: "multi_path_rows", q: `MATCH (a:AS)
		MATCH (a)-[:COUNTRY]->(c:Country), (a)-[:NAME]->(n:Name)
		RETURN a.asn, c.country_code, n.name`},
	{name: "shortest_path_rows", q: `MATCH (a:AS) WHERE a.asn < 64300
		MATCH p = shortestPath((a)-[:PEERS_WITH*..3]-(b:AS {asn: 64399}))
		RETURN a.asn, length(p)`},
	{name: "optional_null_rows", q: `MATCH (a:AS) OPTIONAL MATCH (a)-[:ORIGINATE]->(p:Prefix)
		RETURN a.asn, p.prefix`},
	{name: "limit_mid_rows", q: `MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS)
		RETURN a.asn, b.asn LIMIT 400`},
	{name: "max_rows_mid_rows", q: `MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS) RETURN a.asn, b.asn`,
		opts: ExecOptions{MaxRows: 333}},
	// Input row 350 divides by zero in WHERE. Without a limit every worker
	// count must report it; behind a LIMIT that the first hundred-odd rows
	// satisfy, none may — even though row 350 sits in the same window.
	{name: "late_row_error", q: `MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS)
		WHERE 10 / (a.asn - 64350) < 100 RETURN a.asn, b.asn`, wantErr: true},
	{name: "late_row_error_behind_limit", q: `MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS)
		WHERE 10 / (a.asn - 64350) < 100 RETURN a.asn, b.asn LIMIT 400`},
	// A work item holds up to 64 (input row, candidate) pairs, so
	// consecutive one-candidate rows share one: rows bound to null (no
	// pairs) and rows with long candidate lists fall between them, an
	// OPTIONAL MATCH's null rows land inside an item, and a LIMIT or a
	// failing row lands in the middle of one.
	{name: "bound_rows_between_null_rows", q: `MATCH (a:AS) WITH CASE WHEN a.asn % 7 = 0 THEN null ELSE a END AS a
		MATCH (a)-[:PEERS_WITH]-(b:AS) RETURN a.asn, b.asn`},
	{name: "one_candidate_rows_between_long_rows", q: `MATCH (a:AS)
		WITH a, CASE WHEN a.asn % 50 = 0 THEN range(64000, 64150) WHEN a.asn % 10 = 1 THEN [] ELSE [a.asn + 1] END AS ks
		MATCH (b:AS) WHERE b.asn IN ks RETURN a.asn, b.asn`},
	{name: "bound_optional_null_rows_mid_item", q: `MATCH (a:AS)
		OPTIONAL MATCH (a)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag) WHERE t.label = "RPKI Invalid"
		RETURN a.asn, p.prefix`},
	{name: "bound_limit_mid_item", q: `MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS) RETURN a.asn, b.asn LIMIT 130`},
	{name: "bound_optional_error_mid_item", q: `MATCH (a:AS) OPTIONAL MATCH (a)-[:NAME]->(n:Name)
		WHERE 10 / (a.asn - 64350) < 100 RETURN a.asn, n.name`, wantErr: true},

	// The final RETURN evaluated at emit (returnAtEmit): every b.asn
	// recurs in many morsels, so DISTINCT drops duplicates both inside a
	// work item and across items in the merge.
	{name: "emit_distinct_across_morsels", q: `MATCH (a:AS)-[:PEERS_WITH]-(b:AS)
		RETURN DISTINCT b.asn AS asn, $tag AS tag, 1 AS one`,
		opts: ExecOptions{ParamVals: map[string]Val{"tag": ScalarVal(graph.String("t"))}}},
	{name: "emit_distinct_order_skip_limit", q: `MATCH (a:AS)-[:PEERS_WITH]->(b:AS)
		RETURN DISTINCT b.asn AS asn ORDER BY asn DESC SKIP 5 LIMIT 40`},
	{name: "emit_distinct_max_rows", q: `MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN DISTINCT b.asn AS asn`,
		opts: ExecOptions{MaxRows: 17}},
	{name: "emit_node_and_path_items", q: `MATCH p = (a:AS)-[r:ORIGINATE]->(x:Prefix)
		RETURN DISTINCT a, r, p, x.prefix AS prefix ORDER BY prefix DESC LIMIT 50`},
	{name: "emit_over_earlier_with", q: `MATCH (a:AS) WITH a WHERE a.asn % 3 = 0
		MATCH (a)-[:PEERS_WITH]-(b:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT a.asn AS asn, c.country_code AS cc`},
	// Shapes that keep the unfused path, with their outcome unchanged.
	{name: "emit_fallback_optional", q: `MATCH (a:AS) OPTIONAL MATCH (a)-[:NAME]->(n:Name)
		RETURN DISTINCT n.name AS name`},
	{name: "emit_fallback_aggregate", q: `MATCH (a:AS)-[:PEERS_WITH]->(b:AS)
		RETURN DISTINCT b.asn % 10 AS d, count(*) AS n ORDER BY d`},
	{name: "emit_fallback_order_by_unreturned", q: `MATCH (a:AS)-[:COUNTRY]->(c:Country)
		RETURN c.country_code AS cc ORDER BY a.asn DESC LIMIT 30`},
	{name: "emit_fallback_failing_item", q: `MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS)
		WHERE 10 / (a.asn - 64350) < 100 RETURN DISTINCT a.asn.x`, wantErr: true},
}

// TestReturnAtEmitDecision pins which RETURN shapes run at emit, and where
// a RETURN DISTINCT at emit gets the suffix-state memo, read off EXPLAIN,
// which asks the predicates the executor asks. A fallback keeps the
// unfused error: the WHERE's division by zero at a late row, not the
// failing item's error at the first.
func TestReturnAtEmitDecision(t *testing.T) {
	g := buildWideIYP(t, 400)
	const fused, memo = "RETURN evaluated at match emit", "DISTINCT memo at"
	for _, tc := range []struct{ q, want, memo string }{
		{`MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN DISTINCT b.asn AS asn ORDER BY asn DESC`, fused + " (DISTINCT per work item)\n", ""},
		{`MATCH p = (a:AS)-[r:ORIGINATE]->(x:Prefix) RETURN a, r, p, x.prefix, $k AS k, 'lit' AS s`, fused + "\n", ""},
		{`MATCH (a:AS) OPTIONAL MATCH (a)-[:NAME]->(n:Name) RETURN DISTINCT n.name`, "", ""},
		{`MATCH (a:AS) RETURN count(a)`, "", ""},
		{`MATCH (a:AS) RETURN a.asn AS asn ORDER BY a.asn`, "", ""},
		{`MATCH p = (a:AS)-[:PEERS_WITH]->(b:AS) RETURN p.x`, "", ""},
		{`MATCH (a:AS)-[r:PEERS_WITH*1..2]->(b:AS) RETURN r.x`, "", ""},
		{`MATCH (a:AS) RETURN a.asn + 1`, "", ""},
		{`MATCH (a:AS) RETURN a.asn AS x, a.asn AS x`, "", ""},
		{`MATCH (a:AS) WITH a, 1 AS x MATCH (a)-[:COUNTRY]->(c) RETURN x`, "", ""},
		{`MATCH (a:AS) RETURN *`, "", ""},
		{`MATCH (a:AS) WITH a RETURN a`, "", ""},
		// Listing 4's shape: a bound anchor, and the tail the RETURN
		// reads is typed apart from the hops before it.
		{`MATCH (a:AS) WHERE a.asn < 64100 MATCH (a)-[:PEERS_WITH]-(b:AS)-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(t:Tag)
			WHERE t.label STARTS WITH 'RPKI' RETURN DISTINCT p.prefix, t.label`, fused, memo + " nodes 2, 3 of 4\n"},
		// Written from the Tag end, the same memo points lie left of the
		// anchor.
		{`MATCH (a:AS) WHERE a.asn < 64100 MATCH (t:Tag)-[:CATEGORIZED]-(p:Prefix)-[:ORIGINATE]-(b:AS)-[:PEERS_WITH]-(a)
			RETURN DISTINCT p.prefix, t.label`, fused, memo + " nodes 2, 3 of 4\n"},
		// Repeated types: PEERS_WITH and ORIGINATE each lie on both sides
		// of b, p and c; below, only c has PEERS_WITH on one side alone.
		{`MATCH (a:AS {asn: 64001})-[:PEERS_WITH]-(b:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(c:AS)-[:PEERS_WITH]-(d:AS)
			RETURN DISTINCT d.asn`, fused, ""},
		{`MATCH (a:AS {asn: 64001})-[:PEERS_WITH]-(b:AS)-[:PEERS_WITH]-(c:AS)-[:COUNTRY]-(k:Country) RETURN DISTINCT k.country_code`,
			fused, memo + " node 3 of 4\n"},
		// A back-reference: the WHERE reads a, bound before b and p.
		{`MATCH (a:AS {asn: 64001})-[:PEERS_WITH]-(b:AS)-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(t:Tag)
			WHERE t.label <> a.name RETURN DISTINCT t.label`, fused, ""},
		// A variable-length hop after a position leaves it no memo.
		{`MATCH (k:Country {country_code: 'JP'})-[:COUNTRY]-(a:AS)-[:PEERS_WITH*1..2]-(b:AS) RETURN DISTINCT b.asn`, fused, ""},
		{`MATCH (k:Country {country_code: 'JP'})-[:COUNTRY]-(a:AS)-[:PEERS_WITH]-(b:AS) RETURN DISTINCT b.asn`, fused, memo + " node 2 of 3\n"},
		// A one-hop lookup has no position between its ends.
		{`MATCH (a:AS {asn: 64001})-[:ORIGINATE]-(p:Prefix) RETURN DISTINCT p.prefix`, fused, ""},
	} {
		out, err := Explain(g, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if got := strings.Contains(out, fused); got != (tc.want != "") || !strings.Contains(out, tc.want) {
			t.Errorf("%s: EXPLAIN says\n%swant the line %q", tc.q, out, tc.want)
		}
		if got := strings.Contains(out, memo); got != (tc.memo != "") || !strings.Contains(out, tc.memo) {
			t.Errorf("%s: EXPLAIN says\n%swant the memo line %q", tc.q, out, tc.memo)
		}
	}

	q, err := Parse(`MATCH (a:AS) MATCH (a)-[:PEERS_WITH]-(b:AS) WHERE 10 / (a.asn - 64350) < 100 RETURN DISTINCT a.asn.x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(context.Background(), g, q, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want the WHERE's division by zero", err)
	}
	// An unsupplied parameter fails at execution, so it is not fused there.
	q, err = Parse(`MATCH (a:AS) RETURN $missing AS m`)
	if err != nil {
		t.Fatal(err)
	}
	if returnAtEmit(&evalCtx{g: g}, q, 0) != nil {
		t.Error("a RETURN of an unsupplied parameter runs at emit")
	}
}

// outcomeKey is resultKey for a successful execution and the error text for
// a failed one.
func outcomeKey(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return resultKey(res)
}

// TestParallelMatchesSerial runs every query shape at worker counts 1, 2
// and 8 and requires the outcome — result table or error — to be
// byte-identical to serial execution. Run under -race this also exercises
// the engine's sharing discipline (per-worker matchers over a read-only
// graph and plan).
func TestParallelMatchesSerial(t *testing.T) {
	g := buildWideIYP(t, 400)
	for _, tc := range identityQueries {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.q)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			serialOpts := tc.opts
			serialOpts.Parallelism = 1
			want, err := Exec(context.Background(), g, q, serialOpts)
			if (err != nil) != tc.wantErr {
				t.Fatalf("serial exec: err = %v, want an error: %v", err, tc.wantErr)
			}
			wantKey := outcomeKey(want, err)
			for _, workers := range []int{2, 8} {
				opts := tc.opts
				opts.Parallelism = workers
				got, err := Exec(context.Background(), g, q, opts)
				if gotKey := outcomeKey(got, err); gotKey != wantKey {
					t.Errorf("workers=%d: outcome differs from serial\nserial:\n%.400s\nparallel:\n%.400s",
						workers, wantKey, gotKey)
				}
			}
		})
	}
}

// TestParallelGOMAXPROCSInvariant runs every query shape with the default
// worker budget (all CPUs) at GOMAXPROCS 1 and 8 and requires identical
// outcomes: the inline-vs-pool choice may differ, the rows may not.
func TestParallelGOMAXPROCSInvariant(t *testing.T) {
	g := buildWideIYP(t, 400)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range identityQueries {
		q, err := Parse(tc.q)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		var keys [2]string
		for i, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			keys[i] = outcomeKey(Exec(context.Background(), g, q, tc.opts))
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: outcome differs between GOMAXPROCS 1 and 8\n1:\n%.400s\n8:\n%.400s",
				tc.name, keys[0], keys[1])
		}
	}
}

// TestParallelErrorDeterminism checks the morsel merge's error semantics:
// a runtime error in a late candidate surfaces identically to serial
// execution, and is suppressed identically when an earlier LIMIT is
// satisfied before serial execution would have reached it.
func TestParallelErrorDeterminism(t *testing.T) {
	g := graph.New()
	for i := 0; i < 400; i++ {
		d := int64(1)
		if i == 300 {
			d = 0 // candidate 300 divides by zero inside WHERE
		}
		g.AddNode([]string{"N"}, graph.Props{"i": graph.Int(int64(i)), "d": graph.Int(d)})
	}
	q, err := Parse(`MATCH (n:N) WHERE 10 / n.d >= 0 RETURN n.i`)
	if err != nil {
		t.Fatal(err)
	}
	serialErr := func(limit string) string {
		src := `MATCH (n:N) WHERE 10 / n.d >= 0 RETURN n.i` + limit
		pq, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		_, execErr := Exec(context.Background(), g, pq, ExecOptions{Parallelism: 1})
		if execErr == nil {
			return ""
		}
		return execErr.Error()
	}

	// Without a limit both modes must fail with the same error.
	wantErr := serialErr("")
	if wantErr == "" {
		t.Fatal("expected serial execution to fail on division by zero")
	}
	if _, err := Exec(context.Background(), g, q, ExecOptions{Parallelism: 8}); err == nil || err.Error() != wantErr {
		t.Fatalf("parallel error = %v, want %q", err, wantErr)
	}

	// With LIMIT 50 serial execution stops before candidate 300; parallel
	// execution must also succeed with the same rows.
	lq, err := Parse(`MATCH (n:N) WHERE 10 / n.d >= 0 RETURN n.i LIMIT 50`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Exec(context.Background(), g, lq, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("serial with limit: %v", err)
	}
	got, err := Exec(context.Background(), g, lq, ExecOptions{Parallelism: 8})
	if err != nil {
		t.Fatalf("parallel with limit: %v", err)
	}
	if resultKey(got) != resultKey(want) {
		t.Fatalf("limited results differ:\nserial %d rows\nparallel %d rows", len(want.Rows), len(got.Rows))
	}
}

// perRowReference runs `UNWIND $xs AS x` + rest once per element of xs,
// at Parallelism 1, and concatenates the result rows: what rest's first
// clause must return over all of xs, in input order. limit >= 0 keeps that
// many rows.
func perRowReference(t testing.TB, g *graph.Graph, xs []Val, rest string, limit int) string {
	t.Helper()
	q, err := Parse("UNWIND $xs AS x " + rest)
	if err != nil {
		t.Fatalf("%s: %v", rest, err)
	}
	want := &Result{}
	for _, x := range xs {
		res, err := Exec(context.Background(), g, q, ExecOptions{
			Parallelism: 1,
			ParamVals:   map[string]Val{"xs": ListVal([]Val{x})},
		})
		if err != nil {
			t.Fatalf("%s for one row: %v", rest, err)
		}
		want.Columns = res.Columns
		want.Rows = append(want.Rows, res.Rows...)
	}
	if limit >= 0 && len(want.Rows) > limit {
		want.Rows = want.Rows[:limit]
	}
	return resultKey(want)
}

// checkPerRowReference requires `UNWIND $xs AS x` + rest (+ LIMIT limit,
// when limit >= 0) to return perRowReference's rows at Parallelism 1, 2
// and 8.
func checkPerRowReference(t testing.TB, g *graph.Graph, xs []Val, rest string, limit int) {
	t.Helper()
	want := perRowReference(t, g, xs, rest, limit)
	text := "UNWIND $xs AS x " + rest
	if limit >= 0 {
		text += fmt.Sprintf(" LIMIT %d", limit)
	}
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	for _, par := range []int{1, 2, 8} {
		res, err := Exec(context.Background(), g, q, ExecOptions{
			Parallelism: par,
			ParamVals:   map[string]Val{"xs": ListVal(xs)},
		})
		if err != nil {
			t.Fatalf("%s at Parallelism %d: %v", text, par, err)
		}
		if got := resultKey(res); got != want {
			t.Fatalf("%s at Parallelism %d over %d rows: %d rows, differs from the per-row reference\ngot:\n%.600s\nwant:\n%.600s",
				text, par, len(xs), len(res.Rows), got, want)
		}
	}
}

// TestParallelBoundAnchorItems checks the work list on RiPKI Listing 4's
// shape: 1 000 input rows with one bound-anchor candidate each share
// work items, 64 rows to an item, not one item per row, and the clause
// returns exactly the per-row reference's rows at every worker count.
func TestParallelBoundAnchorItems(t *testing.T) {
	g := buildWideIYP(t, 1000)
	res, err := execQ(t, g, `MATCH (a:AS) RETURN a`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]Val, len(res.Rows))
	for i, vals := range res.Rows {
		xs[i] = vals[0]
	}
	const rest = `MATCH (x)-[:PEERS_WITH]-(b:AS)-[:COUNTRY]->(c:Country) RETURN x.asn, b.asn, c.country_code`
	checkPerRowReference(t, g, xs, rest, -1)

	var items atomic.Int64
	testMorselHook = func(int) { items.Add(1) }
	defer func() { testMorselHook = nil }()
	want := int64(len(xs)+morselSize-1) / morselSize
	for _, par := range []int{1, 2, 8} {
		items.Store(0)
		if _, err := execQ(t, g, "UNWIND $xs AS x "+rest, ExecOptions{
			Parallelism: par,
			ParamVals:   map[string]Val{"xs": ListVal(xs)},
		}); err != nil {
			t.Fatal(err)
		}
		if n := items.Load(); n > want {
			t.Errorf("Parallelism %d: %d input rows ran %d work items, want at most %d", par, len(xs), n, want)
		}
	}
}

// TestParallelSingleAnchorSplit checks the work list on a clause whose one
// anchor candidate is a hub: its first hop is cut into work items of
// morselSize adjacency entries, ⌈entries / morselSize⌉ of them, and the
// rows equal the serial rows at every worker count, with the hop read out,
// in and both ways over mixed types and self-loops. A RETURN DISTINCT with
// memo points, the anchor's among them, keeps the anchor whole.
func TestParallelSingleAnchorSplit(t *testing.T) {
	g := graph.New()
	hub := g.AddNode([]string{"Hub"}, graph.Props{"name": graph.String("hub")})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1200; i++ {
		typ := []string{"T", "T", "U"}[r.Intn(3)]
		leaf := g.AddNode([]string{"Leaf"}, graph.Props{"i": graph.Int(int64(i))})
		switch {
		case i%40 == 0:
			mustRel(t, g, typ, hub, hub, graph.Props{"k": graph.Int(int64(i))})
		case r.Intn(2) == 0:
			mustRel(t, g, typ, hub, leaf, graph.Props{"k": graph.Int(int64(i))})
		default:
			mustRel(t, g, typ, leaf, hub, graph.Props{"k": graph.Int(int64(i))})
		}
		if i%3 == 0 {
			other := g.AddNode([]string{"Other"}, graph.Props{"j": graph.Int(int64(i % 7))})
			mustRel(t, g, "V", leaf, other, nil)
		}
	}
	tid, _ := g.TypeID("T")
	kept := func(dir graph.Dir) int { return len(g.Rels(hub, dir, []uint16{tid}, nil)) }

	var items atomic.Int64
	testMorselHook = func(int) { items.Add(1) }
	defer func() { testMorselHook = nil }()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		q     string
		items int // at 2 and 8 workers; 0: ⌈entries / morselSize⌉
		dir   graph.Dir
	}{
		{q: `MATCH (h:Hub)-[r:T]-(x) RETURN r.k, x.i`, dir: graph.DirBoth},
		{q: `MATCH (h:Hub)-[r:T]->(x) RETURN r.k, x.i`, dir: graph.DirOut},
		{q: `MATCH (h:Hub)<-[r:T]-(x) RETURN r.k, x.i`, dir: graph.DirIn},
		{q: `MATCH (x)-[r:T]-(h:Hub) RETURN r.k, x.i`, dir: graph.DirBoth},
		{q: `MATCH (h:Hub)-[r:T]-(x)-[:V]-(y:Other) WHERE r.k >= 100 AND r.k < 900 RETURN r.k, x.i, y.j`, dir: graph.DirBoth},
		{q: `MATCH (h:Hub)-[:T]-(x:Leaf) RETURN x.i LIMIT 150`, items: -1},
		// A bound anchor under OPTIONAL MATCH: its null row comes only when
		// no stretch matched.
		{q: `MATCH (h:Hub) OPTIONAL MATCH (h)-[r:T]-(x:Leaf) WHERE x.i < 0 RETURN h.name, x.i`, items: -1},
		{q: `MATCH (h:Hub) OPTIONAL MATCH (h)-[r:T]-(x:Leaf) WHERE x.i > 1150 RETURN h.name, x.i`, items: -1},
		// A clause with memo points keeps its anchor whole: one item,
		// whether the memo point is the anchor or lies past it.
		{q: `MATCH (y:Other)-[:V]-(h:Hub)-[:T]-(x:Leaf) RETURN DISTINCT x.i`, items: 1},
		{q: `MATCH (h:Hub)-[:T]-(x:Leaf)-[:V]-(y:Other) RETURN DISTINCT y.j`, items: 1},
	} {
		runtime.GOMAXPROCS(prev)
		serial, err := execQ(t, g, tc.q, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := resultKey(serial)
		wantItems := int64(tc.items)
		if tc.items == 0 {
			wantItems = int64(kept(tc.dir)+morselSize-1) / morselSize
		}
		for _, par := range []int{2, 8} {
			items.Store(0)
			res, err := execQ(t, g, tc.q, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultKey(res); got != want {
				t.Errorf("%s at Parallelism %d: rows differ from serial\nserial:\n%.400s\ngot:\n%.400s", tc.q, par, want, got)
			}
			if n := items.Load(); wantItems > 0 && n != wantItems {
				t.Errorf("%s at Parallelism %d: %d work items, want %d", tc.q, par, n, wantItems)
			}
		}
		runtime.GOMAXPROCS(1)
		if res, err := execQ(t, g, tc.q, ExecOptions{}); err != nil || resultKey(res) != want {
			t.Errorf("%s at GOMAXPROCS 1: rows differ from serial (err %v)", tc.q, err)
		}
	}
}

// TestParallelOptionalRowAcrossItems checks an OPTIONAL MATCH row whose
// candidates span several work items: it gets its null row only when none
// of its segments matched, whichever item they fall in.
func TestParallelOptionalRowAcrossItems(t *testing.T) {
	g := buildWideIYP(t, 400)
	const want = "1 64000\n2 64000\n2 64001\n0 null\n"
	for _, par := range []int{1, 8} {
		res, err := execQ(t, g, `UNWIND [1, 2, 0] AS k OPTIONAL MATCH (b:AS) WHERE b.asn < 64000 + k RETURN k, b.asn`,
			ExecOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, vals := range res.Rows {
			fmt.Fprintf(&sb, "%s %s\n", vals[0], vals[1])
		}
		if sb.String() != want {
			t.Errorf("Parallelism %d: rows\n%swant\n%s", par, sb.String(), want)
		}
	}
}

// boundAnchorQuery decodes a random clause anchored on x from data
// (exhausted data reads as zeros): a one- or two-hop chain over chainGraph's
// labels and types with x at either end, OPTIONAL and a LIMIT each half the
// time, and a WHERE on the far node now and then. xs, its input rows, are
// 150–400 of the graph's nodes drawn with repeats from seed, one in eight
// null.
func boundAnchorQuery(g *graph.Graph, seed int64, data []byte) (xs []Val, rest string, limit int) {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	r := rand.New(rand.NewSource(seed))
	xs = make([]Val, 150+r.Intn(251))
	for i := range xs {
		xs[i] = NullVal()
		if r.Intn(8) != 0 {
			xs[i] = NodeVal(graph.NodeID(r.Intn(g.NumNodes())))
		}
	}
	var sb strings.Builder
	if pick(2) == 1 {
		sb.WriteString("OPTIONAL ")
	}
	hops := 1 + pick(2)
	nodes := []string{"(x)"}
	for k := 1; k <= hops; k++ {
		nodes = append(nodes, fmt.Sprintf("(n%d%s)", k, []string{"", ":A", ":B"}[pick(3)]))
	}
	if pick(2) == 1 {
		slices.Reverse(nodes)
	}
	sb.WriteString("MATCH " + nodes[0])
	for k := 1; k <= hops; k++ {
		typ := []string{":R", ":S", "", ":R|S"}[pick(4)]
		if k == 1 && pick(6) == 0 {
			typ += "*1..2" // one variable-length hop at most: hubs make two slow
		}
		fmt.Fprintf(&sb, []string{"-[%s]-", "-[%s]->", "<-[%s]-"}[pick(3)], typ)
		sb.WriteString(nodes[k])
	}
	far := fmt.Sprintf("n%d", hops)
	switch pick(4) {
	case 1:
		fmt.Fprintf(&sb, " WHERE %s.i %% 2 = 0", far)
	case 2:
		fmt.Fprintf(&sb, " WHERE %s.i > x.i", far)
	}
	fmt.Fprintf(&sb, " RETURN x.i, %s.i", far)
	limit = -1
	if pick(2) == 1 {
		limit = pick(256) + pick(256)
	}
	return xs, sb.String(), limit
}

// FuzzParallelBoundAnchorRows checks the driver's work list on random
// bound-anchor clauses over the memo fuzzer's seeded graphs: the rows at
// Parallelism 1, 2 and 8 must equal the per-row reference's.
func FuzzParallelBoundAnchorRows(f *testing.F) {
	f.Add(int64(0), []byte{0, 0, 1, 0, 1, 0, 0, 0})
	f.Add(int64(1), []byte{1, 1, 2, 2, 1, 1, 2, 0, 2, 1, 40, 90})
	f.Add(int64(2), []byte{1, 0, 0, 1, 0, 3, 2, 2, 1, 0})
	f.Add(int64(3), []byte{0, 1, 1, 0, 0, 2, 0, 1, 1, 64, 0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		g := chainGraph(seed % 8)
		xs, rest, limit := boundAnchorQuery(g, seed, data)
		checkPerRowReference(t, g, xs, rest, limit)
	})
}

// TestParallelCancellation checks that a cancelled context stops a
// parallel match and surfaces the cancellation error.
func TestParallelCancellation(t *testing.T) {
	g := buildWideIYP(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := Parse(`MATCH (a:AS)-[:PEERS_WITH*1..3]-(b:AS) RETURN count(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(ctx, g, q, ExecOptions{Parallelism: 8}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestFrontierCutoff exercises the completion-frontier bookkeeping
// directly: once the contiguous completed prefix satisfies the limit,
// later morsels are marked skippable.
func TestFrontierCutoff(t *testing.T) {
	f := newFrontier(10, 100)
	if f.skip(9) {
		t.Fatal("nothing completed yet; morsel 9 must not be skipped")
	}
	// Morsel 1 completes first — no contiguous prefix yet.
	f.complete(1, 60)
	if f.skip(5) {
		t.Fatal("prefix incomplete; no cutoff expected")
	}
	// Morsel 0 completes: prefix [0,1] holds 120 >= 100 rows.
	f.complete(0, 60)
	if !f.skip(2) || !f.skip(9) {
		t.Fatal("cutoff after morsel 1 expected once prefix satisfies the limit")
	}
	if f.skip(1) {
		t.Fatal("morsels inside the satisfying prefix must not be skipped")
	}

	// Unlimited frontier never cuts off on completions.
	u := newFrontier(4, -1)
	u.complete(0, 1000)
	u.complete(1, 1000)
	if u.skip(3) {
		t.Fatal("unlimited frontier must not cut off")
	}
	// But an error still does.
	u.errorAt(2)
	if !u.skip(3) || u.skip(2) {
		t.Fatal("error cutoff must skip exactly the morsels after the failed one")
	}
}

// TestParallelMetricsMove sanity-checks that parallel runs and serial
// fallbacks are counted.
func TestParallelMetricsMove(t *testing.T) {
	g := buildWideIYP(t, 400)
	beforePar := metricMatchParallel.Load()
	beforeShort := metricMatchSerialShortest.Load()

	mustExec := func(src string, par int) {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Exec(context.Background(), g, q, ExecOptions{Parallelism: par}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`MATCH (a:AS) RETURN count(a)`, 4)
	if got := metricMatchParallel.Load(); got == beforePar {
		t.Error("iyp_match_parallel_total did not move after a parallel run")
	}
	mustExec(`MATCH p = shortestPath((a:AS {asn: 64001})-[:PEERS_WITH*..4]-(b:AS {asn: 64010})) RETURN length(p)`, 4)
	if got := metricMatchSerialShortest.Load(); got == beforeShort {
		t.Error("shortest-path serial fallback was not counted")
	}

	var sb strings.Builder
	WriteMatchMetrics(&sb)
	for _, want := range []string{"iyp_match_parallel_total", "iyp_match_morsels_total", "iyp_match_serial_total{reason=\"shortest_path\"}"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}
