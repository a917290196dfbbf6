package cypher

import (
	"strings"
	"testing"

	"iyp/internal/graph"
)

// TestInlineNodePropErrorSurfaces pins that an inline node property whose
// value fails to evaluate is an error, as it already was for an inline
// relationship property — with and without an index on the key, so the
// planner's label-scan fallback for an unresolvable value errors too. It
// used to answer an empty match.
func TestInlineNodePropErrorSurfaces(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		g := buildTinyIYP(t)
		if indexed {
			g.EnsureIndex("AS", "asn")
		}
		for _, q := range []string{
			`MATCH (a:AS {asn: $nope}) RETURN count(*)`,
			`MATCH (p:Prefix)<-[:ORIGINATE]-(a:AS {asn: $nope}) RETURN count(*)`,
			`MATCH ()-[r:ORIGINATE {reference_name: $nope}]-() RETURN count(*)`,
		} {
			_, err := Run(g, q, nil)
			if err == nil || !strings.Contains(err.Error(), "parameter $nope not provided") {
				t.Errorf("indexed=%v %s: error %v, want the missing parameter", indexed, q, err)
			}
		}
	}
}

// TestUnknownNamesNeverMatch covers names the graph has never stored: a
// clause naming such a label, relationship type, key or string literal
// answers no rows without enumerating a candidate, EXPLAIN says why, and
// an OPTIONAL MATCH still yields its null row. A zero-hop variable-length
// step needs no relationship, so an unknown type does not empty it.
func TestUnknownNamesNeverMatch(t *testing.T) {
	g := buildTinyIYP(t)
	for _, tc := range []struct{ q, why string }{
		{`MATCH (a:Nope) RETURN count(*)`, "unknown label `Nope`"},
		{`MATCH (a:AS)-[:NOPE]-(b) RETURN count(*)`, "unknown relationship type `NOPE`"},
		{`MATCH (a:AS)-[:NOPE|ALSO_NOPE]-(b) RETURN count(*)`, "unknown relationship type `NOPE`"},
		{`MATCH (a:AS {nokey: 1}) RETURN count(*)`, "unknown property key `nokey`"},
		{`MATCH (p:Prefix {prefix: '198.51.100.0/24'}) RETURN count(*)`, `unknown string "198.51.100.0/24"`},
		{`MATCH (a:AS)-[r:ORIGINATE {reference_name: 'nowhere'}]->(p) RETURN count(*)`, `unknown string "nowhere"`},
		{`MATCH (a:AS) MATCH (a)-[:NOPE*1..3]-(b) RETURN count(*)`, "unknown relationship type `NOPE`"},
	} {
		enumerated := 0
		testPlannerHook = func(op string, _ PatternPath, _ pathPlan) {
			if op == "enumerate" {
				enumerated++
			}
		}
		res := mustRun(t, g, tc.q, nil)
		testPlannerHook = nil
		if n, err := res.ScalarInt(); err != nil || n != 0 {
			t.Errorf("%s: %v (err %v), want 0", tc.q, res.Rows, err)
		}
		// The two-clause query enumerates its first clause's AS nodes only.
		if want := strings.Count(tc.q, "MATCH") - 1; enumerated != want {
			t.Errorf("%s: enumerated candidates %d times, want %d", tc.q, enumerated, want)
		}
		out, err := Explain(g, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "  never matches: "+tc.why+"\n") {
			t.Errorf("%s: EXPLAIN does not say %q:\n%s", tc.q, tc.why, out)
		}
	}

	res := mustRun(t, g, `MATCH (a:AS) OPTIONAL MATCH (a)-[:NOPE]-(b) RETURN a.asn AS asn, b ORDER BY asn`, nil)
	if res.Len() != 2 || !res.Rows[0][1].IsNull() || !res.Rows[1][1].IsNull() {
		t.Errorf("OPTIONAL MATCH over an unknown type: %v, want two rows with a null b", res.Rows)
	}
	// A null inline value equals nothing, at the anchor and past it.
	for _, q := range []string{
		`MATCH (a:AS {asn: null}) RETURN count(*)`,
		`MATCH (p:Prefix)--(a:AS {asn: null}) RETURN count(*)`,
		`MATCH (a:AS)-[r:ORIGINATE {nokey: null}]-(p) RETURN count(*)`,
		`MATCH (a:AS)-[r:ORIGINATE {nokey: $v}]-(p) RETURN count(*)`,
	} {
		if n, _ := mustRun(t, g, q, map[string]graph.Value{"v": graph.Null()}).ScalarInt(); n != 0 {
			t.Errorf("%s matched %d rows, want 0", q, n)
		}
	}
	if n, _ := mustRun(t, g, `MATCH (a:AS)-[:NOPE*0..2]-(b) RETURN count(*)`, nil).ScalarInt(); n != 2 {
		t.Errorf("zero-hop step over an unknown type matched %d rows, want 2", n)
	}
}

// TestNamesCreatedEarlierInStatementResolve pins that resolution happens
// per clause execution, not per parse: a statement that creates a new
// label, type, key and string and matches them in a later clause sees
// them, as does a read of a key a SET in the same statement created.
func TestNamesCreatedEarlierInStatementResolve(t *testing.T) {
	g := buildTinyIYP(t)
	q, err := Parse(`
CREATE (:Fresh {fkey: 'fval'})-[:FRESH_REL {rkey: 'rval'}]->(:Fresh)
WITH 1 AS one
MATCH (a:Fresh {fkey: 'fval'})-[r:FRESH_REL {rkey: 'rval'}]->(b:Fresh)
SET b.late = 7
RETURN a.fkey AS f, r.rkey AS rk, type(r) AS t, b.late AS late`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(t.Context(), g, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("%d rows, want 1", res.Len())
	}
	want := []graph.Value{graph.String("fval"), graph.String("rval"), graph.String("FRESH_REL"), graph.Int(7)}
	for i, w := range want {
		if got, _ := res.Rows[0][i].Scalar(); !got.Equal(w) {
			t.Errorf("column %s = %v, want %v", res.Columns[i], got, w)
		}
	}
	// The same parsed statement against a graph that lacks the names
	// resolves them afresh.
	other := buildTinyIYP(t)
	if _, err := Exec(t.Context(), other, q, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := other.CountByLabel("Fresh"); n != 2 {
		t.Errorf("second execution created %d Fresh nodes, want 2", n)
	}
}
