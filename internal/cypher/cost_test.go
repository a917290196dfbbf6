package cypher

// Tests for the pre-execution cost estimator that drives admission
// control: the estimate never needs to be exact, but it must be finite,
// non-negative, cheap to compute, and must rank indexed lookups far below
// scans so the degrade ladder sheds the right queries.

import (
	"context"
	"math"
	"testing"

	"iyp/internal/graph"
)

// TestEstimateIdentityQueries runs the estimator over the same
// paper-shaped query forms the morsel engine is tested against, executes
// each for its actual row count, and checks loose structural properties:
// everything finite and non-negative, cost roughly tracking real work, and
// no identity query misclassified as analytics.
func TestEstimateIdentityQueries(t *testing.T) {
	g := buildWideIYP(t, 400)
	for _, tc := range identityQueries {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.q)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			est := EstimateQuery(g, q, nil)
			if math.IsNaN(est.Rows) || math.IsInf(est.Rows, 0) || est.Rows < 0 {
				t.Fatalf("Rows = %v, want finite non-negative", est.Rows)
			}
			if math.IsNaN(est.Cost) || math.IsInf(est.Cost, 0) || est.Cost <= 0 {
				t.Fatalf("Cost = %v, want finite positive", est.Cost)
			}
			if est.Analytics {
				t.Fatal("identity query misclassified as analytics")
			}

			if tc.wantErr {
				return // nothing to compare the estimate with
			}
			res, err := Exec(context.Background(), g, q, tc.opts)
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			// The cost models the rows the engine touches, which is never
			// smaller than the result set by more than the aggregation /
			// LIMIT factor. A very loose floor still catches an estimator
			// that silently collapses to zero for a whole query shape.
			if actual := float64(len(res.Rows)); est.Cost < actual/32 {
				t.Errorf("Cost = %.1f vs %d actual rows: estimator collapsed", est.Cost, len(res.Rows))
			}
		})
	}
}

// TestEstimateRanksQueries pins the orderings admission control depends
// on: an indexed point lookup estimates far below a label scan, which
// estimates below a multi-hop traversal, and CALL algo.* is flagged as
// analytics with a graph-sized cost.
func TestEstimateRanksQueries(t *testing.T) {
	g := buildWideIYP(t, 400)
	est := func(text string, params map[string]Val) QueryEstimate {
		t.Helper()
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		return EstimateQuery(g, q, params)
	}

	point := est(`MATCH (a:AS {asn: 64001}) RETURN a.asn`, nil)
	scan := est(`MATCH (a:AS) RETURN a.asn`, nil)
	traverse := est(`MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag) RETURN a.asn`, nil)

	if !point.IndexOnly {
		t.Error("indexed point lookup not flagged IndexOnly")
	}
	if scan.IndexOnly {
		t.Error("label scan wrongly flagged IndexOnly")
	}
	if point.Cost >= scan.Cost {
		t.Errorf("point lookup cost %.1f not below scan cost %.1f", point.Cost, scan.Cost)
	}
	// The planner may anchor the traversal on whichever endpoint class is
	// smallest, so it can legitimately estimate below a full label scan —
	// but never below the point lookup.
	if point.Cost*10 >= traverse.Cost {
		t.Errorf("point lookup cost %.1f not well below traversal cost %.1f", point.Cost, traverse.Cost)
	}

	// Parameterized anchors must plan like their literal twins: the ladder
	// would otherwise shed every client that uses parameters properly.
	param := est(`MATCH (a:AS {asn: $asn}) RETURN a.asn`, map[string]Val{"asn": ScalarVal(graph.Int(64001))})
	if !param.IndexOnly {
		t.Error("parameterized indexed lookup not flagged IndexOnly")
	}
	if param.Cost > 2*point.Cost+1 {
		t.Errorf("parameterized lookup cost %.1f far above literal %.1f", param.Cost, point.Cost)
	}

	analytics := est(`CALL algo.pagerank() YIELD node, score RETURN score LIMIT 5`, nil)
	if !analytics.Analytics {
		t.Error("CALL algo.* not flagged Analytics")
	}
	if analytics.IndexOnly {
		t.Error("analytics wrongly flagged IndexOnly")
	}
	if floor := float64(g.NumNodes() + g.NumRels()); analytics.Cost < floor {
		t.Errorf("analytics cost %.1f below one graph pass %.1f", analytics.Cost, floor)
	}

	introspect := est(`CALL db.procedures() YIELD name RETURN name`, nil)
	if introspect.Analytics {
		t.Error("db.procedures wrongly flagged Analytics")
	}
}

// TestEstimateVarLenAndUnion covers the estimator paths with non-linear
// growth: variable-length expansion must grow the estimate with the hop
// bound but stay clamped, and UNION must sum its branches.
func TestEstimateVarLenAndUnion(t *testing.T) {
	g := buildWideIYP(t, 400)
	est := func(text string) QueryEstimate {
		t.Helper()
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		return EstimateQuery(g, q, nil)
	}
	one := est(`MATCH (a:AS)-[:PEERS_WITH]->(b:AS) RETURN a.asn`)
	varlen := est(`MATCH (a:AS)-[:PEERS_WITH*1..4]->(b:AS) RETURN a.asn`)
	if varlen.Cost < one.Cost {
		t.Errorf("var-len cost %.1f below single-hop %.1f", varlen.Cost, one.Cost)
	}
	huge := est(`MATCH (a:AS)-[*1..100]->(b) RETURN a.asn`)
	if math.IsInf(huge.Cost, 0) || math.IsNaN(huge.Cost) || huge.Cost > 2e15 {
		t.Errorf("unbounded var-len cost not clamped: %v", huge.Cost)
	}

	branch := est(`MATCH (a:AS) RETURN a.asn AS asn`)
	union := est(`MATCH (a:AS) RETURN a.asn AS asn UNION MATCH (a:AS) RETURN a.asn AS asn`)
	if union.Cost < 1.5*branch.Cost {
		t.Errorf("union cost %.1f does not accumulate branches (one branch %.1f)", union.Cost, branch.Cost)
	}
}

// FuzzEstimate feeds arbitrary query text through parse + estimate: any
// query the parser accepts must estimate without panicking and produce
// finite non-negative numbers, no matter how pathological the shape.
func FuzzEstimate(f *testing.F) {
	for _, tc := range identityQueries {
		f.Add(tc.q)
	}
	f.Add(`MATCH (a)-[*]->(b) RETURN *`)
	f.Add(`UNWIND [1,2,3] AS x MATCH (n) WHERE n.i = x RETURN count(*)`)
	f.Add(`CALL algo.pagerank({damping: 0.85}) YIELD node, score RETURN score`)
	f.Add(`MATCH p = shortestPath((a)-[*..15]-(b)) WHERE a <> b RETURN length(p) LIMIT 1`)
	f.Add(`RETURN 1 UNION RETURN 2 UNION RETURN 3`)
	g := buildWideIYP(f, 50)
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			t.Skip()
		}
		est := EstimateQuery(g, q, nil)
		if math.IsNaN(est.Rows) || math.IsInf(est.Rows, 0) || est.Rows < 0 {
			t.Fatalf("Rows = %v for %q", est.Rows, text)
		}
		if math.IsNaN(est.Cost) || math.IsInf(est.Cost, 0) || est.Cost < 0 {
			t.Fatalf("Cost = %v for %q", est.Cost, text)
		}
	})
}
