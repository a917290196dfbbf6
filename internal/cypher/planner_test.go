package cypher

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iyp/internal/graph"
)

// serviceable returns the predicates EXPLAIN lists as index-serviceable
// for the query's first MATCH clause.
func serviceable(t *testing.T, g *graph.Graph, src string) map[string]bool {
	t.Helper()
	out, err := Explain(g, src)
	if err != nil {
		t.Fatalf("explain %q: %v", src, err)
	}
	got := map[string]bool{}
	const prefix = "  index-serviceable WHERE predicates: "
	for _, line := range strings.Split(out, "\n") {
		if list, ok := strings.CutPrefix(line, prefix); ok {
			for _, p := range strings.Split(list, ", ") {
				got[strings.TrimSuffix(p, " …")] = true
			}
			break
		}
	}
	return got
}

func TestPushdownCollection(t *testing.T) {
	// Equality conjuncts on pattern variables are collected from both
	// orientations and through nested ANDs; IN is collected; anything
	// referencing the clause's own pattern variables on the value side is
	// not.
	g := buildTinyIYP(t)
	got := serviceable(t, g,
		`MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)
		 WHERE a.asn = 64500 AND "x" = p.prefix AND p.af IN [4, 6] AND a.name = p.prefix
		 RETURN a`)
	for _, want := range []string{"a.asn =", "p.prefix =", "p.af IN"} {
		if !got[want] {
			t.Errorf("pushdown %s not collected (got %v)", want, got)
		}
	}
	if got["a.name ="] {
		t.Error("a.name = p.prefix references a pattern variable and must not be collected")
	}

	// OR poisons the whole disjunction: no conjunct under it is safe.
	if pds := serviceable(t, g, `MATCH (a:AS) WHERE a.asn = 1 OR a.asn = 2 RETURN a`); len(pds) != 0 {
		t.Errorf("OR must not produce pushdowns, got %v", pds)
	}

	// Variables bound before the clause (not in patVars) are resolvable.
	if pds := serviceable(t, g, `MATCH (a:AS) WHERE a.asn = $wanted RETURN a`); len(pds) != 1 {
		t.Errorf("parameter RHS must be collected, got %v", pds)
	}
}

// TestPushdownSemantics checks that index-seeded enumeration never changes
// results: the same query returns identical rows with and without the
// index that enables the pushdown.
func TestPushdownSemantics(t *testing.T) {
	build := func(index bool) *graph.Graph {
		g := graph.New()
		for i := 0; i < 300; i++ {
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(64000 + i))})
		}
		// One node without the property, one with a float value that is
		// integrally equal to an existing int asn.
		g.AddNode([]string{"AS"}, nil)
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Float(64007)})
		if index {
			g.EnsureIndex("AS", "asn")
		}
		return g
	}
	queries := []string{
		`MATCH (a:AS) WHERE a.asn = 64007 RETURN count(a)`,
		`MATCH (a:AS) WHERE a.asn IN [64001, 64007, 64299, 99999] RETURN a.asn ORDER BY a.asn`,
		`MATCH (a:AS) WHERE a.asn IN [64001, null, 64002] RETURN a.asn ORDER BY a.asn`,
		`MATCH (a:AS) WHERE a.asn = null RETURN count(a)`,
		`MATCH (a:AS) WHERE a.asn = 64003 AND a.asn <> 64004 RETURN a.asn`,
	}
	for _, q := range queries {
		plain := mustRun(t, build(false), q, nil)
		indexed := mustRun(t, build(true), q, nil)
		if resultKey(plain) != resultKey(indexed) {
			t.Errorf("query %q: indexed pushdown changed the result\nplain:   %s\nindexed: %s",
				q, resultKey(plain), resultKey(indexed))
		}
	}
}

// TestPushdownSubqueryPatternVars checks that a WHERE value naming a
// pattern variable only inside an EXISTS {} or COUNT {} subquery's pattern
// is not pushed into the anchor lookup: the variable is unbound when the
// anchor is enumerated, so the pushed value would be wrong.
func TestPushdownSubqueryPatternVars(t *testing.T) {
	g := graph.New()
	a := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2)})
	b := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(10)})
	x := g.AddNode([]string{"X"}, nil)
	if _, err := g.AddRel("R", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRel("S", b, x, nil); err != nil {
		t.Fatal(err)
	}
	g.EnsureIndex("AS", "asn")
	for _, tc := range []struct {
		q, want string
		push    bool // EXPLAIN lists an index-serviceable predicate
	}{
		{`MATCH (a:AS)-[:R]-(b:AS) WHERE a.asn = COUNT { (b)--() } RETURN a.asn, b.asn`, "[2 10]", false},
		{`MATCH (a:AS)-[:R]-(b:AS) WITH a, b WHERE a.asn = COUNT { (b)--() } RETURN a.asn, b.asn`, "[2 10]", false},
		{`MATCH (a:AS)-[:R]-(b:AS) WHERE a.asn = 2 AND EXISTS { (b)-[:S]-(:X) } RETURN a.asn, b.asn`, "[2 10]", true},
	} {
		res := mustRun(t, g, tc.q, nil)
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != tc.want {
			t.Errorf("%s: rows %v, want one row %s", tc.q, res.Rows, tc.want)
		}
		out, err := Explain(g, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out, "index-serviceable WHERE predicates: a.asn = …"); got != tc.push {
			t.Errorf("%s: EXPLAIN lists a.asn as index-serviceable: %v, want %v\n%s", tc.q, got, tc.push, out)
		}
	}
	if pds := serviceable(t, g, `MATCH (a:AS)-[:R]-(b:AS) WHERE a.asn = COUNT { (b)--() } RETURN a`); len(pds) != 0 {
		t.Errorf("a.asn = COUNT { (b)--() } must not be collected, got %v", pds)
	}
}

// TestPushdownExplain pins the EXPLAIN lines the planner emits for
// pushdown-seeded index access.
func TestPushdownExplain(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(i))})
	}
	g.EnsureIndex("AS", "asn")

	out, err := Explain(g, `MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) WHERE a.asn = 7 RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"index lookup AS.asn (WHERE pushdown =",
		"index-serviceable WHERE predicates: a.asn =",
		"morsel-parallel eligible",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}

	out, err = Explain(g, `MATCH (a:AS) WHERE a.asn IN [1, 2, 3] RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index lookup AS.asn (WHERE pushdown IN") {
		t.Errorf("EXPLAIN output missing IN pushdown line:\n%s", out)
	}

	// Serial-fallback reasons surface in EXPLAIN.
	out, err = Explain(g, `MATCH (a:AS) CREATE (b:Copy {asn: a.asn}) RETURN count(b)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "execution: serial — query contains write clauses") {
		t.Errorf("EXPLAIN output missing write-clause serial reason:\n%s", out)
	}
}

// TestPlannerAnchorsByCardinality checks that statistics move the anchor:
// with a selective index on one end of the pattern the planner starts
// there rather than at the syntactically first node.
func TestPlannerAnchorsByCardinality(t *testing.T) {
	g := graph.New()
	// Many prefixes, few tags; tag label+prop is indexed.
	tag := g.AddNode([]string{"Tag"}, graph.Props{"label": graph.String("RPKI Valid")})
	for i := 0; i < 50; i++ {
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("x")})
		mustRel(t, g, "CATEGORIZED", p, tag, nil)
	}
	g.EnsureIndex("Tag", "label")

	out, err := Explain(g, `MATCH (p:Prefix)-[:CATEGORIZED]->(t:Tag {label: "RPKI Valid"}) RETURN count(p)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "anchor at node 2 of 2") || !strings.Contains(out, "index lookup Tag.label") {
		t.Errorf("planner should anchor at the indexed Tag node:\n%s", out)
	}
}

// TestDriverPlansOncePerRow counts planner work behind testPlannerHook: the
// driver plans a path and enumerates its anchor's candidates exactly once
// per (clause, input row), whatever the worker budget — an indexed
// one-row lookup is one plan and one index probe, not a parallel attempt
// thrown away and repeated serially.
func TestDriverPlansOncePerRow(t *testing.T) {
	g := buildWideIYP(t, 400)
	var plans, enumerations atomic.Int64
	testPlannerHook = func(op string, _ PatternPath, _ pathPlan) {
		if op == "plan" {
			plans.Add(1)
		} else {
			enumerations.Add(1)
		}
	}
	defer func() { testPlannerHook = nil }()

	for _, tc := range []struct {
		q    string
		want int64
	}{
		{`MATCH (a:AS {asn: 64001})-[:COUNTRY]->(c:Country) RETURN c.country_code`, 1},
		{`MATCH (a:AS) WHERE a.asn = $asn RETURN a.asn`, 1},
		// One plan for the first clause, one per input row of the second.
		{`MATCH (a:AS) WHERE a.asn IN [64001, 64002, 64003] MATCH (a)-[:COUNTRY]->(c:Country) RETURN c.country_code`, 4},
	} {
		for _, workers := range []int{1, 4} {
			plans.Store(0)
			enumerations.Store(0)
			q, err := Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Exec(context.Background(), g, q, ExecOptions{
				Parallelism: workers,
				ParamVals:   map[string]Val{"asn": ScalarVal(graph.Int(64001))},
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			if plans.Load() != tc.want || enumerations.Load() != tc.want {
				t.Errorf("workers=%d %s:\nplanPath ran %d times and candidates were enumerated %d times, want %d each",
					workers, tc.q, plans.Load(), enumerations.Load(), tc.want)
			}
		}
	}
}

// planChoice is the part of a pathPlan EXPLAIN prints and the estimator
// costs: where the path is anchored and how the anchor's candidates are
// produced.
type planChoice struct {
	anchor int
	kind   accessKind
}

// recordPlans runs fn with testPlannerHook collecting every planPath
// decision, keyed by the pattern path it was made for (the address of the
// path's first node pattern: execution never copies the parsed tree).
func recordPlans(fn func()) map[*NodePattern][]planChoice {
	var mu sync.Mutex
	got := map[*NodePattern][]planChoice{}
	testPlannerHook = func(op string, path PatternPath, plan pathPlan) {
		if op != "plan" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		key := &path.Nodes[0]
		got[key] = append(got[key], planChoice{plan.anchor, plan.acc.kind})
	}
	defer func() { testPlannerHook = nil }()
	fn()
	return got
}

// printedChoices parses the "path N:" lines of EXPLAIN output back into
// plan choices. A shortestPath line does not print its anchor position
// (anchor -1).
func printedChoices(t *testing.T, out string) []planChoice {
	t.Helper()
	var choices []planChoice
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "path ") {
			continue
		}
		c := planChoice{anchor: -1}
		var access string
		if _, rest, ok := strings.Cut(line, "shortestPath BFS, "); ok {
			access = rest
		} else {
			var pathNo, of int
			if _, err := fmt.Sscanf(line, "path %d: anchor at node %d of %d", &pathNo, &c.anchor, &of); err != nil {
				t.Fatalf("unparseable EXPLAIN line %q: %v", line, err)
			}
			c.anchor-- // printed 1-based
			_, access, _ = strings.Cut(line, " — ")
		}
		switch {
		case strings.HasPrefix(access, "bound variable"):
			c.kind = accessBound
		case strings.HasPrefix(access, "index lookup"):
			c.kind = accessIndex
		case strings.HasPrefix(access, "label scan") && strings.Contains(access, "filtered on properties"):
			c.kind = accessPropScan
		case strings.HasPrefix(access, "label scan"):
			c.kind = accessLabelScan
		case strings.HasPrefix(access, "full node scan"):
			c.kind = accessFullScan
		default:
			t.Fatalf("EXPLAIN line %q names no known access", line)
		}
		choices = append(choices, c)
	}
	return choices
}

// TestExplainEstimateAndDriverAgree checks, for the twelve paper-shaped
// query forms, that the anchor position and access kind EXPLAIN prints for
// each pattern path are the ones the driver used on every input row when
// the query ran, and the ones EstimateQuery costed.
func TestExplainEstimateAndDriverAgree(t *testing.T) {
	g := buildWideIYP(t, 400)
	for _, tc := range identityQueries[:12] {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			// The pattern paths EXPLAIN prints, in its print order.
			var paths []*NodePattern
			for cur := q; cur != nil; cur = cur.Next {
				for _, cl := range cur.Clauses {
					if mc, ok := cl.(*MatchClause); ok {
						for _, p := range mc.Patterns {
							paths = append(paths, &p.Nodes[0])
						}
					}
				}
			}

			printed := printedChoices(t, ExplainQuery(g, q, nil))
			if len(printed) != len(paths) {
				t.Fatalf("EXPLAIN printed %d path lines for %d pattern paths", len(printed), len(paths))
			}
			driven := recordPlans(func() {
				opts := tc.opts
				opts.Parallelism = 4
				if _, err := Exec(context.Background(), g, q, opts); err != nil {
					t.Fatal(err)
				}
			})
			costed := recordPlans(func() { EstimateQuery(g, q, nil) })

			for i, key := range paths {
				want := printed[i]
				if len(driven[key]) == 0 {
					t.Errorf("path %d: the driver never planned it", i+1)
				}
				for _, got := range driven[key] {
					if got.kind != want.kind || (want.anchor >= 0 && got.anchor != want.anchor) {
						t.Errorf("path %d: EXPLAIN printed %+v, the driver used %+v", i+1, want, got)
						break
					}
				}
				if len(costed[key]) != 1 {
					t.Fatalf("path %d: the estimator planned it %d times, want once", i+1, len(costed[key]))
				}
				if got := costed[key][0]; got.kind != want.kind || (want.anchor >= 0 && got.anchor != want.anchor) {
					t.Errorf("path %d: EXPLAIN printed %+v, the estimator costed %+v", i+1, want, got)
				}
			}
		})
	}
}
