package cypher

import (
	"context"
	"strings"
	"testing"
	"unsafe"

	"iyp/internal/graph"
)

// evalScalar runs `RETURN <expr> AS v` on an empty graph and returns v.
func evalScalar(t *testing.T, expr string) Val {
	t.Helper()
	res := mustRun(t, graph.New(), "RETURN "+expr+" AS v", nil)
	if res.Len() != 1 {
		t.Fatalf("RETURN %s: %d rows", expr, res.Len())
	}
	v, _ := res.Get(0, "v")
	return v
}

func TestExprArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want Val
	}{
		{"1 + 2", ScalarVal(graph.Int(3))},
		{"7 - 2 * 3", ScalarVal(graph.Int(1))},
		{"7 / 2", ScalarVal(graph.Int(3))}, // integer division
		{"7.0 / 2", ScalarVal(graph.Float(3.5))},
		{"7 % 3", ScalarVal(graph.Int(1))},
		{"2 ^ 10", ScalarVal(graph.Float(1024))},
		{"-(3)", ScalarVal(graph.Int(-3))},
		{"1 + null", NullVal()},
		{"null * 2", NullVal()},
		{"'a' + 'b'", ScalarVal(graph.String("ab"))},
		{"[1,2] + [3]", ListVal([]Val{ScalarVal(graph.Int(1)), ScalarVal(graph.Int(2)), ScalarVal(graph.Int(3))})},
		{"[1] + 2", ListVal([]Val{ScalarVal(graph.Int(1)), ScalarVal(graph.Int(2))})},
	}
	for _, tc := range cases {
		if got := evalScalar(t, tc.expr); !got.Equal(tc.want) {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
	if _, err := Run(graph.New(), "RETURN 1/0 AS v", nil); err == nil {
		t.Error("division by zero should error")
	}
}

func TestExprThreeValuedLogic(t *testing.T) {
	cases := []struct {
		expr string
		want Val
	}{
		{"true AND null", NullVal()},
		{"false AND null", ScalarVal(graph.Bool(false))},
		{"true OR null", ScalarVal(graph.Bool(true))},
		{"false OR null", NullVal()},
		{"NOT null", NullVal()},
		{"null = null", NullVal()},
		{"null <> 1", NullVal()},
		{"null IS NULL", ScalarVal(graph.Bool(true))},
		{"null IS NOT NULL", ScalarVal(graph.Bool(false))},
		{"1 IS NULL", ScalarVal(graph.Bool(false))},
		{"true XOR null", NullVal()},
		{"true XOR false", ScalarVal(graph.Bool(true))},
		{"1 IN [1, 2]", ScalarVal(graph.Bool(true))},
		{"3 IN [1, 2]", ScalarVal(graph.Bool(false))},
		{"3 IN [1, null]", NullVal()},
		{"1 IN [1, null]", ScalarVal(graph.Bool(true))},
		{"null IN [1]", NullVal()},
	}
	for _, tc := range cases {
		if got := evalScalar(t, tc.expr); !got.Equal(tc.want) {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestExprComparisonsAndStrings(t *testing.T) {
	trueCases := []string{
		"1 < 2", "2 <= 2", "3 > 2", "3 >= 3", "1 <> 2", "1 = 1.0",
		"'abc' STARTS WITH 'ab'", "'abc' ENDS WITH 'bc'", "'abc' CONTAINS 'b'",
		"'a' < 'b'",
	}
	for _, c := range trueCases {
		if got := evalScalar(t, c); !got.Equal(ScalarVal(graph.Bool(true))) {
			t.Errorf("%s = %v, want true", c, got)
		}
	}
	if got := evalScalar(t, "'a' < 1"); !got.IsNull() {
		t.Errorf("cross-type comparison should be null, got %v", got)
	}
}

func TestExprCase(t *testing.T) {
	cases := []struct {
		expr string
		want Val
	}{
		{"CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END", ScalarVal(graph.String("y"))},
		{"CASE WHEN 1 > 2 THEN 'y' ELSE 'n' END", ScalarVal(graph.String("n"))},
		{"CASE WHEN 1 > 2 THEN 'y' END", NullVal()},
		{"CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'other' END", ScalarVal(graph.String("two"))},
		{"CASE 9 WHEN 1 THEN 'one' ELSE 'other' END", ScalarVal(graph.String("other"))},
	}
	for _, tc := range cases {
		if got := evalScalar(t, tc.expr); !got.Equal(tc.want) {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestExprFunctions(t *testing.T) {
	cases := []struct {
		expr string
		want Val
	}{
		{"coalesce(null, null, 3)", ScalarVal(graph.Int(3))},
		{"coalesce(null, null)", NullVal()},
		{"size('hello')", ScalarVal(graph.Int(5))},
		{"size([1,2,3])", ScalarVal(graph.Int(3))},
		{"head([7,8])", ScalarVal(graph.Int(7))},
		{"last([7,8])", ScalarVal(graph.Int(8))},
		{"head([])", NullVal()},
		{"reverse('abc')", ScalarVal(graph.String("cba"))},
		{"toUpper('aBc')", ScalarVal(graph.String("ABC"))},
		{"toLower('aBc')", ScalarVal(graph.String("abc"))},
		{"trim('  x ')", ScalarVal(graph.String("x"))},
		{"substring('hello', 1, 3)", ScalarVal(graph.String("ell"))},
		{"substring('hello', 3)", ScalarVal(graph.String("lo"))},
		{"replace('a-b-c', '-', '+')", ScalarVal(graph.String("a+b+c"))},
		{"left('hello', 2)", ScalarVal(graph.String("he"))},
		{"right('hello', 2)", ScalarVal(graph.String("lo"))},
		{"toInteger('42')", ScalarVal(graph.Int(42))},
		{"toInteger('4.9')", ScalarVal(graph.Int(4))},
		{"toInteger('zzz')", NullVal()},
		{"toFloat('2.5')", ScalarVal(graph.Float(2.5))},
		{"toString(42)", ScalarVal(graph.String("42"))},
		{"toBoolean('true')", ScalarVal(graph.Bool(true))},
		{"abs(-4)", ScalarVal(graph.Int(4))},
		{"abs(-4.5)", ScalarVal(graph.Float(4.5))},
		{"ceil(1.2)", ScalarVal(graph.Float(2))},
		{"floor(1.8)", ScalarVal(graph.Float(1))},
		{"round(1.5)", ScalarVal(graph.Float(2))},
		{"sqrt(9)", ScalarVal(graph.Float(3))},
		{"sign(-3)", ScalarVal(graph.Int(-1))},
		{"sign(0)", ScalarVal(graph.Int(0))},
		{"size(split('a,b,c', ','))", ScalarVal(graph.Int(3))},
		{"range(1, 3)[1]", ScalarVal(graph.Int(2))},
		{"size(range(0, 10, 2))", ScalarVal(graph.Int(6))},
		{"[1,2,3][-1]", ScalarVal(graph.Int(3))},
		{"[1,2,3][5]", NullVal()},
		{"size([1,2,3][1..])", ScalarVal(graph.Int(2))},
		{"size(tail([1,2,3]))", ScalarVal(graph.Int(2))},
		{"{a: 1, b: 'x'}.a", ScalarVal(graph.Int(1))},
		{"{a: 1}['a']", ScalarVal(graph.Int(1))},
		{"size(keys({a: 1, b: 2}))", ScalarVal(graph.Int(2))},
		{"size([x IN range(1,10) WHERE x % 2 = 0 | x * x])", ScalarVal(graph.Int(5))},
		{"[x IN [1,2,3] | x + 1][0]", ScalarVal(graph.Int(2))},
	}
	for _, tc := range cases {
		if got := evalScalar(t, tc.expr); !got.Equal(tc.want) {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
	if _, err := Run(graph.New(), "RETURN frobnicate(1) AS v", nil); err == nil {
		t.Error("unknown function should error")
	}
}

func TestEntityFunctions(t *testing.T) {
	g := buildTinyIYP(t)
	res := mustRun(t, g, `
MATCH (x:AS {asn: 2497})-[r:ORIGINATE]->(p:Prefix)
RETURN labels(x) AS ls, type(r) AS ty, id(x) AS idx, startNode(r) AS sn, endNode(r) AS en,
       properties(p) AS props, keys(p) AS ks`, nil)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	ls, _ := res.Get(0, "ls")
	if sc, _ := ls.Scalar(); sc.String() != `["AS"]` {
		t.Errorf("labels = %v", ls)
	}
	if ty, _ := res.Get(0, "ty"); ty.String() != "ORIGINATE" {
		t.Errorf("type = %v", ty)
	}
	sn, _ := res.Get(0, "sn")
	if _, ok := sn.AsNode(); !ok {
		t.Error("startNode not a node")
	}
	props, _ := res.Get(0, "props")
	m, ok := props.AsMap()
	if !ok || len(m) != 2 { // prefix + af
		t.Errorf("properties = %v", props)
	}
}

func TestAggregates(t *testing.T) {
	g := graph.New()
	for i := 1; i <= 5; i++ {
		g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(int64(i)), "grp": graph.String([]string{"a", "b"}[i%2])})
	}
	res := mustRun(t, g, `
MATCH (n:N)
RETURN count(*) AS cnt, sum(n.v) AS total, avg(n.v) AS mean, min(n.v) AS lo, max(n.v) AS hi,
       percentileCont(n.v, 0.5) AS med, stDev(n.v) AS sd`, nil)
	if v, _ := res.Get(0, "cnt"); mustInt(t, v) != 5 {
		t.Errorf("count = %v", v)
	}
	if v, _ := res.Get(0, "total"); mustInt(t, v) != 15 {
		t.Errorf("sum = %v", v)
	}
	if v, _ := res.Get(0, "mean"); func() float64 { f, _ := v.AsFloat(); return f }() != 3 {
		t.Errorf("avg = %v", v)
	}
	if v, _ := res.Get(0, "lo"); mustInt(t, v) != 1 {
		t.Errorf("min = %v", v)
	}
	if v, _ := res.Get(0, "hi"); mustInt(t, v) != 5 {
		t.Errorf("max = %v", v)
	}
	if v, _ := res.Get(0, "med"); func() float64 { f, _ := v.AsFloat(); return f }() != 3 {
		t.Errorf("percentileCont = %v", v)
	}
	sd, _ := res.Get(0, "sd")
	if f, _ := sd.AsFloat(); f < 1.5 || f > 1.6 { // stdev of 1..5 ≈ 1.5811
		t.Errorf("stDev = %v", sd)
	}
}

func TestGroupingByNonAggregateItems(t *testing.T) {
	g := graph.New()
	for i := 1; i <= 6; i++ {
		g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(int64(i)), "grp": graph.String([]string{"a", "b", "c"}[i%3])})
	}
	res := mustRun(t, g, `
MATCH (n:N)
RETURN n.grp AS grp, count(*) AS cnt, collect(n.v) AS vs
ORDER BY grp`, nil)
	if res.Len() != 3 {
		t.Fatalf("groups = %d", res.Len())
	}
	for i := 0; i < 3; i++ {
		cnt, _ := res.Get(i, "cnt")
		if mustInt(t, cnt) != 2 {
			t.Errorf("group %d count = %v", i, cnt)
		}
		vs, _ := res.Get(i, "vs")
		if l, ok := vs.AsList(); !ok || len(l) != 2 {
			t.Errorf("group %d collect = %v", i, vs)
		}
	}
}

func TestAggregateDistinctAndExpression(t *testing.T) {
	g := graph.New()
	for _, v := range []int64{1, 1, 2, 2, 3} {
		g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(v)})
	}
	res := mustRun(t, g, `
MATCH (n:N)
RETURN count(DISTINCT n.v) AS dv, toFloat(count(DISTINCT n.v)) / count(*) AS ratio`, nil)
	if v, _ := res.Get(0, "dv"); mustInt(t, v) != 3 {
		t.Errorf("count distinct = %v", v)
	}
	ratio, _ := res.Get(0, "ratio")
	if f, _ := ratio.AsFloat(); f != 0.6 {
		t.Errorf("agg expression = %v", ratio)
	}
}

// TestAggregateInsideListComprehension: an aggregate in a comprehension's
// source, filter or projection is folded per group like any other nested
// aggregate.
func TestAggregateInsideListComprehension(t *testing.T) {
	g := graph.New()
	for _, asn := range []int64{1, 2, 3} {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(asn)})
	}
	for _, c := range []struct {
		q    string
		want string
	}{
		{`MATCH (a:AS) WITH a ORDER BY a.asn RETURN [x IN collect(a.asn) | x + 1] AS l`, "[2, 3, 4]"},
		{`MATCH (a:AS) RETURN size([x IN collect(a.asn) WHERE x > 1]) AS l`, "2"},
		{`MATCH (a:AS) RETURN [x IN [1, 2, 3, 4] WHERE x > count(a)] AS l`, "[4]"},
		{`MATCH (a:AS) RETURN [x IN [10] | x + max(a.asn)] AS l`, "[13]"},
	} {
		res := mustRun(t, g, c.q, nil)
		if res.Len() != 1 {
			t.Fatalf("%s: %d rows", c.q, res.Len())
		}
		if v, _ := res.Get(0, "l"); v.String() != c.want {
			t.Errorf("%s = %s, want %s", c.q, v.String(), c.want)
		}
	}
}

func TestAggregateOverZeroRows(t *testing.T) {
	g := graph.New()
	res := mustRun(t, g, `MATCH (n:Nothing) RETURN count(n) AS n, collect(n.x) AS xs, sum(n.v) AS s`, nil)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 0 {
		t.Errorf("count over empty = %v", v)
	}
	if v, _ := res.Get(0, "s"); mustInt(t, v) != 0 {
		t.Errorf("sum over empty = %v", v)
	}
	// But grouped aggregation over zero rows yields zero rows.
	res = mustRun(t, g, `MATCH (n:Nothing) RETURN n.g AS g, count(*) AS c`, nil)
	if res.Len() != 0 {
		t.Errorf("grouped agg over empty = %d rows", res.Len())
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	g := graph.New()
	g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(1)})
	g.AddNode([]string{"N"}, nil) // v is null
	res := mustRun(t, g, `MATCH (n:N) RETURN count(n.v) AS c, count(*) AS all, collect(n.v) AS vs`, nil)
	if v, _ := res.Get(0, "c"); mustInt(t, v) != 1 {
		t.Errorf("count(prop) = %v, want 1", v)
	}
	if v, _ := res.Get(0, "all"); mustInt(t, v) != 2 {
		t.Errorf("count(*) = %v, want 2", v)
	}
	vs, _ := res.Get(0, "vs")
	if l, _ := vs.AsList(); len(l) != 1 {
		t.Errorf("collect skips nulls: %v", vs)
	}
}

func TestOrderByNullsLastAndDesc(t *testing.T) {
	g := graph.New()
	g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(2)})
	g.AddNode([]string{"N"}, nil)
	g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(1)})
	res := mustRun(t, g, `MATCH (n:N) RETURN n.v AS v ORDER BY v`, nil)
	if v, _ := res.Get(0, "v"); mustInt(t, v) != 1 {
		t.Errorf("first = %v", v)
	}
	if v, _ := res.Get(2, "v"); !v.IsNull() {
		t.Errorf("nulls should sort last, got %v", v)
	}
	// Neo4j treats null as the largest value: DESC puts it first.
	res = mustRun(t, g, `MATCH (n:N) RETURN n.v AS v ORDER BY v DESC`, nil)
	if v, _ := res.Get(0, "v"); !v.IsNull() {
		t.Errorf("desc first should be null, got %v", v)
	}
	if v, _ := res.Get(1, "v"); mustInt(t, v) != 2 {
		t.Errorf("desc second = %v", v)
	}
}

func TestOrderByUnprojectedVariable(t *testing.T) {
	g := graph.New()
	for i := 5; i >= 1; i-- {
		g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(int64(i)), "w": graph.Int(int64(-i))})
	}
	// ORDER BY references n.w which is not in the RETURN items.
	res := mustRun(t, g, `MATCH (n:N) RETURN n.v AS v ORDER BY n.w`, nil)
	if v, _ := res.Get(0, "v"); mustInt(t, v) != 5 {
		t.Errorf("order by unprojected: first = %v, want 5", v)
	}
}

func TestSkipLimit(t *testing.T) {
	g := graph.New()
	for i := 1; i <= 10; i++ {
		g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(int64(i))})
	}
	res := mustRun(t, g, `MATCH (n:N) RETURN n.v AS v ORDER BY v SKIP 3 LIMIT 4`, nil)
	vs, _ := res.Ints("v")
	if len(vs) != 4 || vs[0] != 4 || vs[3] != 7 {
		t.Errorf("skip/limit = %v", vs)
	}
	res = mustRun(t, g, `MATCH (n:N) RETURN n.v AS v SKIP 100`, nil)
	if res.Len() != 0 {
		t.Errorf("skip beyond end = %d rows", res.Len())
	}
	if _, err := Run(g, `MATCH (n:N) RETURN n.v LIMIT -1`, nil); err == nil {
		t.Error("negative limit should error")
	}
}

func TestOptionalMatch(t *testing.T) {
	g := buildTinyIYP(t)
	// AS 65001 has no NAME relationship.
	res := mustRun(t, g, `
MATCH (x:AS)
OPTIONAL MATCH (x)-[:NAME]-(n:Name)
RETURN x.asn AS asn, n.name AS name ORDER BY asn`, nil)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if name, _ := res.Get(0, "name"); name.IsNull() {
		t.Error("AS2497 should have a name")
	}
	if name, _ := res.Get(1, "name"); !name.IsNull() {
		t.Errorf("AS65001 name should be null, got %v", name)
	}
}

func TestUnwindAndWith(t *testing.T) {
	g := graph.New()
	res := mustRun(t, g, `
UNWIND [3, 1, 2] AS x
WITH x WHERE x > 1
RETURN x ORDER BY x`, nil)
	vs, _ := res.Ints("x")
	if len(vs) != 2 || vs[0] != 2 || vs[1] != 3 {
		t.Errorf("unwind/with = %v", vs)
	}
	// UNWIND null and empty list produce no rows.
	res = mustRun(t, g, `UNWIND [] AS x RETURN x`, nil)
	if res.Len() != 0 {
		t.Error("UNWIND [] should produce no rows")
	}
	res = mustRun(t, g, `UNWIND null AS x RETURN x`, nil)
	if res.Len() != 0 {
		t.Error("UNWIND null should produce no rows")
	}
}

func TestWithAggregationPipeline(t *testing.T) {
	g := buildTinyIYP(t)
	// Count prefixes per AS, then keep ASes with at least one prefix.
	res := mustRun(t, g, `
MATCH (x:AS)-[:ORIGINATE]->(p:Prefix)
WITH x, count(p) AS prefixes
WHERE prefixes >= 1
RETURN x.asn AS asn, prefixes ORDER BY asn`, nil)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestDistinctRows(t *testing.T) {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode([]string{"N"}, graph.Props{"v": graph.Int(int64(i % 2))})
	}
	res := mustRun(t, g, `MATCH (n:N) RETURN DISTINCT n.v AS v ORDER BY v`, nil)
	if res.Len() != 2 {
		t.Errorf("distinct rows = %d", res.Len())
	}
}

func TestExistsSubquery(t *testing.T) {
	g := buildTinyIYP(t)
	res := mustRun(t, g, `
MATCH (x:AS)
WHERE EXISTS { (x)-[:NAME]-(:Name) }
RETURN x.asn AS asn`, nil)
	asns, _ := res.Ints("asn")
	if len(asns) != 1 || asns[0] != 2497 {
		t.Errorf("exists filter = %v", asns)
	}
	res = mustRun(t, g, `
MATCH (x:AS)
RETURN x.asn AS asn, COUNT { (x)-[:ORIGINATE]->(:Prefix) } AS n ORDER BY asn`, nil)
	n0, _ := res.Get(0, "n")
	if mustInt(t, n0) != 1 {
		t.Errorf("count subquery = %v", n0)
	}
}

func TestVarLengthPaths(t *testing.T) {
	// Chain a -> b -> c -> d.
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddNode([]string{"N"}, graph.Props{"i": graph.Int(int64(i))}))
	}
	for i := 0; i < 3; i++ {
		mustRel(t, g, "NEXT", ids[i], ids[i+1], nil)
	}
	res := mustRun(t, g, `
MATCH (a:N {i: 0})-[:NEXT*1..2]->(b:N)
RETURN b.i AS i ORDER BY i`, nil)
	is, _ := res.Ints("i")
	if len(is) != 2 || is[0] != 1 || is[1] != 2 {
		t.Errorf("varlen 1..2 = %v", is)
	}
	res = mustRun(t, g, `MATCH (a:N {i: 0})-[:NEXT*]->(b:N) RETURN count(b) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 3 {
		t.Errorf("unbounded varlen = %v", v)
	}
	// Path variable + functions.
	res = mustRun(t, g, `
MATCH p = (a:N {i: 0})-[:NEXT*2]->(b:N)
RETURN length(p) AS len, size(nodes(p)) AS nn, size(relationships(p)) AS nr`, nil)
	if v, _ := res.Get(0, "len"); mustInt(t, v) != 2 {
		t.Errorf("length(p) = %v", v)
	}
	if v, _ := res.Get(0, "nn"); mustInt(t, v) != 3 {
		t.Errorf("nodes(p) = %v", v)
	}
}

func TestRelationshipUniquenessWithinPattern(t *testing.T) {
	// One rel a-b: the pattern (x)--(y)--(z) must not reuse it, so no
	// match of length 2 exists.
	g := graph.New()
	a := g.AddNode([]string{"N"}, nil)
	b := g.AddNode([]string{"N"}, nil)
	mustRel(t, g, "R", a, b, nil)
	res := mustRun(t, g, `MATCH (x:N)-[:R]-(y:N)-[:R]-(z:N) RETURN count(*) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 0 {
		t.Errorf("rel reused within pattern: %v", v)
	}
	// But across two MATCH clauses reuse is allowed.
	res = mustRun(t, g, `MATCH (x:N)-[:R]-(y:N) MATCH (y)-[:R]-(z:N) RETURN count(*) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 2 {
		t.Errorf("cross-clause reuse rows = %v, want 2", v)
	}
}

func TestMultiPathPatternSharedVars(t *testing.T) {
	g := buildTinyIYP(t)
	res := mustRun(t, g, `
MATCH (x:AS)-[:ORIGINATE]->(p:Prefix), (x)-[:NAME]-(n:Name)
RETURN x.asn AS asn, n.name AS name`, nil)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if v, _ := res.Get(0, "asn"); mustInt(t, v) != 2497 {
		t.Errorf("asn = %v", v)
	}
}

func TestWriteCreateSetDeleteFlow(t *testing.T) {
	g := graph.New()
	res := mustRun(t, g, `
CREATE (a:AS {asn: 1}), (b:AS {asn: 2})
CREATE (a)-[:PEERS_WITH {rel: 0}]->(b)
RETURN a.asn AS a, b.asn AS b`, nil)
	if res.NodesCreated != 2 || res.RelsCreated != 1 {
		t.Fatalf("created %d/%d", res.NodesCreated, res.RelsCreated)
	}
	// SET property and label.
	res = mustRun(t, g, `MATCH (a:AS {asn: 1}) SET a.name = 'one', a:Eyeball RETURN a.name AS n`, nil)
	if res.PropsSet != 1 {
		t.Errorf("props set = %d", res.PropsSet)
	}
	if v, _ := res.Get(0, "n"); v.String() != "one" {
		t.Errorf("set prop = %v", v)
	}
	if got := g.CountByLabel("Eyeball"); got != 1 {
		t.Errorf("label count = %d", got)
	}
	// SET += map.
	mustRun(t, g, `MATCH (a:AS {asn: 1}) SET a += {x: 1, y: 2}`, nil)
	if v := g.NodesByProp("AS", "asn", graph.Int(1)); len(v) == 1 {
		if !g.NodeProp(v[0], "y").Equal(graph.Int(2)) {
			t.Error("map merge failed")
		}
	}
	// DELETE with relationships requires DETACH.
	if _, err := Run(g, `MATCH (a:AS {asn: 1}) DELETE a`, nil); err == nil {
		t.Error("DELETE of connected node should fail")
	}
	mustRun(t, g, `MATCH (a:AS {asn: 1}) DETACH DELETE a`, nil)
	if got := g.CountByLabel("AS"); got != 1 {
		t.Errorf("AS count after delete = %d", got)
	}
}

func TestMergeRelationshipPattern(t *testing.T) {
	g := graph.New()
	mustRun(t, g, `CREATE (:AS {asn: 1}), (:AS {asn: 2})`, nil)
	// First merge creates the rel, second is a no-op.
	mustRun(t, g, `
MATCH (a:AS {asn: 1}), (b:AS {asn: 2})
MERGE (a)-[:PEERS_WITH]->(b)`, nil)
	mustRun(t, g, `
MATCH (a:AS {asn: 1}), (b:AS {asn: 2})
MERGE (a)-[:PEERS_WITH]->(b)`, nil)
	if g.NumRels() != 1 {
		t.Errorf("rels after double merge = %d, want 1", g.NumRels())
	}
}

func TestParametersOfAllKinds(t *testing.T) {
	g := buildTinyIYP(t)
	res := mustRun(t, g, `
MATCH (x:AS) WHERE x.asn IN $asns
RETURN count(x) AS n`, map[string]graph.Value{
		"asns": graph.List(graph.Int(2497), graph.Int(1)),
	})
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 1 {
		t.Errorf("list param = %v", v)
	}
	if _, err := Run(g, `RETURN $missing AS v`, nil); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestReturnStar(t *testing.T) {
	g := buildTinyIYP(t)
	res := mustRun(t, g, `MATCH (x:AS {asn: 2497})-[:NAME]-(n:Name) RETURN *`, nil)
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Columns[0] != "n" || res.Columns[1] != "x" {
		t.Errorf("star columns = %v (want sorted)", res.Columns)
	}
}

func TestDuplicateColumnRejected(t *testing.T) {
	g := graph.New()
	if _, err := Run(g, `RETURN 1 AS v, 2 AS v`, nil); err == nil {
		t.Error("duplicate column should error")
	}
}

func TestAnonymousNodesProduceCartesianRows(t *testing.T) {
	g := graph.New()
	g.AddNode([]string{"A"}, nil)
	g.AddNode([]string{"A"}, nil)
	g.AddNode([]string{"B"}, nil)
	res := mustRun(t, g, `MATCH (a:A), (b:B) RETURN count(*) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 2 {
		t.Errorf("cartesian count = %v", v)
	}
}

func TestResultHelpers(t *testing.T) {
	g := buildTinyIYP(t)
	res := mustRun(t, g, `MATCH (x:AS) RETURN x.asn AS asn, toString(x.asn) AS s ORDER BY asn`, nil)
	if res.Len() != 2 {
		t.Fatal("rows != 2")
	}
	asns, ok := res.Ints("asn")
	if !ok || len(asns) != 2 {
		t.Errorf("Ints = %v, %v", asns, ok)
	}
	ss, ok := res.Strings("s")
	if !ok || ss[0] != "2497" {
		t.Errorf("Strings = %v", ss)
	}
	if _, ok := res.Column("nope"); ok {
		t.Error("Column(nope) should miss")
	}
	table := res.Table(1)
	if !strings.Contains(table, "more rows") || !strings.Contains(table, "(2 rows)") {
		t.Errorf("Table output: %q", table)
	}
	count := mustRun(t, g, `MATCH (x:AS) RETURN count(x) AS n`, nil)
	if n, err := count.ScalarInt(); err != nil || n != 2 {
		t.Errorf("ScalarInt = %d, %v", n, err)
	}
	if _, err := res.ScalarInt(); err == nil {
		t.Error("ScalarInt on 2x2 should fail")
	}
	native := res.Native()
	if len(native) != 2 || native[0]["asn"] != int64(2497) {
		t.Errorf("Native = %v", native)
	}
}

func TestPropertyIndexAcceleratedMatch(t *testing.T) {
	g := graph.New()
	for i := 0; i < 1000; i++ {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(i))})
	}
	g.EnsureIndex("AS", "asn")
	res := mustRun(t, g, `MATCH (x:AS {asn: 77}) RETURN count(x) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 1 {
		t.Errorf("indexed lookup = %v", v)
	}
}

func TestExecQueryReuse(t *testing.T) {
	g := buildTinyIYP(t)
	q, err := Parse(`MATCH (x:AS {asn: $asn}) RETURN count(x) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range []int64{2497, 65001, 1} {
		res, err := Exec(context.Background(), g, q, ExecOptions{ParamVals: map[string]Val{"asn": ScalarVal(graph.Int(asn))}})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if asn == 1 {
			want = 0
		}
		if v, _ := res.Get(0, "n"); mustInt(t, v) != want {
			t.Errorf("asn %d: %v", asn, v)
		}
	}
}

func TestShortestPath(t *testing.T) {
	// Diamond with a long detour:
	//   a - b - d
	//   a - c - e - d
	g := graph.New()
	ids := map[string]graph.NodeID{}
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		ids[n] = g.AddNode([]string{"N"}, graph.Props{"name": graph.String(n)})
	}
	edge := func(x, y string) { mustRel(t, g, "L", ids[x], ids[y], nil) }
	edge("a", "b")
	edge("b", "d")
	edge("a", "c")
	edge("c", "e")
	edge("e", "d")

	res := mustRun(t, g, `
MATCH (a:N {name: 'a'}), (d:N {name: 'd'})
MATCH p = shortestPath((a)-[:L*..10]-(d))
RETURN length(p) AS len, [n IN nodes(p) | n.name] AS names`, nil)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if v, _ := res.Get(0, "len"); mustInt(t, v) != 2 {
		t.Errorf("shortest length = %v, want 2", v)
	}
	names, _ := res.Get(0, "names")
	if names.String() != "[a, b, d]" {
		t.Errorf("path = %v", names)
	}

	// One shortest path per endpoint pair when the far end is open.
	res = mustRun(t, g, `
MATCH (a:N {name: 'a'})
MATCH p = shortestPath((a)-[:L*1..10]-(x:N))
RETURN x.name AS name, length(p) AS len ORDER BY name`, nil)
	if res.Len() != 4 {
		t.Fatalf("open-ended shortest paths = %d, want 4", res.Len())
	}
	want := map[string]int64{"b": 1, "c": 1, "d": 2, "e": 2}
	for i := 0; i < res.Len(); i++ {
		nv, _ := res.Get(i, "name")
		lv, _ := res.Get(i, "len")
		name, _ := nv.AsString()
		if mustInt(t, lv) != want[name] {
			t.Errorf("distance to %s = %v, want %d", name, lv, want[name])
		}
	}

	// Unreachable endpoints yield no rows.
	g.AddNode([]string{"N"}, graph.Props{"name": graph.String("island")})
	res = mustRun(t, g, `
MATCH (a:N {name: 'a'}), (i:N {name: 'island'})
MATCH p = shortestPath((a)-[:L*..10]-(i))
RETURN p`, nil)
	if res.Len() != 0 {
		t.Errorf("unreachable shortest path rows = %d", res.Len())
	}

	// Max-hop bound prunes.
	res = mustRun(t, g, `
MATCH (a:N {name: 'a'}), (d:N {name: 'd'})
MATCH p = shortestPath((a)-[:L*..1]-(d))
RETURN p`, nil)
	if res.Len() != 0 {
		t.Errorf("over-bounded shortest path rows = %d", res.Len())
	}
}

func TestShortestPathDirected(t *testing.T) {
	// a -> b -> c with a reverse shortcut c -> a.
	g := graph.New()
	a := g.AddNode([]string{"N"}, graph.Props{"name": graph.String("a")})
	b := g.AddNode([]string{"N"}, graph.Props{"name": graph.String("b")})
	c := g.AddNode([]string{"N"}, graph.Props{"name": graph.String("c")})
	mustRel(t, g, "L", a, b, nil)
	mustRel(t, g, "L", b, c, nil)
	mustRel(t, g, "L", c, a, nil)
	res := mustRun(t, g, `
MATCH (a:N {name: 'a'}), (c:N {name: 'c'})
MATCH p = shortestPath((a)-[:L*..5]->(c))
RETURN length(p) AS len`, nil)
	if v, _ := res.Get(0, "len"); mustInt(t, v) != 2 {
		t.Errorf("directed shortest = %v, want 2 (must not use the reverse edge)", v)
	}
}

func TestRemoveClause(t *testing.T) {
	g := graph.New()
	g.AddNode([]string{"N"}, graph.Props{"a": graph.Int(1), "b": graph.Int(2)})
	mustRun(t, g, `MATCH (n:N) REMOVE n.a`, nil)
	res := mustRun(t, g, `MATCH (n:N) RETURN n.a AS a, n.b AS b`, nil)
	if v, _ := res.Get(0, "a"); !v.IsNull() {
		t.Errorf("a not removed: %v", v)
	}
	if v, _ := res.Get(0, "b"); mustInt(t, v) != 2 {
		t.Errorf("b damaged: %v", v)
	}
	if _, err := Run(g, `MATCH (n:N) REMOVE q.a`, nil); err == nil {
		t.Error("REMOVE of unbound variable should error")
	}
}

func TestExplain(t *testing.T) {
	g := buildTinyIYP(t)
	g.EnsureIndex("AS", "asn")
	out, err := Explain(g, `
MATCH (x:AS {asn: 2497})-[:ORIGINATE]->(p:Prefix)
MATCH (p)-[:CATEGORIZED]-(t:Tag)
RETURN t.label`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index lookup AS.asn") {
		t.Errorf("explain missed the index anchor:\n%s", out)
	}
	if !strings.Contains(out, "bound variable `p`") {
		t.Errorf("explain missed the bound anchor in the second clause:\n%s", out)
	}

	out, err = Explain(g, `MATCH (n) RETURN n`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "full node scan") {
		t.Errorf("explain missed the full scan:\n%s", out)
	}

	out, err = Explain(g, `MATCH p = shortestPath((a:AS {asn:2497})-[:ORIGINATE*..3]-(b:Prefix)) RETURN p`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shortestPath BFS") {
		t.Errorf("explain missed shortestPath:\n%s", out)
	}

	if _, err := Explain(g, `RETURN 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := Explain(g, `MATCH (`); err == nil {
		t.Error("Explain should surface parse errors")
	}
}

func TestUnion(t *testing.T) {
	g := buildTinyIYP(t)
	// UNION deduplicates; UNION ALL keeps duplicates.
	res := mustRun(t, g, `
MATCH (x:AS {asn: 2497}) RETURN x.asn AS asn
UNION
MATCH (x:AS) RETURN x.asn AS asn`, nil)
	if res.Len() != 2 {
		t.Errorf("UNION rows = %d, want 2 (deduplicated)", res.Len())
	}
	res = mustRun(t, g, `
MATCH (x:AS {asn: 2497}) RETURN x.asn AS asn
UNION ALL
MATCH (x:AS) RETURN x.asn AS asn`, nil)
	if res.Len() != 3 {
		t.Errorf("UNION ALL rows = %d, want 3", res.Len())
	}
	// Three-way chains work.
	res = mustRun(t, g, `
RETURN 1 AS v UNION RETURN 2 AS v UNION ALL RETURN 2 AS v`, nil)
	if res.Len() != 3 {
		t.Errorf("chained union rows = %d", res.Len())
	}
	// Mismatched columns are rejected.
	if _, err := Run(g, `RETURN 1 AS a UNION RETURN 2 AS b`, nil); err == nil {
		t.Error("UNION with different columns should error")
	}
	if _, err := Run(g, `RETURN 1 AS a, 2 AS b UNION RETURN 3 AS a`, nil); err == nil {
		t.Error("UNION with different arity should error")
	}
}

func TestPatternPredicateInWhere(t *testing.T) {
	g := buildTinyIYP(t)
	// Positive form: ASes that have a NAME relationship.
	res := mustRun(t, g, `
MATCH (x:AS)
WHERE (x)-[:NAME]-(:Name)
RETURN x.asn AS asn`, nil)
	asns, _ := res.Ints("asn")
	if len(asns) != 1 || asns[0] != 2497 {
		t.Errorf("pattern predicate = %v", asns)
	}
	// Negated form.
	res = mustRun(t, g, `
MATCH (x:AS)
WHERE NOT (x)-[:NAME]-(:Name)
RETURN x.asn AS asn`, nil)
	asns, _ = res.Ints("asn")
	if len(asns) != 1 || asns[0] != 65001 {
		t.Errorf("negated pattern predicate = %v", asns)
	}
	// Combined with a boolean operator and a directed hop.
	res = mustRun(t, g, `
MATCH (x:AS)
WHERE (x)-[:ORIGINATE]->(:Prefix) AND (x)-[:COUNTRY]-(:Country {country_code: 'JP'})
RETURN count(x) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 1 {
		t.Errorf("combined predicate = %v", v)
	}
	// Parenthesized plain expressions still work.
	res = mustRun(t, g, `MATCH (x:AS) WHERE (x.asn = 2497 OR x.asn = 65001) AND (x.asn > 0) RETURN count(x) AS n`, nil)
	if v, _ := res.Get(0, "n"); mustInt(t, v) != 2 {
		t.Errorf("parenthesized expr = %v", v)
	}
}

// TestDistinctKeysAreInjective feeds every deduplicating operator distinct
// values whose payloads contain the key encoding's own structure bytes, so
// that raw concatenation would give them one key. Each must keep them
// apart.
func TestDistinctKeysAreInjective(t *testing.T) {
	const pairs = `UNWIND [['a', 'b\u001eSsc'], ['a\u001eSsb', 'c']] AS p `
	cases := []struct {
		q      string
		params map[string]graph.Value
	}{
		{q: pairs + `RETURN DISTINCT p[0] AS x, p[1] AS y`},
		{q: pairs + `RETURN p[0] AS x, p[1] AS y, count(*) AS n`},
		{q: `RETURN 'a' AS x, 'b\u001eSsc' AS y UNION RETURN 'a\u001eSsb' AS x, 'c' AS y`},
		{q: `UNWIND [{k: 'v', x: 1}, {k: 'v\u001fx=Si1'}] AS m RETURN DISTINCT m`},
		{q: `UNWIND [{a: 'b=Si1'}, {` + "`a=Ssb`" + `: 1}] AS m RETURN DISTINCT m`},
		{q: `UNWIND [{a: {b: 1}, c: 2}, {a: {b: 1, c: 2}}] AS m RETURN DISTINCT m`},
		{q: `UNWIND [$a, $b] AS l RETURN DISTINCT l`,
			params: map[string]graph.Value{"a": graph.Strings("a\x1fsb"), "b": graph.Strings("a", "b")}},
	}
	for _, tc := range cases {
		if res := mustRun(t, graph.New(), tc.q, tc.params); res.Len() != 2 {
			t.Errorf("%s: %d rows, want 2", tc.q, res.Len())
		}
	}
	res := mustRun(t, graph.New(), `UNWIND [['a', 'b\u001fSsc'], ['a\u001fSsb', 'c']] AS p RETURN count(DISTINCT p) AS n`, nil)
	if n, _ := res.ScalarInt(); n != 2 {
		t.Errorf("count(DISTINCT p) = %d, want 2", n)
	}
}

// TestValIsCompact pins Val's size: every binding the matcher emits holds
// one, so list, map and path payloads stay behind the ext pointer.
func TestValIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Val{}); n > 88 {
		t.Errorf("unsafe.Sizeof(Val{}) = %d bytes, want <= 88", n)
	}
}
