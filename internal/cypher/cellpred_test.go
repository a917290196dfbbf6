package cypher

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"iyp/internal/graph"
)

// cellPredGraph holds a node per kind of stored cell under key v — ints,
// floats equal and unequal to them, strings, a bool, a list, and none —
// some with a second cell under w, joined by relationships whose own v
// cells cycle through the same kinds.
func cellPredGraph(t testing.TB) *graph.Graph {
	g := graph.New()
	cells := []graph.Value{
		graph.Int(3), graph.Int(-1), graph.Float(3), graph.Float(2.5), graph.String("abc"),
		graph.String("ab"), graph.Bool(true), graph.List(graph.Int(1), graph.String("abc")), graph.Null(),
	}
	var ids []graph.NodeID
	for i, c := range cells {
		props := graph.Props{}
		if !c.IsNull() {
			props["v"] = c
		}
		if i%2 == 0 {
			props["w"] = cells[(i+4)%len(cells)]
		}
		ids = append(ids, g.AddNode([]string{"N"}, props))
	}
	for i, from := range ids {
		for j, to := range ids {
			if (i+j)%3 == 0 {
				props := graph.Props{}
				if c := cells[(i+2*j)%len(cells)]; !c.IsNull() {
					props["v"] = c
				}
				mustRel(t, g, "R", from, to, props)
			}
		}
	}
	return g
}

// cellPredConjunct decodes a conjunct of a cell predicate's shape from
// data: a property of x or r compared by one of the compiled operators
// with a constant, a parameter or a property of y.
func cellPredConjunct(data []byte) string {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	left := []string{"x.v", "r.v", "x.w", "x.nokey"}[pick(4)]
	op := []string{"=", "<>", "<", "<=", ">", ">=", "STARTS WITH", "IN"}[pick(8)]
	right := []string{
		"3", "3.0", "2.5", "-1", "'abc'", "'ab'", "'not stored'", "true", "null",
		"[3, 'abc', null]", "[2.5, [1, 'abc']]", "[]", "$int", "$str", "$list", "$null",
		"y.v", "y.w", "y.nokey",
	}[pick(19)]
	return fmt.Sprintf("%s %s %s", left, op, right)
}

// FuzzCellPredicate compares every compiled cell predicate with the
// evaluator over every (x, r, y) binding of a graph holding each kind of
// cell: missing properties and keys, null constants, ints against floats,
// mismatched types and strings the dictionary lacks. A compiled conjunct
// holds exactly when the evaluator's is true, and a conjunct the
// evaluator can fail on is not compiled.
func FuzzCellPredicate(f *testing.F) {
	for left := byte(0); left < 4; left++ {
		for op := byte(0); op < 8; op++ {
			for _, right := range []byte{0, 1, 4, 6, 8, 9, 12, 14, 16, 18} {
				f.Add([]byte{left, op, right})
			}
		}
	}
	g := cellPredGraph(f)
	params := map[string]Val{
		"int":  ScalarVal(graph.Int(3)),
		"str":  ScalarVal(graph.String("ab")),
		"list": ListVal([]Val{ScalarVal(graph.Float(3)), NullVal(), NodeVal(1)}),
		"null": NullVal(),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		conj := cellPredConjunct(data)
		q, err := Parse("MATCH (x)-[r]->(y) WHERE " + conj + " RETURN 1")
		if err != nil {
			t.Fatalf("%s: %v", conj, err)
		}
		mc := q.Clauses[0].(*MatchClause)
		ec := &evalCtx{g: g, params: params}
		spec := newMatchSpec(ec, q, mc.Patterns, mc.Where, false)
		preds := slices.DeleteFunc(spec.preds, func(p cellPred) bool { return p.origin != fromWhere })
		if len(preds) == 0 {
			return
		}
		if len(preds) != 1 || spec.filter != nil {
			t.Fatalf("%s: compiled to %d predicates and a rest %v", conj, len(preds), spec.filter)
		}
		p := &preds[0]
		g.EachRel(func(rid graph.RelID) bool {
			from, to := g.RelEndpoints(rid)
			b := row{{"x", NodeVal(from)}, {"r", RelVal(rid)}, {"y", NodeVal(to)}}
			v, err := ec.eval(mc.Where, b)
			if err != nil {
				t.Fatalf("%s compiled, but the evaluator fails on %v: %v", conj, b, err)
			}
			want, null := truth(v)
			l, _ := p.l.side(b, cand{})
			got, ready, err := p.holds(ec, b, l)
			if err != nil || !ready || got != (want && !null) {
				t.Fatalf("%s on x=%v r=%v y=%v: compiled says %v (ready %v), the evaluator %v", conj,
					g.NodeProps(from), g.RelProps(rid), g.NodeProps(to), got, ready, v)
			}
			return true
		})
	})
}

// TestCellPredicatesKeepErrors checks that compiling a WHERE never hides
// an error the evaluator reports: row 300 divides by zero in one conjunct,
// and a comparison that is false or null on that row would fail it first
// if it were compiled. Such a WHERE stays whole at emit; one whose other
// conjuncts cannot fail compiles.
func TestCellPredicatesKeepErrors(t *testing.T) {
	g := graph.New()
	for i := 0; i < 400; i++ {
		d := int64(1)
		if i == 300 {
			d = 0
		}
		g.AddNode([]string{"N"}, graph.Props{"i": graph.Int(int64(i)), "d": graph.Int(d)})
	}
	for _, tc := range []struct {
		q        string
		compiled bool
		rows     int // -1: fails with the division by zero
	}{
		{`MATCH (n:N) WHERE 10 / n.d >= 0 AND n.i < 300 RETURN n.i`, false, -1},
		{`MATCH (n:N) WHERE n.nokey = 1 AND 10 / n.d >= 0 RETURN n.i`, false, -1},
		{`MATCH (n:N) WHERE n.i < 300 AND (n.d = 1 OR n.i IN [1, 2]) RETURN n.i`, true, 300},
	} {
		out, err := Explain(g, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out, "cell predicate"); got != tc.compiled {
			t.Errorf("%s: compiled %v, want %v:\n%s", tc.q, got, tc.compiled, out)
		}
		for _, par := range []int{1, 8} {
			res, err := execQ(t, g, tc.q, ExecOptions{Parallelism: par})
			switch {
			case tc.rows < 0 && (err == nil || !strings.Contains(err.Error(), "division by zero")):
				t.Errorf("%s at Parallelism %d: err = %v, want the division by zero", tc.q, par, err)
			case tc.rows >= 0 && (err != nil || res.Len() != tc.rows):
				t.Errorf("%s at Parallelism %d: err = %v, want %d rows", tc.q, par, err, tc.rows)
			}
		}
	}
}

// TestCellPredicateExplain pins where EXPLAIN says each compiled conjunct
// runs: the first position, in the order the plan binds them, at which
// all its variables are bound, and why one never holds.
func TestCellPredicateExplain(t *testing.T) {
	g := buildWideIYP(t, 400)
	g.EnsureIndex("Tag", "label")
	for _, tc := range []struct{ q, want string }{
		// Anchored at p, the plan binds y before x.
		{`MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) WHERE x.asn <> y.asn RETURN DISTINCT p.prefix`,
			"  cell predicate at node 1 of 3: x.asn <> y.asn\n"},
		{`MATCH (a:AS)-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(t:Tag) WHERE t.label = "RPKI Valid" RETURN a.asn, p.prefix`,
			"  cell predicate at node 3 of 3: t.label = \"RPKI Valid\"\n" +
				"  execution: morsel-parallel eligible (morsels of 64; serial below 128 anchor candidates)\n" +
				"  a single anchor candidate's first hop runs in morsels of 64 adjacency entries (from 128)\n"},
		{`MATCH (a:AS)-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(t:Tag) WHERE t.label = "Nope" RETURN a.asn`,
			"  cell predicate at node 3 of 3: t.label = \"Nope\" — never holds: unknown string \"Nope\"\n"},
		{`MATCH (a:AS)-[r:PEERS_WITH]->(b:AS) WHERE r.x >= 1 AND a.asn < 64010 AND (a.asn = 1 OR b.asn = $k) RETURN b.asn`,
			"  cell predicate at hop 1 of 1: r.x >= 1 — never holds: unknown property key `x`\n" +
				"  cell predicate at node 1 of 2: a.asn < 64010\n" +
				"  rest of WHERE evaluated at match emit\n"},
		{`MATCH (a:AS) WITH a MATCH (a)-[:PEERS_WITH]-(b:AS) WHERE b.asn > a.asn AND a.asn IN [64001, 64002] RETURN a.asn, b.asn`,
			"  cell predicate at node 2 of 2: b.asn > a.asn\n  cell predicate at node 1 of 2: a.asn IN [64001, 64002]\n"},
	} {
		out, err := Explain(g, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: EXPLAIN says\n%swant the lines\n%s", tc.q, out, tc.want)
		}
	}
}

// TestCellPredicatesMatchEmit runs WHERE clauses whose conjuncts compile
// into cell predicates, and the same clauses with one more conjunct that
// can fail (`0 + 0 = 0`), which keeps the whole WHERE at emit: the rows
// must be the same at one and eight workers, whether a predicate's
// variable is bound by the input row, a variable-length or shortest path,
// an OPTIONAL MATCH or an EXISTS subquery.
func TestCellPredicatesMatchEmit(t *testing.T) {
	g := buildWideIYP(t, 400)
	for _, q := range []string{
		`MATCH (a:AS) WITH a MATCH (a)-[:PEERS_WITH]-(b:AS) WHERE a.asn < 64050 AND b.asn > a.asn %s RETURN a.asn, b.asn`,
		`MATCH (x:AS)-[:PEERS_WITH]-(m:AS)-[:PEERS_WITH]-(y:AS) WHERE x.asn <> y.asn AND x.asn < 64020 %s RETURN DISTINCT y.asn`,
		`MATCH (a:AS)-[r:PEERS_WITH]->(b:AS) WHERE b.asn IN [64001, 64002, 64003] %s RETURN a.asn, b.asn`,
		`MATCH (a:AS) OPTIONAL MATCH (a)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag) WHERE t.label STARTS WITH "RPKI V" %s RETURN a.asn, p.prefix`,
		`MATCH (a:AS {asn: 64001})-[:PEERS_WITH*1..2]-(b:AS) WHERE b.asn >= 64100 %s RETURN b.asn`,
		`MATCH p = shortestPath((a:AS {asn: 64001})-[:PEERS_WITH*..4]-(b:AS)) WHERE b.asn < 64020 %s RETURN b.asn, length(p)`,
		`MATCH (a:AS) WHERE EXISTS { (a)-[:ORIGINATE]->(p:Prefix) WHERE p.af = 4 AND a.asn < 64300 %s } RETURN count(a)`,
	} {
		compiled, atEmit := fmt.Sprintf(q, ""), fmt.Sprintf(q, "AND 0 + 0 = 0")
		for _, par := range []int{1, 8} {
			want, err := execQ(t, g, atEmit, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", atEmit, err)
			}
			got, err := execQ(t, g, compiled, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", compiled, err)
			}
			if resultKey(got) != resultKey(want) {
				t.Errorf("%s at Parallelism %d: rows differ from the WHERE at emit\n%.300s\nwant\n%.300s", compiled, par, resultKey(got), resultKey(want))
			}
			if len(want.Rows) == 0 {
				t.Errorf("%s: no rows", atEmit)
			}
		}
	}
}

// TestStoredListEqualsList checks that a stored list equals a list literal
// or parameter holding the same elements, by every path that compares
// them: the evaluator (a WHERE kept at emit by `0 + 0 = 0`), a compiled
// WHERE, an inline property at the anchor and past it, labelled or not,
// and DISTINCT.
func TestStoredListEqualsList(t *testing.T) {
	g := graph.New()
	a := g.AddNode([]string{"A"}, graph.Props{"tags": graph.List(graph.Int(1), graph.Int(2))})
	mustRel(t, g, "R", a, g.AddNode([]string{"B"}, nil), nil)
	params := map[string]graph.Value{"l": graph.List(graph.Int(1), graph.Int(2))}
	for _, q := range []string{
		`MATCH (n:A) WHERE n.tags = [1, 2] RETURN count(*)`,
		`MATCH (n:A) WHERE n.tags = [1, 2] AND 0 + 0 = 0 RETURN count(*)`,
		`MATCH (n:A) WHERE n.tags IN [[1, 2]] RETURN count(*)`,
		`MATCH (n:A) WHERE n.tags IN [[1.0, 2]] AND 0 + 0 = 0 RETURN count(*)`,
		`MATCH (n:A) WHERE n.tags <> [1, 2] OR n.tags = $l RETURN count(*)`,
		`MATCH (n:A {tags: [1, 2]}) RETURN count(*)`,
		`MATCH (n {tags: [1, 2]}) RETURN count(*)`,
		`MATCH (n:A {tags: $l}) RETURN count(*)`,
		`MATCH (n {tags: $l}) RETURN count(*)`,
		`MATCH (b:B) WITH b MATCH (b)--(n:A {tags: [1, 2]}) RETURN count(*)`,
		`MATCH (n:A) UNWIND [n.tags, [1, 2], $l] AS v WITH DISTINCT v RETURN count(*)`,
	} {
		if n, err := mustRun(t, g, q, params).ScalarInt(); err != nil || n != 1 {
			t.Errorf("%s: %d (err %v), want 1", q, n, err)
		}
	}
}

// TestInlinePropertiesMatchWhere checks that an inline property `{v: c}`
// answers the rows, or the error, of `WHERE x.v = c` evaluated at emit, on
// a labelled node (a filtered label scan) and an unlabelled one, at the
// anchor and past it, and on a single relationship; for every right-hand
// side FuzzCellPredicate draws, list literals and a list parameter, a
// missing parameter, and an unknown key and string. Each case runs on a
// fresh graph, inline form first, so no earlier read has left anything in
// the dictionary.
func TestInlinePropertiesMatchWhere(t *testing.T) {
	params := map[string]Val{
		"int":   ScalarVal(graph.Int(3)),
		"str":   ScalarVal(graph.String("ab")),
		"list":  ListVal([]Val{ScalarVal(graph.Float(3)), NullVal(), NodeVal(1)}),
		"null":  NullVal(),
		"slist": ScalarVal(graph.List(graph.Int(1), graph.String("abc"))),
	}
	rights := []string{
		"3", "3.0", "2.5", "-1", "'abc'", "'ab'", "'not stored'", "true", "null",
		"[3, 'abc', null]", "[2.5, [1, 'abc']]", "[]", "$int", "$str", "$list", "$null",
		"y.v", "y.w", "y.nokey", "[1, 'abc']", "[1.0, 'abc']", "$slist", "$nope",
	}
	// Each form: the inline pattern and its WHERE twin, %[1]s the key and
	// %[2]s the value; y is bound by the input row.
	forms := []struct{ inline, where string }{
		{`MATCH (x:N {%[1]s: %[2]s})`, `MATCH (x:N) WHERE x.%[1]s = %[2]s`},
		{`MATCH (x {%[1]s: %[2]s})`, `MATCH (x) WHERE x.%[1]s = %[2]s`},
		{`MATCH (a:N) WITH a, y MATCH (a)-->(x:N {%[1]s: %[2]s})`, `MATCH (a:N) WITH a, y MATCH (a)-->(x:N) WHERE x.%[1]s = %[2]s`},
		{`MATCH (a:N) WITH a, y MATCH (a)<--(x {%[1]s: %[2]s})`, `MATCH (a:N) WITH a, y MATCH (a)<--(x) WHERE x.%[1]s = %[2]s`},
		{`MATCH (a)-[x:R {%[1]s: %[2]s}]->(b)`, `MATCH (a)-[x:R]->(b) WHERE x.%[1]s = %[2]s`},
	}
	matched := 0
	for _, f := range forms {
		for _, key := range []string{"v", "nokey"} {
			for _, right := range rights {
				inline := fmt.Sprintf("MATCH (y:N) WITH y "+f.inline+" RETURN y, x", key, right)
				where := fmt.Sprintf("MATCH (y:N) WITH y "+f.where+" AND 0 + 0 = 0 RETURN y, x", key, right)
				for _, par := range []int{1, 8} {
					g := cellPredGraph(t)
					got, err := execQ(t, g, inline, ExecOptions{ParamVals: params, Parallelism: par})
					want, wantErr := execQ(t, g, where, ExecOptions{ParamVals: params, Parallelism: par})
					switch {
					case wantErr != nil || err != nil:
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Errorf("%s at Parallelism %d: error %v, want %v", inline, par, err, wantErr)
						}
					case resultKey(got) != resultKey(want):
						t.Errorf("%s at Parallelism %d: %d rows, want the %d of %s", inline, par, got.Len(), want.Len(), where)
					case want.Len() > 0:
						matched++
					}
				}
			}
		}
	}
	if matched < 50 {
		t.Errorf("only %d cases matched any row", matched)
	}
}

// TestRelInlinePropertyRunsBeforeFarNode pins where a relationship's inline
// properties run: on each relationship before the node at its far end is
// bound, so a value that fails to evaluate is an error even when no far
// node matches (ORIGINATE never ends at an AS).
func TestRelInlinePropertyRunsBeforeFarNode(t *testing.T) {
	g := buildTinyIYP(t)
	_, err := Run(g, `MATCH (a:AS)-[r:ORIGINATE {reference_name: $nope}]->(p:AS) RETURN count(*)`, nil)
	if err == nil || !strings.Contains(err.Error(), "parameter $nope not provided") {
		t.Errorf("error %v, want the missing parameter", err)
	}
}
