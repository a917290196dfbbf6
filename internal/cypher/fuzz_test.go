package cypher

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"iyp/internal/graph"
)

// TestParserNeverPanics feeds the parser mangled fragments of real
// queries and raw noise: every input must produce a value or an error,
// never a panic (the HTTP query endpoint is exposed to arbitrary input).
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) WHERE x.asn <> y.asn RETURN DISTINCT p.prefix`,
		`MATCH (a)-[r:R*1..3]->(b) RETURN a, collect(r) AS rs ORDER BY a.x SKIP 1 LIMIT 2`,
		`MERGE (a:AS {asn: 1}) ON CREATE SET a.x = 1 ON MATCH SET a.y = 2 RETURN a`,
		`UNWIND [1, 2, 3] AS v WITH v WHERE v > 1 RETURN CASE v WHEN 2 THEN 'two' ELSE 'many' END AS w`,
		`MATCH p = shortestPath((a)-[*..5]-(b)) RETURN nodes(p), length(p)`,
		`RETURN {a: [1, 'x', null], b: $param}['a'][0..2] AS v UNION ALL RETURN 1 AS v`,
		`CALL algo.pagerank({damping: 0.85, labels: ['AS']}) YIELD node AS n, score WHERE score > 0.1 RETURN n`,
		`MATCH (a:AS) CALL algo.wcc() YIELD node, component RETURN a, component ORDER BY component`,
		`CALL db.procedures() YIELD name, columns, help RETURN name`,
	}
	r := rand.New(rand.NewSource(31))
	mangle := func(s string) string {
		b := []byte(s)
		switch r.Intn(4) {
		case 0: // truncate
			if len(b) > 0 {
				b = b[:r.Intn(len(b))]
			}
		case 1: // delete a span
			if len(b) > 4 {
				i := r.Intn(len(b) - 3)
				b = append(b[:i], b[i+1+r.Intn(3):]...)
			}
		case 2: // flip random bytes
			for k := 0; k < 3 && len(b) > 0; k++ {
				b[r.Intn(len(b))] = byte(r.Intn(128))
			}
		case 3: // duplicate a span
			if len(b) > 4 {
				i := r.Intn(len(b) - 3)
				b = append(b[:i+3], b[i:]...)
			}
		}
		return string(b)
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("parser panicked: %v", p)
		}
	}()
	for i := 0; i < 5000; i++ {
		src := mangle(seeds[r.Intn(len(seeds))])
		_, _ = Parse(src) // must not panic
	}
	// Raw noise, including multi-byte runes and control characters.
	alphabet := "(){}[]<>-=:.,|*'\"`$ \n\tMATCHRETURNwherexyz0123456789é\x00\x7f"
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for j := 0; j < r.Intn(40); j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		_, _ = Parse(sb.String())
	}
}

// FuzzParseCall is the native fuzz target for the CALL ... YIELD grammar
// path (the CI analytics job runs it as a smoke test with -fuzztime).
// The parser must return a value or an error for every input, never
// panic, and a successful parse must survive plan-cache classification.
func FuzzParseCall(f *testing.F) {
	for _, seed := range []string{
		`CALL algo.wcc()`,
		`CALL algo.pagerank({damping: 0.85, maxIters: 50})`,
		`CALL algo.scc({labels: ['AS'], relTypes: ['PEERS_WITH']}) YIELD node, component`,
		`CALL algo.pagerank({epsilon: 1e-9}) YIELD node AS n, score WHERE score > 1.5 RETURN n, score`,
		`MATCH (a:AS) CALL algo.degree({labels: ['AS']}) YIELD direction, count RETURN a, direction, count`,
		`CALL db.procedures() YIELD name, columns, help RETURN name ORDER BY name`,
		`CALL x.y.z({a: {b: [null, 'q']}}) YIELD c AS d`,
		`CALL`,
		`CALL algo.wcc( YIELD`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		queryHasCall(q) // classification must not panic either
	})
}

// TestExecutorNeverPanicsOnValidParses executes every randomly mangled
// query that happens to parse; execution must error or succeed, never
// panic.
func TestExecutorNeverPanicsOnValidParses(t *testing.T) {
	g := buildTinyIYP(t)
	seeds := []string{
		`MATCH (x:AS) RETURN x.asn`,
		`MATCH (x:AS)-[:ORIGINATE]->(p) RETURN count(p) AS n`,
		`MATCH (t:Tag) WHERE t.label STARTS WITH 'RPKI' RETURN t.label ORDER BY t.label`,
		`UNWIND range(1, 5) AS v RETURN sum(v) AS s`,
	}
	r := rand.New(rand.NewSource(77))
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("executor panicked: %v", p)
		}
	}()
	for i := 0; i < 3000; i++ {
		src := seeds[r.Intn(len(seeds))]
		b := []byte(src)
		for k := 0; k < r.Intn(3); k++ {
			if len(b) > 0 {
				b[r.Intn(len(b))] = byte(' ' + r.Intn(90))
			}
		}
		q, err := Parse(string(b))
		if err != nil {
			continue
		}
		_, _ = Exec(context.Background(), g, q, ExecOptions{ParamVals: map[string]Val{"param": ScalarVal(graph.Int(1))}})
	}
}

// groupKey is one value's key as a string, for tests comparing results.
func (v Val) groupKey() string { return string(v.appendKey(nil)) }

// FuzzGroupKey checks that the DISTINCT / grouping key encoding is
// injective on the shapes whose payloads are raw bytes: two-column rows of
// strings, one-entry maps, and scalar lists of different lengths.
func FuzzGroupKey(f *testing.F) {
	f.Add("a", "b\x1eSsc", "a\x1eSsb", "c")
	f.Add("k", "v\x1fx=Si1", "k", "v")
	f.Add("a\x1fsb", "", "a", "b")
	f.Add("a=Ssb", "x", "a", "b=Ssx")
	f.Add("\x1d", "\x1d\x1e", "\x1d\x1d", "\x1e")
	f.Fuzz(func(t *testing.T, a, b, c, d string) {
		str := func(s string) Val { return ScalarVal(graph.String(s)) }
		row1 := string(appendRowKey(nil, []Val{str(a), str(b)}))
		row2 := string(appendRowKey(nil, []Val{str(c), str(d)}))
		if same := a == c && b == d; (row1 == row2) != same {
			t.Errorf("rows (%q, %q) and (%q, %q): keys equal = %v, want %v", a, b, c, d, row1 == row2, same)
		}
		m1 := MapVal(map[string]Val{a: str(b)}).groupKey()
		m2 := MapVal(map[string]Val{c: str(d)}).groupKey()
		if same := a == c && b == d; (m1 == m2) != same {
			t.Errorf("maps {%q: %q} and {%q: %q}: keys equal = %v, want %v", a, b, c, d, m1 == m2, same)
		}
		if l1, l2 := ScalarVal(graph.Strings(a)).groupKey(), ScalarVal(graph.Strings(c, d)).groupKey(); l1 == l2 {
			t.Errorf("lists [%q] and [%q, %q] share key %q", a, c, d, l1)
		}
	})
}
