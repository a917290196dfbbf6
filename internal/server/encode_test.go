package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"iyp/internal/cypher"
	"iyp/internal/graph"
)

// referenceBody is the /v1/query body as encoding/json renders it: queryResp
// holds the response object's fields in wire order, and the rows are
// res.Native(). Result.AppendJSON must produce exactly these bytes.
func referenceBody(res *cypher.Result, tookMS int64, gen uint64) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(queryResp{
		Columns: res.Columns, Rows: res.Native(), Count: res.Len(),
		Truncated: res.Truncated, TookMS: tookMS, Generation: gen,
	})
	return buf.Bytes(), err
}

// encodingGraph carries strings that need escaping in labels, types and
// properties of both nodes and relationships.
func encodingGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	a := g.AddNode([]string{"AS", "<Org&Co>"}, graph.Props{
		"asn": graph.Int(2497), "name": graph.String("IIJ \"<&>\"  "),
		"w": graph.Float(0.1), "tags": graph.List(graph.String("a"), graph.Int(1)),
	})
	p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("192.0.2.0/24")})
	if _, err := g.AddRel("ORIGINATE", a, p, graph.Props{"seen": graph.Float(1e21), "note": graph.String("ctl\x01")}); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestQueryResponseMatchesEncodingJSON pins the direct encoder to the bytes
// encoding/json wrote for the same response: escaping, number formats,
// key order, nested values and graph entities.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	g := encodingGraph(t)
	strs := []cypher.Val{}
	for _, s := range []string{"plain", "", "<b>&amp;</b>", `say "hi"`, `back\slash`,
		"ctl\x00\x01\x08\x0c\x1f\x7f\n\r\t", "  and  ", "bad\xff\xfe utf-8 \xc3", "Zürich 東京 🙂"} {
		strs = append(strs, cypher.ScalarVal(graph.String(s)))
	}
	ints := []cypher.Val{}
	for _, i := range []int64{0, -1, 42, math.MaxInt64, math.MinInt64} {
		ints = append(ints, cypher.ScalarVal(graph.Int(i)))
	}
	floats := []cypher.Val{}
	for _, f := range []float64{1e21, 1e20, 1e-7, 1e-6, math.Copysign(0, -1), 0.1, 2.5, 5e-324, math.MaxFloat64, -123456789.125} {
		floats = append(floats, cypher.ScalarVal(graph.Float(f)))
	}
	params := map[string]cypher.Val{
		"strs": cypher.ListVal(strs), "ints": cypher.ListVal(ints), "floats": cypher.ListVal(floats),
	}
	for _, tc := range []struct {
		name, q string
		maxRows int
	}{
		{"strings", `UNWIND $strs AS s RETURN s`, 0},
		{"ints", `UNWIND $ints AS i RETURN i`, 0},
		{"floats", `UNWIND $floats AS f RETURN f`, 0},
		{"bools_null", `RETURN true AS t, false AS f, null AS n`, 0},
		{"nested", `RETURN [1, 'a<', [2.5, null], {k: 'v', a: [true]}] AS l, {z: 1, a: {b: '&'}, m: $strs} AS m`, 0},
		{"entities", `MATCH p = (a:AS)-[r:ORIGINATE]->(x:Prefix) RETURN a, r, p, x.prefix AS prefix`, 0},
		{"column_names", "RETURN 1 AS z, 2 AS a, 3 AS `<b>`, 4 AS `q\"x`, 5 AS `Ä`, 6 AS A, 7 AS `a b`", 0},
		{"no_rows", `MATCH (n:Nope) RETURN n`, 0},
		{"truncated", `UNWIND range(1, 10) AS i RETURN i`, 3},
		{"call", `CALL db.procedures()`, 0},
		{"call_repeated_column", `CALL db.procedures() YIELD name AS x, help AS x`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := cypher.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cypher.Exec(context.Background(), g, q, cypher.ExecOptions{ParamVals: params, MaxRows: tc.maxRows})
			if err != nil {
				t.Fatal(err)
			}
			checkEncoding(t, res)
		})
	}
	// A result with no columns at all (a write summary).
	checkEncoding(t, &cypher.Result{})
}

func checkEncoding(t *testing.T, res *cypher.Result) {
	t.Helper()
	want, err := referenceBody(res, 17, 1<<40)
	if err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	got, err := res.AppendJSON([]byte("prefix"), 17, 1<<40)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if got := got[len("prefix"):]; !bytes.Equal(got, want) {
		t.Errorf("bytes differ from encoding/json\ngot:  %s\nwant: %s", got, want)
	}
}

// TestNonFiniteFloatIsQueryError: JSON has no NaN or infinity, so such a
// value answers 400 query_error naming the column and the value. Before
// the body was built ahead of the status, these answered 200 with an empty
// body.
func TestNonFiniteFloatIsQueryError(t *testing.T) {
	srv := newTestServer(testGraph())
	for _, tc := range []struct{ query, value string }{
		{"RETURN sqrt(-1.0) AS x", "NaN"},
		{"RETURN 1e308*10.0 AS x", "+Inf"},
		{"UNWIND [1.0, -1e308*10.0] AS x RETURN x", "-Inf"},
	} {
		body, _ := json.Marshal(map[string]string{"query": tc.query})
		w := post(t, srv, "/v1/query", string(body))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body %q; want 400", tc.query, w.Code, w.Body)
		}
		var er errResp
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: %v in %q", tc.query, err, w.Body)
		}
		if er.Code != "query_error" || !strings.Contains(er.Error, "`x`") || !strings.Contains(er.Error, tc.value) {
			t.Errorf("%s: error = %+v, want query_error naming `x` and %s", tc.query, er, tc.value)
		}
	}
}

// FuzzQueryResponse holds the direct encoder to encoding/json on tables
// built from fuzz bytes: any column names (repeats included), scalars of
// every kind, lists and maps. A table JSON cannot carry must fail on both.
func FuzzQueryResponse(f *testing.F) {
	f.Add([]byte("\x02\x01a\x01b\x00\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Add([]byte("\x03\x01k\x01k\x02<&\x04\x03hi\"\x05\x02\x03\x01x\x06\x01\x01z\x00"))
	f.Add([]byte("\x01\x00\x03\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res := fuzzTable(data)
		want, wantErr := referenceBody(res, 1, 2)
		got, err := res.AppendJSON(nil, 1, 2)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encode error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("bytes differ from encoding/json\ngot:  %q\nwant: %q", got, want)
		}
	})
}

// fuzzTable reads a result table off data: a column count, the names, a
// truncation flag, then row after row of values until data runs out.
func fuzzTable(data []byte) *cypher.Result {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	next := func() int {
		if b := take(1); len(b) == 1 {
			return int(b[0])
		}
		return 0
	}
	res := &cypher.Result{Columns: make([]string, next()%5)}
	for i := range res.Columns {
		res.Columns[i] = string(take(next() % 6))
	}
	res.Truncated = next()%2 == 1
	var val func(depth int) cypher.Val
	val = func(depth int) cypher.Val {
		switch k := next() % 7; {
		case k == 1:
			return cypher.ScalarVal(graph.Bool(next()%2 == 1))
		case k == 2:
			var b [8]byte
			copy(b[:], take(8))
			return cypher.ScalarVal(graph.Int(int64(binary.LittleEndian.Uint64(b[:]))))
		case k == 3:
			var b [8]byte
			copy(b[:], take(8))
			return cypher.ScalarVal(graph.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:]))))
		case k == 4:
			return cypher.ScalarVal(graph.String(string(take(next() % 12))))
		case k == 5 && depth < 3:
			l := make([]cypher.Val, next()%4)
			for i := range l {
				l[i] = val(depth + 1)
			}
			return cypher.ListVal(l)
		case k == 6 && depth < 3:
			m := map[string]cypher.Val{}
			for n := next() % 4; n > 0; n-- {
				m[string(take(next()%4))] = val(depth + 1)
			}
			return cypher.MapVal(m)
		}
		return cypher.NullVal()
	}
	for len(data) > 0 && len(res.Rows) < 32 {
		vals := make([]cypher.Val, len(res.Columns))
		for i := range vals {
			vals[i] = val(0)
		}
		res.Rows = append(res.Rows, vals)
		if len(vals) == 0 {
			next() // a table without columns still consumes its input
		}
	}
	return res
}
