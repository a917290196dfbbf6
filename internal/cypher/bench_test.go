package cypher

import (
	"context"
	"fmt"
	"testing"

	"iyp/internal/graph"
)

// Engine micro-benchmarks: parsing, matching, and aggregation in
// isolation (the repo-root bench_test.go benchmarks whole studies).

func benchGraph(b *testing.B, nASes, prefixesPer int) *graph.Graph {
	b.Helper()
	g := graph.New()
	g.EnsureIndex("AS", "asn")
	g.EnsureIndex("Prefix", "prefix")
	for i := 0; i < nASes; i++ {
		as := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(1000 + i))})
		for j := 0; j < prefixesPer; j++ {
			p := g.AddNode([]string{"Prefix"}, graph.Props{
				"prefix": graph.String(fmt.Sprintf("10.%d.%d.0/24", i%256, j%256)),
			})
			if _, err := g.AddRel("ORIGINATE", as, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	return g
}

func BenchmarkParseListing2(b *testing.B) {
	const src = `
MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
WHERE x.asn <> y.asn
RETURN DISTINCT p.prefix`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedPointLookup(b *testing.B) {
	g := benchGraph(b, 1000, 2)
	q, _ := Parse(`MATCH (x:AS {asn: 1500}) RETURN x.asn`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(context.Background(), g, q, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoHopExpand(b *testing.B) {
	g := benchGraph(b, 500, 4)
	q, _ := Parse(`MATCH (x:AS)-[:ORIGINATE]->(p:Prefix) RETURN count(*) AS n`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Exec(context.Background(), g, q, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := res.ScalarInt(); n != 2000 {
			b.Fatalf("n = %d", n)
		}
	}
}

func BenchmarkAggregateGroupBy(b *testing.B) {
	g := benchGraph(b, 500, 4)
	q, _ := Parse(`MATCH (x:AS)-[:ORIGINATE]->(p:Prefix) RETURN x.asn AS asn, count(p) AS n, collect(p.prefix) AS ps`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(context.Background(), g, q, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPathBFS(b *testing.B) {
	// A 1000-node peering chain with shortcuts.
	g := graph.New()
	g.EnsureIndex("N", "i")
	var ids []graph.NodeID
	for i := 0; i < 1000; i++ {
		ids = append(ids, g.AddNode([]string{"N"}, graph.Props{"i": graph.Int(int64(i))}))
	}
	for i := 0; i+1 < len(ids); i++ {
		_, _ = g.AddRel("L", ids[i], ids[i+1], nil)
	}
	for i := 0; i+10 < len(ids); i += 10 {
		_, _ = g.AddRel("L", ids[i], ids[i+10], nil)
	}
	q, _ := Parse(`
MATCH (a:N {i: 0}), (z:N {i: 999})
MATCH p = shortestPath((a)-[:L*..200]-(z))
RETURN length(p) AS len`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Exec(context.Background(), g, q, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := res.Rows[0][0].AsInt(); n != 108 { // 99 shortcut hops + 9 steps
			b.Fatalf("len = %d", n)
		}
	}
}

func BenchmarkVarLenExpand(b *testing.B) {
	g := benchGraph(b, 200, 2)
	// Chain the ASes so var-length has something to walk.
	ases := g.NodesByLabel("AS")
	for i := 0; i+1 < len(ases); i++ {
		_, _ = g.AddRel("PEERS_WITH", ases[i], ases[i+1], nil)
	}
	q, _ := Parse(`MATCH (a:AS {asn: 1000})-[:PEERS_WITH*1..4]->(b:AS) RETURN count(b) AS n`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(context.Background(), g, q, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
