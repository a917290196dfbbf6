package cypher

import (
	"context"
	"fmt"
	"testing"
)

// Benchmarks for the morsel-parallel MATCH engine and the pooled BFS
// scratch. The repository benchmark (benchmark/, analytics_scan) measures
// these shapes end to end; these go-test benchmarks are the fine-grained
// view:
//
//	go test ./internal/cypher -bench 'Parallel|ShortestPathAlloc' -benchmem

// BenchmarkParallelMatch measures one of the paper's query shapes (RPKI
// tag coverage: a 2-hop expansion from every AS) across worker budgets.
// The result tables are byte-identical at every setting; only latency
// should move.
func BenchmarkParallelMatch(b *testing.B) {
	g := buildWideIYP(b, 3000)
	q, err := Parse(`MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag)
		WHERE t.label = "RPKI Valid" RETURN a.asn, p.prefix`)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				res, err := Exec(context.Background(), g, q, ExecOptions{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkParallelVarLength stresses skewed morsels: variable-length
// peering expansion where some anchors fan out much further than others.
func BenchmarkParallelVarLength(b *testing.B) {
	g := buildWideIYP(b, 1500)
	q, err := Parse(`MATCH (a:AS)-[:PEERS_WITH*1..2]->(b:AS) RETURN count(*)`)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Exec(context.Background(), g, q, ExecOptions{Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShortestPathAlloc tracks the pooled BFS scratch (visited and
// parent maps, queue) in solveShortest: repeated shortestPath calls on one
// matcher must reuse the maps rather than reallocating per call.
func BenchmarkShortestPathAlloc(b *testing.B) {
	g := buildWideIYP(b, 800)
	q, err := Parse(`MATCH (seed:AS) WITH seed LIMIT 50
		MATCH p = shortestPath((seed)-[:PEERS_WITH*..5]-(b:AS {asn: 64799}))
		RETURN length(p)`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(context.Background(), g, q, ExecOptions{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
