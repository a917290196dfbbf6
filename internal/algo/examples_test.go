package algo

import (
	"context"
	"testing"

	"iyp/internal/cypher"
)

// TestReadmeExamples executes the analytics examples printed in README.md
// against the simnet graph, so the documentation can't rot.
func TestReadmeExamples(t *testing.T) {
	g := simGraph(t)
	defer InvalidateViews(g)
	for _, src := range []string{
		`CALL algo.wcc() YIELD node, component RETURN component, count(node) AS size ORDER BY size DESC LIMIT 5`,
		`CALL algo.pagerank({labels: ['AS'], relTypes: ['PEERS_WITH'], damping: 0.85}) YIELD node, score RETURN node, score ORDER BY score DESC LIMIT 10`,
		`MATCH (:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:DEPENDS_ON]->(a:AS) RETURN a.asn AS asn, count(DISTINCT d) AS domains ORDER BY domains DESC LIMIT 10`,
		`CALL db.procedures()`,
	} {
		q, err := cypher.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := cypher.Exec(context.Background(), g, q, cypher.ExecOptions{})
		if err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%q returned no rows", src)
		}
	}
}
