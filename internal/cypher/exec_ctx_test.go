package cypher

import (
	"context"
	"errors"
	"testing"
	"time"

	"iyp/internal/graph"
)

// ctxTestGraph builds n AS nodes in a peering ring with one originated
// prefix each — enough structure for cartesian-product and traversal
// queries to get expensive at will.
func ctxTestGraph(n int) *graph.Graph {
	g := graph.New()
	ases := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ases[i] = g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(1000 + i))})
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("p")})
		_, _ = g.AddRel("ORIGINATE", ases[i], p, nil)
	}
	for i := 0; i < n; i++ {
		_, _ = g.AddRel("PEERS_WITH", ases[i], ases[(i+1)%n], nil)
	}
	return g
}

func TestExecPreCancelled(t *testing.T) {
	g := ctxTestGraph(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Exec(ctx, g, mustParse(t, "MATCH (a:AS) RETURN a.asn"), ExecOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecDeadlineStopsPathologicalQuery(t *testing.T) {
	// A four-way cartesian product over 300 ASes is ~8.1e9 candidate
	// rows: effectively unbounded work. The 1ms deadline must surface as
	// a context error in well under 100ms.
	g := ctxTestGraph(300)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := Exec(ctx, g, mustParse(t, "MATCH (a:AS), (b:AS), (c:AS), (d:AS) RETURN count(*)"), ExecOptions{})
	took := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > 100*time.Millisecond {
		t.Errorf("query took %v after a 1ms deadline; cancellation not cooperative enough", took)
	}
}

func TestExecDeadlineStopsVarLenTraversal(t *testing.T) {
	g := ctxTestGraph(400)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := Exec(ctx, g, mustParse(t, "MATCH (a:AS)-[:PEERS_WITH*1..12]-(b:AS) RETURN count(*)"), ExecOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(t0); took > 100*time.Millisecond {
		t.Errorf("var-len traversal took %v after a 1ms deadline", took)
	}
}

func TestExecDeadlineStopsAggregation(t *testing.T) {
	// The match itself is cheap per row; the deadline has to fire inside
	// the aggregation loop as well.
	g := ctxTestGraph(600)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := Exec(ctx, g, mustParse(t, "MATCH (a:AS), (b:AS) RETURN a.asn, count(b) ORDER BY a.asn"), ExecOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExecMaxRowsTruncates(t *testing.T) {
	g := ctxTestGraph(50)
	q, err := Parse("MATCH (a:AS) RETURN a.asn AS asn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), g, q, ExecOptions{MaxRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Errorf("rows = %d, want 7", res.Len())
	}
	if !res.Truncated {
		t.Error("Truncated flag not set")
	}
	// Under the budget: full result, no flag.
	res, err = Exec(context.Background(), g, q, ExecOptions{MaxRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 50 || res.Truncated {
		t.Errorf("rows = %d truncated = %v, want 50/false", res.Len(), res.Truncated)
	}
}

func TestExecMaxRowsExplicitLimitIsNotTruncation(t *testing.T) {
	g := ctxTestGraph(50)
	q, err := Parse("MATCH (a:AS) RETURN a.asn AS asn LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), g, q, ExecOptions{MaxRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 || res.Truncated {
		t.Errorf("rows = %d truncated = %v, want 5/false (LIMIT inside budget)", res.Len(), res.Truncated)
	}
}

func TestExecMaxRowsStopsEnumerationEarly(t *testing.T) {
	// The cartesian product has ~6.4e7 total rows; with a 10-row budget
	// and an eligible RETURN the matcher must stop after 11 matches, so
	// this returns promptly rather than materializing the product.
	g := ctxTestGraph(400)
	q, err := Parse("MATCH (a:AS), (b:AS) RETURN a.asn AS x, b.asn AS y")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := Exec(context.Background(), g, q, ExecOptions{MaxRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("budgeted query took %v; early-stop pushdown not effective", took)
	}
	if res.Len() != 10 || !res.Truncated {
		t.Errorf("rows = %d truncated = %v, want 10/true", res.Len(), res.Truncated)
	}
}

func TestExecMaxRowsWithAggregationTrimsAfter(t *testing.T) {
	g := ctxTestGraph(50)
	q, err := Parse("MATCH (a:AS) RETURN a.asn AS asn, count(*) AS n ORDER BY asn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), g, q, ExecOptions{MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 || !res.Truncated {
		t.Fatalf("rows = %d truncated = %v, want 3/true", res.Len(), res.Truncated)
	}
	// ORDER BY must still see every group: the kept rows are the 3
	// smallest ASNs.
	for i, want := range []int64{1000, 1001, 1002} {
		got, _ := res.Rows[i][0].AsInt()
		if got != want {
			t.Errorf("row %d asn = %d, want %d", i, got, want)
		}
	}
}

func TestLimitPushdownMatchesUnpushedResults(t *testing.T) {
	// LIMIT with no budget: pushdown must not change semantics — same
	// row count as the reference execution, and each row valid.
	g := ctxTestGraph(30)
	res, err := Run(g, "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN a.asn AS x SKIP 4 LIMIT 9", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 9 {
		t.Errorf("rows = %d, want 9", res.Len())
	}
	if res.Truncated {
		t.Error("plain LIMIT must not set Truncated")
	}
}

func TestExecMaxRowsAcrossUnion(t *testing.T) {
	g := ctxTestGraph(20)
	q, err := Parse("MATCH (a:AS) RETURN a.asn AS v UNION ALL MATCH (a:AS) RETURN a.asn AS v")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), g, q, ExecOptions{MaxRows: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 25 || !res.Truncated {
		t.Errorf("rows = %d truncated = %v, want 25/true", res.Len(), res.Truncated)
	}
}

func TestExecNilContextAndRunAgree(t *testing.T) {
	g := ctxTestGraph(5)
	// Exec tolerates a nil ctx (treated as Background).
	q, err := Parse("MATCH (a:AS) RETURN count(a) AS n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(nil, g, q, ExecOptions{}) //nolint:staticcheck // deliberate nil-ctx tolerance check
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.ScalarInt()
	if n != 5 {
		t.Errorf("n = %d", n)
	}
	// Run is Parse + Exec.
	res2, err := Run(g, "MATCH (a:AS) RETURN count(a) AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := res2.ScalarInt()
	if n2 != n {
		t.Errorf("Run = %d, Exec = %d", n2, n)
	}
}
