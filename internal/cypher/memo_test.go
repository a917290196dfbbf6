package cypher

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iyp/internal/graph"
)

// chainGraph builds a seeded random graph for the DISTINCT oracle: n nodes
// labelled A or B, each with a unique property i, and R and S
// relationships whose endpoints skew toward low node indices, so many
// paths converge on the same nodes. A and B are indexed on i. n clears
// minParallelCandidates, so a label scan anchor runs on the worker pool.
func chainGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	n := 2*minParallelCandidates + r.Intn(minParallelCandidates)
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode([]string{[]string{"A", "B"}[r.Intn(2)]}, graph.Props{"i": graph.Int(int64(i))})
	}
	skewed := func() graph.NodeID { return nodes[r.Intn(n)*r.Intn(n)/n] }
	for k := 0; k < n+n/2; k++ {
		if _, err := g.AddRel([]string{"R", "S"}[r.Intn(2)], skewed(), nodes[r.Intn(n)], nil); err != nil {
			panic(err)
		}
	}
	g.EnsureIndex("A", "i")
	g.EnsureIndex("B", "i")
	return g
}

// chainQuery decodes a random 2–4-hop chain query from data (exhausted data
// reads as zeros) and returns it twice: with RETURN DISTINCT, which the
// memo may serve, and with a plain RETURN of the same columns. The chains
// mix typed, untyped, alternated, repeated and variable-length hops in
// every direction; a node variable may recur; a WHERE may compare an
// earlier variable with a later one; and a preceding MATCH may bind the
// first or the last node, which anchors the chain there, with the WHERE
// or the RETURN reading it, or a variable x the chain does not name,
// which the WHERE may compare with the chain's last variable.
func chainQuery(data []byte) (distinct, plain string) {
	pick := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	hops := 2 + pick(3)
	var sb strings.Builder
	xAt := -1     // the node a preceding MATCH binds
	free := false // a preceding MATCH binds an x the chain does not name
	switch pick(4) {
	case 1:
		xAt = 0
	case 2:
		xAt = hops
	case 3:
		free = true
	}
	if xAt >= 0 || free {
		// An x the chain does not name repeats the whole chain per row, so
		// few rows bind it.
		mod := 2 + pick(3)
		if free {
			mod *= 16
		}
		fmt.Fprintf(&sb, "MATCH (x:%s) WHERE x.i %% %d = 0 ", []string{"A", "B"}[pick(2)], mod)
	}
	vars := make([]string, hops+1)
	var named []string
	for k := range vars {
		switch v := pick(8); {
		case k == xAt:
			vars[k] = "x"
		case v == 0 && k < hops:
			continue
		case v == 1 && len(named) > 0:
			vars[k] = named[pick(len(named))]
			continue
		default:
			vars[k] = fmt.Sprintf("n%d", k)
		}
		named = append(named, vars[k])
	}
	// Most chains are R up to a random hop and S from there on (or the
	// reverse), the shape a memo point needs; a few hops stray from it.
	split, first := 1+pick(hops-1), pick(2)
	sb.WriteString("MATCH ")
	for k := 0; k <= hops; k++ {
		fmt.Fprintf(&sb, "(%s%s)", vars[k], []string{"", ":A", ":B"}[pick(3)])
		if k == hops {
			break
		}
		typ := []string{":R", ":S"}[(first+min(k/split, 1))%2]
		if v := pick(16); v < 3 {
			typ = []string{":R", ":S", "", ":R|S"}[v+pick(2)]
		}
		if pick(10) == 0 {
			typ += "*1..2"
		}
		fmt.Fprintf(&sb, []string{"-[%s]-", "-[%s]->", "<-[%s]-"}[pick(3)], typ)
	}
	// Under a preceding MATCH, half the WHERE clauses and RETURNs read
	// only the chain's own variables: one that reads x, which differs per
	// input row, leaves the memo no point.
	if xAt >= 0 && len(named) > 1 && pick(2) == 0 {
		named = slices.DeleteFunc(named, func(v string) bool { return v == "x" })
	}
	var conds []string
	switch pick(4) {
	case 1:
		conds = append(conds, fmt.Sprintf("%s.i <> %s.i", named[0], named[len(named)-1]))
	case 2:
		conds = append(conds, fmt.Sprintf("%s.i %% 2 = 0", named[pick(len(named))]))
	case 3:
		conds = append(conds, fmt.Sprintf("%s.i < %s.i", named[pick(len(named))], named[pick(len(named))]))
	}
	if free && pick(2) == 0 {
		conds = append(conds, fmt.Sprintf("x.i > %s.i", named[len(named)-1]))
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	cols := []string{named[len(named)-1] + ".i"}
	if pick(2) == 0 {
		cols[0] = named[len(named)-1]
	}
	if v := named[pick(len(named))]; pick(2) == 0 && v+".i" != cols[0] {
		cols = append(cols, v+".i")
	}
	ret := " RETURN " + strings.Join(cols, ", ")
	return sb.String() + strings.Replace(ret, "RETURN", "RETURN DISTINCT", 1), sb.String() + ret
}

// checkDistinctFirstOccurrence requires RETURN DISTINCT to return exactly
// the in-order, first-occurrence dedup of the plain RETURN's rows at
// Parallelism 1, 2 and 8. It reports whether EXPLAIN put a memo point on
// the DISTINCT query.
func checkDistinctFirstOccurrence(t *testing.T, g *graph.Graph, distinct, plain string) bool {
	t.Helper()
	pq, err := Parse(plain)
	if err != nil {
		t.Fatalf("%s: %v", plain, err)
	}
	all, err := Exec(context.Background(), g, pq, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: %v", plain, err)
	}
	want := &Result{Columns: all.Columns}
	seen := map[string]bool{}
	for _, vals := range all.Rows {
		if k := string(appendRowKey(nil, vals)); !seen[k] {
			seen[k] = true
			want.Rows = append(want.Rows, vals)
		}
	}
	dq, err := Parse(distinct)
	if err != nil {
		t.Fatalf("%s: %v", distinct, err)
	}
	for _, par := range []int{1, 2, 8} {
		got, err := Exec(context.Background(), g, dq, ExecOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("%s at Parallelism %d: %v", distinct, par, err)
		}
		if resultKey(got) != resultKey(want) {
			t.Fatalf("%s at Parallelism %d: %d rows, the first-occurrence dedup of the plain RETURN has %d\ngot:\n%.600s\nwant:\n%.600s",
				distinct, par, len(got.Rows), len(want.Rows), resultKey(got), resultKey(want))
		}
	}
	return strings.Contains(ExplainQuery(g, dq, nil), "DISTINCT memo at")
}

// TestDistinctMatchesFirstOccurrence checks the suffix-state memo against
// the query without DISTINCT, which runs no memo: on seeded random graphs
// and random chains, RETURN DISTINCT must return the plain RETURN's rows
// deduplicated in order of first occurrence, at every worker count.
func TestDistinctMatchesFirstOccurrence(t *testing.T) {
	const graphs, chains = 6, 40
	memoized := 0
	r := rand.New(rand.NewSource(1))
	for gs := int64(0); gs < graphs; gs++ {
		g := chainGraph(gs)
		for c := 0; c < chains; c++ {
			data := make([]byte, 48)
			r.Read(data)
			distinct, plain := chainQuery(data)
			if checkDistinctFirstOccurrence(t, g, distinct, plain) {
				memoized++
			}
		}
	}
	t.Logf("%d of %d chains have a memo point", memoized, graphs*chains)
	// The chains must exercise the memo, not only the shapes it refuses.
	if memoized < graphs*chains/8 {
		t.Fatalf("only %d of %d chains have a memo point", memoized, graphs*chains)
	}
}

// FuzzDistinctMatchesFirstOccurrence is TestDistinctMatchesFirstOccurrence
// over fuzz-chosen graphs and chains.
func FuzzDistinctMatchesFirstOccurrence(f *testing.F) {
	f.Add(int64(0), []byte{2, 1, 2, 2, 2, 0, 1, 2, 0, 0, 1, 0, 1, 1})
	f.Add(int64(1), []byte{1, 3, 3, 3, 2, 1, 2, 0, 0, 1, 2, 3, 0, 1, 0, 1})
	f.Add(int64(2), []byte{0, 2, 1, 2, 1, 0, 0, 1, 1, 0, 1, 3, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		distinct, plain := chainQuery(data)
		checkDistinctFirstOccurrence(t, chainGraph(seed%8), distinct, plain)
	})
}

// TestMemoStatesCapped checks the bound on a matcher's state set: it holds
// at most maxMemoStates keys, each once, and a state past the cap reports
// unexpanded at every visit, so it is searched again rather than skipped.
func TestMemoStatesCapped(t *testing.T) {
	m := &matcher{}
	pts := []bool{false, true}
	for id := graph.NodeID(0); id < maxMemoStates+10; id++ {
		if m.expanded(pts, 1, id) {
			t.Fatalf("node %d reported expanded at its first visit", id)
		}
	}
	if n := m.states.len(); n != maxMemoStates || m.states.stack != nil {
		t.Fatalf("state set holds %d keys and a stack of %d, want %d keys in the map alone", n, len(m.states.stack), maxMemoStates)
	}
	if !m.expanded(pts, 1, 0) {
		t.Fatal("a recorded state was not reported expanded")
	}
	if m.expanded(pts, 1, maxMemoStates) || m.expanded(pts, 1, maxMemoStates) {
		t.Fatal("a state past the cap was reported expanded")
	}
	if m.expanded(pts, -1, 0) || m.expanded(pts, 0, 0) {
		t.Fatal("a state at another position, or at no memo point, was reported expanded")
	}
}
