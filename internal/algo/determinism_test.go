package algo

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"iyp/internal/cypher"
)

// Every kernel promises bit-identical output at any parallelism. These
// tests run the whole engine — CSR compile, kernels, and the CALL
// procedures — at GOMAXPROCS 1 and 8 (and explicit worker counts) and
// assert the results are byte-for-byte equal. Run under -race they also
// exercise the lock-free claims for data races.

// TestKernelsWorkerCountInvariant compares each kernel's raw output at
// Workers=1 against Workers=8.
func TestKernelsWorkerCountInvariant(t *testing.T) {
	g := simGraph(t)
	v := NewView(g, ViewOptions{})
	ctx := context.Background()

	type run func(workers int) (any, error)
	kernels := map[string]run{
		"wcc": func(w int) (any, error) {
			comp, _, err := WCC(ctx, v, w)
			return comp, err
		},
		"degree": func(w int) (any, error) {
			st, err := Degrees(ctx, v, w)
			return st, err
		},
		"pagerank": func(w int) (any, error) {
			scores, _, err := PageRank(ctx, v, PageRankOptions{Workers: w})
			return scores, err
		},
	}
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			seq, err := k(1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := k(8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s output differs between 1 and 8 workers", name)
			}
		})
	}
}

// TestViewBuildDeterministic: the CSR arrays must be identical whether
// compiled by one goroutine or many.
func TestViewBuildDeterministic(t *testing.T) {
	g := simGraph(t)
	prev := runtime.GOMAXPROCS(1)
	seq := NewView(g, ViewOptions{})
	runtime.GOMAXPROCS(8)
	par := NewView(g, ViewOptions{})
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(seq.ids, par.ids) || !reflect.DeepEqual(seq.ext2int, par.ext2int) {
		t.Fatal("node numbering differs across GOMAXPROCS")
	}
	if !reflect.DeepEqual(seq.outOff, par.outOff) || !reflect.DeepEqual(seq.outTo, par.outTo) {
		t.Fatal("out-CSR differs across GOMAXPROCS")
	}
	if !reflect.DeepEqual(seq.inOff, par.inOff) || !reflect.DeepEqual(seq.inTo, par.inTo) {
		t.Fatal("in-CSR differs across GOMAXPROCS")
	}
}

// callQueries are the CALL statements whose row streams must be stable.
// The last two compose CALL with YIELD aliasing, WHERE and RETURN
// aggregation to cover the executor path end to end.
var callQueries = []string{
	`CALL algo.wcc()`,
	`CALL algo.scc()`,
	`CALL algo.pagerank({maxIters: 20})`,
	`CALL algo.degree()`,
	`CALL algo.wcc() YIELD node, component WHERE component = 1 RETURN count(node) AS n`,
	`CALL algo.pagerank() YIELD node AS n, score RETURN n, score ORDER BY score DESC LIMIT 25`,
}

// TestCallRowsGOMAXPROCSInvariant runs every CALL query at GOMAXPROCS 1
// and 8 and asserts identical rendered rows — the ordering guarantee the
// paginated HTTP API relies on.
func TestCallRowsGOMAXPROCSInvariant(t *testing.T) {
	g := simGraph(t)
	defer InvalidateViews(g)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	rowsAt := func(procs int, src string) string {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		// Fresh views each time so the CSR compile itself runs at this
		// parallelism too.
		InvalidateViews(g)
		q, err := cypher.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := cypher.Exec(context.Background(), g, q, cypher.ExecOptions{})
		if err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
		return renderRows(res)
	}
	for _, src := range callQueries {
		t.Run(src, func(t *testing.T) {
			seq := rowsAt(1, src)
			par := rowsAt(8, src)
			if seq != par {
				t.Fatalf("rows differ between GOMAXPROCS=1 and 8 for %q:\n--- 1:\n%.400s\n--- 8:\n%.400s", src, seq, par)
			}
			if seq == "" {
				t.Fatalf("query %q produced no rows", src)
			}
		})
	}
}

// renderRows serializes a result exactly: floats keep full bit precision
// so "equal" means identical, not merely close.
func renderRows(res *cypher.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			switch {
			case func() bool { _, ok := v.AsNode(); return ok }():
				id, _ := v.AsNode()
				fmt.Fprintf(&sb, "n%d", id)
			case func() bool { _, ok := v.AsInt(); return ok }():
				n, _ := v.AsInt()
				fmt.Fprintf(&sb, "%d", n)
			case func() bool { _, ok := v.AsFloat(); return ok }():
				f, _ := v.AsFloat()
				sb.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
			default:
				s, _ := v.AsString()
				sb.WriteString(s)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
