package cypher

import (
	"strings"
	"testing"

	"iyp/internal/graph"
)

func TestParseAsOfLiteral(t *testing.T) {
	q, err := Parse(`MATCH (n:AS) RETURN n.asn ORDER BY n.asn AS OF 3`)
	if err != nil {
		t.Fatal(err)
	}
	gen, ok, err := AsOfGeneration(q, ExecOptions{})
	if err != nil || !ok || gen != 3 {
		t.Fatalf("AsOfGeneration = (%d, %v, %v), want (3, true, nil)", gen, ok, err)
	}
}

func TestParseAsOfParam(t *testing.T) {
	q, err := Parse(`RETURN 1 AS one AS OF $gen`)
	if err != nil {
		t.Fatal(err)
	}
	gen, ok, err := AsOfGeneration(q, ExecOptions{ParamVals: map[string]Val{"gen": ScalarVal(graph.Int(7))}})
	if err != nil || !ok || gen != 7 {
		t.Fatalf("AsOfGeneration = (%d, %v, %v), want (7, true, nil)", gen, ok, err)
	}
	if _, _, err := AsOfGeneration(q, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound param: err = %v", err)
	}
	if _, _, err := AsOfGeneration(q, ExecOptions{ParamVals: map[string]Val{"gen": ScalarVal(graph.String("x"))}}); err == nil {
		t.Fatal("non-integer param accepted")
	}
}

func TestParseAsOfAbsent(t *testing.T) {
	q, err := Parse(`RETURN 1 AS one`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := AsOfGeneration(q, ExecOptions{}); ok || err != nil {
		t.Fatalf("query without AS OF: ok=%v err=%v", ok, err)
	}
}

// `AS` alone must keep working as the projection-alias keyword: the
// parser may only treat `AS OF` as the temporal suffix, never a column
// named `OF`... and an alias named `of` must still parse when it is not
// at the statement tail position.
func TestParseAsAliasNotConfusedWithAsOf(t *testing.T) {
	q, err := Parse(`MATCH (n:AS) RETURN n.asn AS asn AS OF 2`)
	if err != nil {
		t.Fatal(err)
	}
	if q.AsOf == nil {
		t.Fatal("trailing AS OF after an AS alias not captured")
	}
	gen, ok, err := AsOfGeneration(q, ExecOptions{})
	if err != nil || !ok || gen != 2 {
		t.Fatalf("AsOfGeneration = (%d, %v, %v)", gen, ok, err)
	}
}

func TestParseAsOfRejectsBadGeneration(t *testing.T) {
	for _, src := range []string{
		`RETURN 1 AS one AS OF 0`,
		`RETURN 1 AS one AS OF -2`,
		`RETURN 1 AS one AS OF "three"`,
	} {
		q, err := Parse(src)
		if err != nil {
			continue // rejecting at parse time is fine too
		}
		if _, _, err := AsOfGeneration(q, ExecOptions{}); err == nil {
			t.Errorf("%s: bad generation accepted", src)
		}
	}
}
