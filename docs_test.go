package iyp_test

// Pins the EXPLAIN examples printed in README.md to the engine's real
// output: every plan line shown in the README must be produced verbatim
// by Explain on an equivalent graph, so the docs cannot drift from the
// planner.

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"iyp"
	"iyp/internal/core"
	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/replica"
	"iyp/internal/server"
	"iyp/internal/temporal"
)

func TestReadmeExplainExamples(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)

	g := graph.New()
	as1 := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2497)})
	pfx := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("192.0.2.0/24")})
	tag := g.AddNode([]string{"Tag"}, graph.Props{"label": graph.String("RPKI Valid")})
	if _, err := g.AddRel("ORIGINATE", as1, pfx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddRel("CATEGORIZED", pfx, tag, nil); err != nil {
		t.Fatal(err)
	}
	g.EnsureIndex("AS", "asn")
	db := iyp.Wrap(g)

	for _, q := range []string{
		`MATCH (a:AS)-[:ORIGINATE]->(p:Prefix)-[:CATEGORIZED]->(t:Tag) WHERE a.asn IN [2497, 65001] RETURN p.prefix, t.label`,
		`MATCH p = shortestPath((a:AS {asn: 2497})-[*..4]-(t:Tag)) RETURN length(p)`,
		`MATCH (a:AS {asn:$asn})-[:ORIGINATE]-(p:Prefix) RETURN p.prefix`,
		`MATCH (a:AS {asn: 2497})-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(t:Tag) RETURN DISTINCT t.label`,
	} {
		if !strings.Contains(doc, q) {
			t.Errorf("README.md does not show the EXPLAIN example query %q", q)
		}
		out, err := db.Explain(q, iyp.WithParams(map[string]iyp.Value{"asn": iyp.IntValue(2497)}))
		if err != nil {
			t.Fatalf("Explain(%q): %v", q, err)
		}
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			if !strings.Contains(doc, line) {
				t.Errorf("README.md does not contain the engine's EXPLAIN line %q\nfull output for %q:\n%s", line, q, out)
			}
		}
	}

	// The metric names documented in the README must match the exposition.
	for _, name := range []string{
		"iyp_match_parallel_total", "iyp_match_morsels_total",
		"iyp_match_workers_total", "iyp_match_serial_total{reason=",
	} {
		if !strings.Contains(doc, name) {
			t.Errorf("README.md does not mention metric %s", name)
		}
	}
}

// TestReadmeBenchmarkWorkloads pins the README's "Measuring" section to
// the benchmark's contract: every `benchmark/run.sh --workload X` line it
// shows must name a workload BENCHMARK.json declares (or `all`).
func TestReadmeBenchmarkWorkloads(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	known := map[string]bool{"all": true}
	for _, w := range spec.Workloads {
		known[w.Name] = true
	}
	named := 0
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "bash benchmark/run.sh") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields[:len(fields)-1] {
			if f != "--workload" {
				continue
			}
			named++
			if !known[fields[i+1]] {
				t.Errorf("README shows workload %q, which BENCHMARK.json does not declare: %s", fields[i+1], line)
			}
		}
	}
	if named == 0 {
		t.Error("README.md shows no `bash benchmark/run.sh --workload …` line")
	}
}

// TestDesignReplicaDictMetrics: the replica dictionary-reuse metrics
// documented in DESIGN.md must be the exposition's real names (metrics.go
// renders them).
func TestDesignReplicaDictMetrics(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"iyp_replica_dict_strings_total", "iyp_replica_dict_reused_total",
	} {
		if !strings.Contains(string(design), name) {
			t.Errorf("DESIGN.md does not mention metric %s", name)
		}
	}
}

// TestDesignExperimentIndex pins DESIGN.md's experiment index to the
// code: every exported name a row cites as pkg.Name must be declared in
// internal/pkg, and every benchmark it cites must exist at the root.
func TestDesignExperimentIndex(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(design), "\n## Experiment index")
	index, _, _ = strings.Cut(index, "\n## ")
	ref := regexp.MustCompile(`\b([a-z]+)\.([A-Z]\w*)`)
	bench := regexp.MustCompile("`(Benchmark\\w+)`")
	decls := make(map[string]map[string]bool) // directory → top-level names
	declared := func(dir string, tests bool) map[string]bool {
		if names, ok := decls[dir]; ok {
			return names
		}
		names := make(map[string]bool)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") != tests {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
		decls[dir] = names
		return names
	}
	rows := 0
	for _, line := range strings.Split(index, "\n") {
		if !strings.HasPrefix(line, "| E") {
			continue
		}
		rows++
		for _, m := range ref.FindAllStringSubmatch(line, -1) {
			dir := filepath.Join("internal", m[1])
			if _, err := os.Stat(dir); err != nil {
				t.Errorf("experiment index cites %s.%s: no package %s", m[1], m[2], dir)
			} else if !declared(dir, false)[m[2]] {
				t.Errorf("experiment index cites %s.%s: not declared in %s", m[1], m[2], dir)
			}
		}
		for _, m := range bench.FindAllStringSubmatch(line, -1) {
			if !declared(".", true)[m[1]] {
				t.Errorf("experiment index cites %s: no such benchmark", m[1])
			}
		}
	}
	if rows == 0 {
		t.Fatal("DESIGN.md has no experiment index rows")
	}
}

// TestReadmeTemporalExamples pins the temporal-subsystem docs the same
// way: the query surfaces the README and DESIGN.md advertise must parse
// and execute exactly as written.
func TestReadmeTemporalExamples(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme) + string(design)

	// The advertised surfaces must be mentioned in the docs.
	for _, want := range []string{
		"AS OF $gen",
		"/v1/diff?from=3&to=5",
		"-store snapshots/ -delta",
		"temporal.diff({from: 3, to: 5})",
		"iyp-report -diff",
		"kind, name, added, removed,",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs do not mention %q", want)
		}
	}

	// And they must be real: build a two-generation store and run the
	// README's temporal queries verbatim against it.
	mkGen := func(extraPrefix bool) *graph.Graph {
		g := graph.New()
		p := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("192.0.2.0/24")})
		tag := g.AddNode([]string{"Tag"}, graph.Props{"label": graph.String("RPKI Valid")})
		if _, err := g.AddRel("CATEGORIZED", p, tag, nil); err != nil {
			t.Fatal(err)
		}
		if extraPrefix {
			g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String("198.51.100.0/24")})
		}
		return g
	}
	g1, g2 := mkGen(false), mkGen(true)

	dir := t.TempDir()
	st, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(g1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(g2); err != nil {
		t.Fatal(err)
	}
	db, _, err := iyp.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The README's AS OF example, verbatim shape.
	ctx := context.Background()
	res, err := db.Query(ctx, `
MATCH (p:Prefix)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI'
RETURN count(*) AS n
AS OF $gen`, iyp.WithParams(map[string]iyp.Value{"gen": iyp.IntValue(1)}))
	if err != nil {
		t.Fatalf("README AS OF example does not run: %v", err)
	}
	if n, err := res.ScalarInt(); err != nil || n != 1 {
		t.Fatalf("AS OF example returned %d (%v), want 1", n, err)
	}

	// The documented CALL temporal.diff column list.
	res, err = db.Query(ctx, `CALL temporal.diff({from: 1, to: 2}) YIELD kind, name, added, removed, changed RETURN kind, name, added, removed, changed`)
	if err != nil {
		t.Fatalf("CALL temporal.diff example does not run: %v", err)
	}
	if got := strings.Join(res.Columns, ", "); got != "kind, name, added, removed, changed" {
		t.Fatalf("temporal.diff columns = %q", got)
	}
	if res.Len() == 0 {
		t.Fatal("temporal.diff returned no rows")
	}
}

// knobRule is why TestKnobCensus fails when a count grows.
const knobRule = "a new option needs two existing non-test callers that need different values; " +
	"with one value in use, make it a constant instead"

// TestKnobCensus pins how many settings each configuration surface has —
// the exported fields of the option structs and the flags each command
// defines — so an option cannot be added, or one removed, by accident.
// It also checks that every flag a README `go run ./cmd/<name>` example
// passes is one that command defines.
func TestKnobCensus(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{server.Config{}, 14},
		{cypher.ExecOptions{}, 5},
		{core.BuildOptions{}, 12},
		{ingest.Pipeline{}, 9},
		{iyp.Options{}, 11},
		{replica.Config{}, 8},
		{temporal.DiffOptions{}, 1},
	} {
		typ := reflect.TypeOf(c.v)
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n != c.want {
			t.Errorf("%s has %d exported fields, want %d: %s", typ, n, c.want, knobRule)
		}
	}

	want := map[string]int{"iyp-build": 15, "iyp-query": 6, "iyp-report": 9, "iyp-serve": 17}
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		names := cmdFlags(t, path)
		if len(names) != want[cmd] {
			t.Errorf("%s defines %d flags, want %d: %s", cmd, len(names), want[cmd], knobRule)
		}
		flags[cmd] = map[string]bool{}
		for _, name := range names {
			flags[cmd][name] = true
		}
	}
	for cmd := range want {
		if flags[cmd] == nil {
			t.Errorf("cmd/%s/main.go not found", cmd)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	goRun := regexp.MustCompile(`^go run \./cmd/([\w-]+)(.*)$`)
	quoted := regexp.MustCompile(`"[^"]*"|'[^']*'`)
	lines := strings.Split(string(readme), "\n")
	examples := 0
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + strings.TrimSpace(lines[i])
		}
		m := goRun.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		examples++
		defined, ok := flags[m[1]]
		if !ok {
			t.Errorf("README runs ./cmd/%s, which does not exist: %s", m[1], line)
			continue
		}
		args, _, _ := strings.Cut(quoted.ReplaceAllString(m[2], ""), "#")
		for _, f := range strings.Fields(args) {
			if !strings.HasPrefix(f, "-") {
				continue
			}
			if name, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "="); !defined[name] {
				t.Errorf("README passes %s to %s, which defines no such flag: %s", f, m[1], line)
			}
		}
	}
	if examples == 0 {
		t.Error("README.md shows no `go run ./cmd/…` example")
	}
}

// flagDefiners are the flag package functions that define a flag; the
// ones ending in Var take the flag name as their second argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
	"BoolVar": true, "DurationVar": true, "Float64Var": true, "IntVar": true, "Int64Var": true,
	"StringVar": true, "TextVar": true, "UintVar": true, "Uint64Var": true, "Var": true,
}

// cmdFlags returns the names of the flags a command's main.go defines.
func cmdFlags(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" || !flagDefiners[sel.Sel.Name] {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: flag.%s defines a flag whose name is not a string literal", path, sel.Sel.Name)
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		names = append(names, name)
		return true
	})
	return names
}
