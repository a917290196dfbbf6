package temporal

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"iyp/internal/core"
	"iyp/internal/graph"
	"iyp/internal/ontology"
	"iyp/internal/simnet"
)

// literalDiff is the string-keyed kernel Diff replaced, kept as the
// oracle the integer kernel is checked against. Every identity key and
// fingerprint is literal text built from Value.String(); entities group
// by key in maps, and duplicate identities match as multisets. It is
// single-threaded and deliberately naive.
func literalDiff(from, to *graph.Graph) *DiffResult {
	var nodesA, relsA, nodesB, relsB []litEntry
	from.BulkRead(func(br *graph.BulkReader) { nodesA, relsA = literalEntries(br) })
	to.BulkRead(func(br *graph.BulkReader) { nodesB, relsB = literalEntries(br) })

	byLabel, byType, byDS := map[string]Totals{}, map[string]Totals{}, map[string]Totals{}
	bump := func(m map[string]Totals, name string, fate func(*Totals)) {
		t := m[name]
		fate(&t)
		m[name] = t
	}
	res := &DiffResult{}
	res.Nodes = litMatch(nodesA, nodesB, func(e litEntry, fate func(*Totals)) {
		for _, l := range e.labels {
			bump(byLabel, l, fate)
		}
	})
	res.Rels = litMatch(relsA, relsB, func(e litEntry, fate func(*Totals)) {
		bump(byType, e.typ, fate)
		bump(byDS, e.ds, fate)
	})
	res.ByLabel, res.ByRelType, res.ByDataset = litGroups(byLabel), litGroups(byType), litGroups(byDS)
	return res
}

// litEntry is one entity's identity key and content fingerprint, plus the
// group names its delta counts under.
type litEntry struct {
	key, fp string
	labels  []string // nodes
	typ, ds string   // relationships
}

func literalEntries(br *graph.BulkReader) (nodes, rels []litEntry) {
	keys := map[graph.NodeID]string{}
	br.EachNode(func(id graph.NodeID) bool {
		labels := br.NodeLabels(id)
		fp := strings.Join(labels, ",") + "\x1e" + litProps(func(fn func(string, graph.Value)) { br.EachNodeProp(id, fn) })
		key := ""
		for _, l := range labels {
			ik := ontology.IdentityKey(l)
			if ik == "" {
				continue
			}
			if v := br.NodeProp(id, ik); !v.IsNull() {
				key = "N\x1f" + l + "\x1f" + ik + "\x1f" + v.String()
				break
			}
		}
		if key == "" {
			key = "N\x1f" + strings.Join(labels, ",") + "\x1f\x1f" + fp
		}
		keys[id] = key
		nodes = append(nodes, litEntry{key: key, fp: fp, labels: labels})
		return true
	})
	br.EachRel(func(id graph.RelID, typ uint16, from, to graph.NodeID) bool {
		name := br.TypeNames()[typ]
		ds, _ := br.RelProp(id, ontology.PropReferenceName).AsString()
		key := "R\x1f" + name + "\x1f" + keys[from] + "\x1f" + keys[to] + "\x1f" + ds
		if ds == "" {
			ds = "(none)"
		}
		fp := litProps(func(fn func(string, graph.Value)) { br.EachRelProp(id, fn) })
		rels = append(rels, litEntry{key: key, fp: fp, typ: name, ds: ds})
		return true
	})
	return nodes, rels
}

// litProps renders a property map canonically: sorted key=value pairs.
func litProps(each func(func(string, graph.Value))) string {
	var kv []string
	each(func(k string, v graph.Value) { kv = append(kv, k+"="+v.String()) })
	sort.Strings(kv)
	return strings.Join(kv, "\x1e")
}

// litMatch groups both sides by key and matches each group as multisets:
// equal fingerprints pair off first, leftovers pair as changed (counted
// under the to side's entry), the excess counts as removed or added.
func litMatch(a, b []litEntry, count func(litEntry, func(*Totals))) Totals {
	var tot Totals
	groupA, groupB := map[string][]litEntry{}, map[string][]litEntry{}
	for _, e := range a {
		groupA[e.key] = append(groupA[e.key], e)
	}
	for _, e := range b {
		groupB[e.key] = append(groupB[e.key], e)
	}
	changed := func(t *Totals) { t.Changed++ }
	removed := func(t *Totals) { t.Removed++ }
	added := func(t *Totals) { t.Added++ }
	for key, ea := range groupA {
		restA, restB := litUnmatched(ea, groupB[key])
		m := min(len(restA), len(restB))
		for _, e := range restB[:m] {
			changed(&tot)
			count(e, changed)
		}
		for _, e := range restA[m:] {
			removed(&tot)
			count(e, removed)
		}
		for _, e := range restB[m:] {
			added(&tot)
			count(e, added)
		}
	}
	for key, eb := range groupB {
		if _, ok := groupA[key]; ok {
			continue
		}
		for _, e := range eb {
			added(&tot)
			count(e, added)
		}
	}
	return tot
}

// litUnmatched removes exact fingerprint matches (as multisets) and
// returns both leftovers sorted by fingerprint.
func litUnmatched(a, b []litEntry) (restA, restB []litEntry) {
	sort.Slice(a, func(i, j int) bool { return a[i].fp < a[j].fp })
	sort.Slice(b, func(i, j int) bool { return b[i].fp < b[j].fp })
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].fp == b[j].fp:
			i++
			j++
		case a[i].fp < b[j].fp:
			restA = append(restA, a[i])
			i++
		default:
			restB = append(restB, b[j])
			j++
		}
	}
	return append(restA, a[i:]...), append(restB, b[j:]...)
}

func litGroups(m map[string]Totals) []GroupDelta {
	out := []GroupDelta{}
	for name, t := range m {
		if t != (Totals{}) {
			out = append(out, GroupDelta{Name: name, Added: t.Added, Removed: t.Removed, Changed: t.Changed})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// graphPair is one (from, to) pair of generations.
type graphPair struct {
	from, to *graph.Graph
}

// checkOracle asserts Diff renders and encodes exactly as literalDiff, at
// one worker and at all.
func checkOracle(t *testing.T, p graphPair) {
	t.Helper()
	want := literalDiff(p.from, p.to)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		got := mustDiff(t, p.from, p.to, workers)
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || string(gotJSON) != string(wantJSON) {
			t.Fatalf("workers=%d: Diff differs from the literal oracle:\n%s\nwant:\n%s\njson %s\nwant %s",
				workers, got, want, gotJSON, wantJSON)
		}
	}
}

// dictVariants returns the pair as built plus two snapshot round trips of
// it: both generations loaded into one shared dictionary, and each into a
// dictionary of its own.
func dictVariants(t *testing.T, p graphPair) map[string]graphPair {
	t.Helper()
	reload := func(g *graph.Graph, dict *graph.Interner) *graph.Graph {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out, _, err := graph.LoadWith(&buf, graph.LoadOptions{Dict: dict})
		if err != nil {
			t.Fatal(err)
		}
		return out.Freeze()
	}
	dict := graph.NewInterner()
	return map[string]graphPair{
		"as-built":    p,
		"shared-dict": {reload(p.from, dict), reload(p.to, dict)},
		"two-dicts":   {reload(p.from, nil), reload(p.to, nil)},
	}
}

// oraclePair builds both generations of a hand-written case: build adds
// side to's variant of each entity when to is true.
func oraclePair(build func(g *graph.Graph, to bool)) graphPair {
	mk := func(to bool) *graph.Graph {
		g := graph.New()
		build(g, to)
		return g.Freeze()
	}
	return graphPair{mk(false), mk(true)}
}

// pick returns a on side from and b on side to.
func pick[T any](to bool, a, b T) T {
	if to {
		return b
	}
	return a
}

func link(g *graph.Graph, typ string, from, to graph.NodeID, props graph.Props) {
	if _, err := g.AddRel(typ, from, to, props); err != nil {
		panic(err)
	}
}

func ref(ds string) graph.Props {
	return graph.Props{ontology.PropReferenceName: graph.String(ds)}
}

// oracleCases are the pairs TestDiffMatchesLiteralOracle checks, each in
// every dictionary variant.
func oracleCases(t *testing.T) map[string]graphPair {
	a, b := churnedPair(t, 42)
	cases := map[string]graphPair{
		"churnedPair": {a, b},
		"valueZoo":    {valueZoo(t, graph.New(), false), valueZoo(t, graph.New(), true)},
		"float-vs-int-property": oraclePair(func(g *graph.Graph, to bool) {
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(1), "x": pick[graph.Value](to, graph.Float(1e6), graph.Int(1000000))})
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2), "x": pick[graph.Value](to, graph.Float(2), graph.Int(2))})
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(3), "x": pick[graph.Value](to, graph.Float(math.Copysign(0, -1)), graph.Int(0))})
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(4), "x": pick(to, graph.Float(math.NaN()), graph.Float(math.Float64frombits(0x7ff8000000000002)))})
		}),
		"float-vs-int-identity": oraclePair(func(g *graph.Graph, to bool) {
			big := g.AddNode([]string{"AS"}, graph.Props{"asn": pick[graph.Value](to, graph.Float(1e6), graph.Int(1000000))})
			two := g.AddNode([]string{"AS"}, graph.Props{"asn": pick[graph.Value](to, graph.Float(2), graph.Int(2))})
			half := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Float(0.5)})
			link(g, "PEERS_WITH", two, half, ref("ds"))
			link(g, "PEERS_WITH", big, two, ref("ds"))
		}),
		"list-2-vs-2.0": oraclePair(func(g *graph.Graph, to bool) {
			l2, l2f := graph.List(graph.Int(2)), graph.List(graph.Float(2))
			big, bigf := graph.List(graph.Int(1000000)), graph.List(graph.Float(1e6))
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(1), "tags": pick(to, l2, l2f)})
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2), "tags": pick(to, big, bigf)})
			x := g.AddNode([]string{"Tag"}, graph.Props{"label": pick(to, l2, l2f)})
			y := g.AddNode([]string{"Tag"}, graph.Props{"label": pick(to, big, bigf)})
			link(g, "CATEGORIZED", x, y, ref("ds"))
		}),
		"empty-vs-missing-reference_name": oraclePair(func(g *graph.Graph, to bool) {
			x := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(1)})
			y := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2)})
			link(g, "PEERS_WITH", x, y, pick(to, ref(""), graph.Props{"w": graph.Int(1)}))
			link(g, "PEERS_WITH", y, x, pick(to, graph.Props{ontology.PropReferenceName: graph.Int(7)}, ref("")))
			link(g, "PEERS_WITH", x, x, ref(pick(to, "(none)", "")))
		}),
		"string-only-in-to": oraclePair(func(g *graph.Graph, to bool) {
			x := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(1), "name": graph.String(pick(to, "old", "only-in-to"))})
			y := g.AddNode([]string{"Prefix"}, graph.Props{"prefix": graph.String(pick(to, "10.0.0.0/8", "10.9.0.0/16"))})
			link(g, "ORIGINATE", x, y, ref(pick(to, "ds.old", "ds.only-in-to")))
			link(g, "ORIGINATE", x, x, ref(pick(to, "ds.old", "ds.only-in-to")))
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(2), pick(to, "a", "key-only-in-to"): graph.Int(1)})
		}),
		"no-ontology-identity": oraclePair(func(g *graph.Graph, to bool) {
			loose := g.AddNode([]string{"Loose"}, graph.Props{"v": graph.Int(1)})
			g.AddNode([]string{"Loose"}, graph.Props{"v": graph.Int(pick[int64](to, 2, 3))})
			g.AddNode(nil, graph.Props{"v": graph.String("unlabelled")})
			noASN := g.AddNode([]string{"AS"}, graph.Props{"name": graph.String("no asn")})
			second := g.AddNode([]string{"AS", "Prefix"}, graph.Props{"prefix": graph.String("10.0.0.0/8"), "w": graph.Float(pick(to, 1.5, 2.5))})
			link(g, "PART_OF", loose, noASN, ref("ds"))
			link(g, "PART_OF", noASN, second, ref("ds"))
		}),
		"duplicate-identities": oraclePair(func(g *graph.Graph, to bool) {
			g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(7), "name": graph.String("x")})
			g.AddNode(pick(to, []string{"AS", "Tag"}, []string{"AS", "Organization"}), graph.Props{"asn": graph.Int(7)})
			g.AddNode([]string{"AS", "Tag"}, graph.Props{"asn": graph.Int(7), "name": graph.String(pick(to, "y", "z"))})
			if to {
				g.AddNode([]string{"AS", "IXP"}, graph.Props{"asn": graph.Int(7)})
			}
			x := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(8)})
			y := g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(9)})
			for i := range pick(to, 3, 4) {
				link(g, "PEERS_WITH", x, y, graph.Props{ontology.PropReferenceName: graph.String("ds"), "w": graph.Int(int64(i % 2))})
			}
		}),
	}
	full, _ := simnetDeltaPairs(t)
	cases["simnet-forced-delta"] = full
	return cases
}

// TestDiffMatchesLiteralOracle checks the integer kernel against the
// string-keyed kernel it replaced, byte for byte in String() and JSON, on
// shared-dictionary and two-dictionary pairs alike.
func TestDiffMatchesLiteralOracle(t *testing.T) {
	for name, p := range oracleCases(t) {
		for variant, vp := range dictVariants(t, p) {
			t.Run(name+"/"+variant, func(t *testing.T) { checkOracle(t, vp) })
		}
	}
}

// simnetDeltaPairs builds, once per test binary, the benchmark's
// build_publish pair at the root tests' scale: a full simnet build saved
// to a store and a forced bgpkit.pfx2asn delta stamped a week later, as an
// unpinned clock stamps it, so every re-crawled relationship changes its
// reference_time. Both generations are loaded back as the benchmark's
// diff loads them, each with a dictionary of its own (distinct), and
// again into one shared dictionary (shared).
func simnetDeltaPairs(tb testing.TB) (distinct, shared graphPair) {
	tb.Helper()
	deltaPairs.once.Do(func() {
		deltaPairs.distinct, deltaPairs.shared, deltaPairs.err = buildDeltaPairs()
	})
	if deltaPairs.err != nil {
		tb.Fatal(deltaPairs.err)
	}
	return deltaPairs.distinct, deltaPairs.shared
}

var deltaPairs struct {
	once             sync.Once
	distinct, shared graphPair
	err              error
}

func buildDeltaPairs() (distinct, shared graphPair, err error) {
	dir, err := os.MkdirTemp("", "iyp-diff-")
	if err != nil {
		return distinct, shared, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	opts := core.BuildOptions{
		Config:    simnet.DefaultConfig().Scale(0.1),
		FetchTime: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
	}
	full, err := core.Build(ctx, opts)
	if err != nil {
		return distinct, shared, err
	}
	st, err := graph.OpenStore(dir, graph.StoreOptions{Keep: 3})
	if err != nil {
		return distinct, shared, err
	}
	gen1, err := st.Save(full.Graph)
	if err != nil {
		return distinct, shared, err
	}
	man := core.ManifestFromReport(full.Fingerprint, gen1.Seq, full.FetchTime, full.Report)
	if err := core.WriteDatasetsManifest(dir, man); err != nil {
		return distinct, shared, err
	}
	opts.FetchTime = opts.FetchTime.AddDate(0, 0, 7)
	delta, err := core.BuildDelta(ctx, core.DeltaOptions{Build: opts, StoreDir: dir, Keep: 3, Datasets: []string{"bgpkit.pfx2asn"}})
	if err != nil {
		return distinct, shared, err
	}
	load := func(path string, dict *graph.Interner) *graph.Graph {
		g, _, lerr := graph.LoadFileWith(path, graph.LoadOptions{Dict: dict})
		if lerr != nil {
			err = lerr
			return nil
		}
		return g.Freeze()
	}
	dict := graph.NewInterner()
	distinct = graphPair{load(gen1.Path, nil), load(delta.Gen.Path, nil)}
	shared = graphPair{load(gen1.Path, dict), load(delta.Gen.Path, dict)}
	return distinct, shared, err
}

// FuzzDiffMatchesOracle builds two small generations from the fuzz bytes
// — a few labels and types, identity values of every kind, parallel
// relationships, missing and empty datasets — once over a shared
// dictionary and once over two, and checks Diff against the oracle on both.
func FuzzDiffMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 2, 1, 0, 2, 0, 1, 1, 3, 3, 2, 4, 0, 9, 1, 0, 1, 2})
	f.Add([]byte("\x07\x01\x03\x02\x05\x00\x04\x09\x02\x01\x00\x06\x0b\x03\x00\x10\x00\x00\x01\x01\x02\x00\x03\x01\x01\x00\x02\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dict := graph.NewInterner()
		checkOracle(t, graphPair{fuzzGraph(graph.New(), data, false), fuzzGraph(graph.New(), data, true)})
		checkOracle(t, graphPair{fuzzGraph(graph.NewWithInterner(dict), data, false), fuzzGraph(graph.NewWithInterner(dict), data, true)})
	})
}

// fuzzGraph builds side from (to false) or side to of the pair the bytes
// describe. Both sides consume the same bytes; each element exists on one
// side or both, and a byte per value decides whether to's value differs.
func fuzzGraph(g *graph.Graph, data []byte, to bool) *graph.Graph {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	labelSets := [][]string{{"AS"}, {"Prefix"}, {"Tag"}, {"AS", "Tag"}, {"Loose"}, nil, {"AS", "Loose"}, {"Organization", "Prefix"}}
	keys := []string{"asn", "prefix", "label", "name", "id", "x"}
	values := []graph.Value{
		graph.Int(2), graph.Float(2), graph.Float(1e6), graph.Int(1000000), graph.Float(0.5),
		graph.Float(math.Copysign(0, -1)), graph.Int(0), graph.Float(math.NaN()), graph.Float(math.Float64frombits(0x7ff8000000000002)),
		graph.String("a"), graph.String("b"), graph.String(""), graph.String(pick(to, "from-only", "to-only")),
		graph.Bool(true), graph.Bool(false), graph.Null(),
		graph.List(graph.Int(2)), graph.List(graph.Float(2)), graph.Strings("a", "b"),
	}
	datasets := []graph.Value{graph.String("ds.one"), graph.String("ds.two"), graph.String(""), graph.String("(none)"),
		graph.Int(1), graph.String(pick(to, "ds.from", "ds.to"))}
	value := func() graph.Value {
		v, differs := next(len(values)), next(3) == 0
		if to && differs {
			v = (v + 1) % len(values)
		}
		return values[v]
	}
	present := func() bool {
		switch next(4) {
		case 1:
			return !to
		case 2:
			return to
		}
		return true
	}

	nodes := make([]graph.NodeID, 1+next(10))
	for i := range nodes {
		here, labels := present(), labelSets[next(len(labelSets))]
		props := graph.Props{}
		for n := next(4); n > 0; n-- {
			props[keys[next(len(keys))]] = value()
		}
		if here {
			nodes[i] = g.AddNode(labels, props)
		}
	}
	types := []string{"PEERS_WITH", "ORIGINATE", "CATEGORIZED"}
	for n := next(20); n > 0; n-- {
		here, typ, from, to := present(), types[next(len(types))], nodes[next(len(nodes))], nodes[next(len(nodes))]
		props := graph.Props{}
		if d := next(len(datasets) + 1); d < len(datasets) {
			props[ontology.PropReferenceName] = datasets[d]
		}
		if next(2) == 0 {
			props["w"] = value()
		}
		if here && from != 0 && to != 0 {
			link(g, typ, from, to, props)
		}
	}
	return g
}
