package temporal

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"iyp/internal/graph"
	"iyp/internal/ontology"
)

// Diff compares two frozen graph generations and reports what was added,
// removed and changed between them — the engine behind `CALL
// temporal.diff`, `GET /v1/diff` and `iyp-report -diff`.
//
// Entities are matched semantically, not by internal ID (IDs are assigned
// in ingestion order and carry no meaning across builds):
//
//   - A node's identity is its first ontology label (in sorted label
//     order) that has an identity property present on the node, plus that
//     property's value — e.g. (AS, asn=2497). Nodes without any ontology
//     identity fall back to their label set plus full property
//     fingerprint.
//   - A relationship's identity is its type, its endpoints' node
//     identities, and its provenance dataset (reference_name), matching
//     how ingestion dedups: the same fact re-crawled from the same
//     dataset is the same relationship.
//
// An entity present in both generations whose labels or properties differ
// counts as changed; present only in `to` as added; only in `from` as
// removed. Values are equal when their Value.String() renderings are, so
// Int(2) equals Float(2.0) but Float(1e6), rendered 1e+06, differs from
// Int(1000000). Duplicate identities (parallel relationships from one
// dataset) are matched as multisets: equal fingerprints pair off first,
// leftovers pair as changed, the excess counts as added/removed.
//
// The kernel works in integer space for every pair of generations: `to`'s
// string ids are translated into `from`'s dictionary, each side's entities
// are sorted by integer identity and the two lists are merged. Only groups
// with more than one member on a side render text fingerprints.
func Diff(ctx context.Context, from, to *graph.Graph, opts DiffOptions) (*DiffResult, error) {
	var res *DiffResult
	var err error
	from.BulkRead(func(a *graph.BulkReader) {
		to.BulkRead(func(b *graph.BulkReader) {
			res, err = diff(ctx, a, b, opts)
		})
	})
	return res, err
}

// DiffOptions tunes Diff.
type DiffOptions struct {
	// Workers bounds the parallelism, clamped to [1, GOMAXPROCS] (0 =
	// GOMAXPROCS): at 2 or more the two generations are scanned and
	// sorted concurrently, at 1 one after the other. The result is
	// byte-identical at every setting.
	Workers int
}

// Totals counts entity-level differences.
type Totals struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Changed int `json:"changed"`
}

func (t *Totals) plus(d Totals) {
	t.Added += d.Added
	t.Removed += d.Removed
	t.Changed += d.Changed
}

// GroupDelta is one named group's delta (a node label, a relationship
// type, or a provenance dataset).
type GroupDelta struct {
	Name    string `json:"name"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Changed int    `json:"changed"`
}

// DiffResult is the full diff between two generations. Group slices are
// sorted by name; groups with an all-zero delta are omitted.
type DiffResult struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`

	Nodes Totals `json:"nodes"`
	Rels  Totals `json:"rels"`

	// ByLabel counts node deltas per label; a node carrying several
	// labels counts once under each.
	ByLabel []GroupDelta `json:"by_label"`
	// ByRelType counts relationship deltas per type.
	ByRelType []GroupDelta `json:"by_reltype"`
	// ByDataset counts relationship deltas per provenance dataset
	// (reference_name); refinement passes appear under their iyp.* names.
	ByDataset []GroupDelta `json:"by_dataset"`
}

// Empty reports whether the diff found no differences at all.
func (r *DiffResult) Empty() bool {
	return r.Nodes == Totals{} && r.Rels == Totals{}
}

// String renders the diff as the aligned table iyp-report -diff prints.
func (r *DiffResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "generation %d -> %d\n", r.From, r.To)
	fmt.Fprintf(&sb, "  %-34s %8s %8s %8s\n", "", "added", "removed", "changed")
	fmt.Fprintf(&sb, "  %-34s %8d %8d %8d\n", "nodes", r.Nodes.Added, r.Nodes.Removed, r.Nodes.Changed)
	fmt.Fprintf(&sb, "  %-34s %8d %8d %8d\n", "relationships", r.Rels.Added, r.Rels.Removed, r.Rels.Changed)
	section := func(title string, groups []GroupDelta) {
		if len(groups) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s:\n", title)
		for _, g := range groups {
			fmt.Fprintf(&sb, "  %-34s %8d %8d %8d\n", g.Name, g.Added, g.Removed, g.Changed)
		}
	}
	section("by label", r.ByLabel)
	section("by relationship type", r.ByRelType)
	section("by dataset", r.ByDataset)
	if r.Empty() {
		sb.WriteString("(no differences)\n")
	}
	return sb.String()
}

// noID is a dictionary id no string has (dictionaries hold < 2^31). As a
// dataset it means "no reference_name", listed as "(none)".
const noID = math.MaxUint32

// textKeyed labels the node entries keyed by literal text.
const textKeyed = math.MaxInt32

// kernel is one Diff call's state. Side a is `from`, whose dictionary ids
// are the common string space; side b is `to`.
type kernel struct {
	a, b   *side
	shared bool     // one dictionary on both sides: list ids compare too
	types  []string // shared type index → name
	next   uint32   // last node identity number handed out

	res                   DiffResult
	byLabel, byType, byDS map[string]Totals
}

// side is one generation's half: its reader, the translation of its ids
// into the shared spaces, and its sorted entries.
type side struct {
	br     *graph.BulkReader
	tr     *graph.Translator // string ids → a's (the identity on side a)
	labels map[string]int32  // label name → shared index, read-only
	types  []uint32          // type id → shared type index
	refKey uint32            // dictionary id of reference_name, or noID
	empty  uint32            // dictionary id of "", or noID
	lsets  []*lsetInfo       // by label-set id, filled on first sight

	nodes []nodeEntry // sorted by identity
	num   []uint32    // NodeID → identity number, set by the node merge
	rels  []relEntry  // sorted by key
	buf   []graph.PropCell
}

// nodeEntry is one live node keyed by its identity: the shared label
// index plus the identity value's kind and payload (strings as a's
// dictionary ids, ints by bits, bools by flag) — or, for float and list
// identities and for nodes without one, the literal key text.
type nodeEntry struct {
	label int32 // textKeyed for text-keyed entries
	kind  graph.Kind
	num   uint64
	text  string
	id    graph.NodeID
}

func cmpNode(x, y nodeEntry) int {
	return cmp.Or(cmp.Compare(x.label, y.label), cmp.Compare(x.kind, y.kind),
		cmp.Compare(x.num, y.num), strings.Compare(x.text, y.text))
}

// relEntry is one live relationship keyed by its endpoints' identity
// numbers (hi) and its shared type index and dataset id (lo).
type relEntry struct {
	hi, lo uint64
	id     graph.RelID
}

func cmpRel(x, y relEntry) int {
	return cmp.Or(cmp.Compare(x.hi, y.hi), cmp.Compare(x.lo, y.lo))
}

// lsetInfo is what a label set implies, worked out once per set.
type lsetInfo struct {
	names  []string    // sorted label names
	idents []identProp // the ontology-identified ones, same order
}

// identProp is one ontology-identified label of a set and its identity
// property.
type identProp struct {
	label      int32  // shared label index
	key        uint32 // the property's dictionary id, or noID
	name, prop string
}

func diff(ctx context.Context, a, b *graph.BulkReader, opts DiffOptions) (*DiffResult, error) {
	workers := runtime.GOMAXPROCS(0)
	if opts.Workers > 0 {
		workers = min(opts.Workers, workers)
	}
	k := newKernel(a, b)
	for _, step := range []func(){
		func() { k.both(workers, (*side).scanNodes) },
		func() { mergeSorted(k.a.nodes, k.b.nodes, cmpNode, k.nodeGroup) },
		func() { k.both(workers, (*side).scanRels) },
		func() { mergeSorted(k.a.rels, k.b.rels, cmpRel, k.relGroup) },
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step()
	}
	return k.result(), nil
}

func newKernel(a, b *graph.BulkReader) *kernel {
	_, labelIdx := sharedIndex(a.LabelNames(), b.LabelNames())
	types, typeIdx := sharedIndex(a.TypeNames(), b.TypeNames())
	k := &kernel{
		shared:  a.Interner() == b.Interner(),
		types:   types,
		byLabel: map[string]Totals{},
		byType:  map[string]Totals{},
		byDS:    map[string]Totals{},
	}
	k.a = newSide(a, a.Interner(), labelIdx, typeIdx)
	k.b = newSide(b, a.Interner(), labelIdx, typeIdx)
	return k
}

func newSide(br *graph.BulkReader, common *graph.Interner, labels, types map[string]int32) *side {
	s := &side{
		br:     br,
		tr:     graph.NewTranslator(br.Interner(), common),
		labels: labels,
		refKey: lookup(br.Interner(), ontology.PropReferenceName),
		empty:  lookup(br.Interner(), ""),
	}
	for _, t := range br.TypeNames() {
		s.types = append(s.types, uint32(types[t]))
	}
	return s
}

func lookup(in *graph.Interner, s string) uint32 {
	if id, ok := in.Lookup(s); ok {
		return id
	}
	return noID
}

// sharedIndex merges two name dictionaries into one sorted list and its
// name → index map.
func sharedIndex(x, y []string) ([]string, map[string]int32) {
	names := slices.Compact(slices.Sorted(slices.Values(slices.Concat(x, y))))
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		idx[n] = int32(i)
	}
	return names, idx
}

// both runs a per-side pass on each generation: concurrently when the
// worker budget allows two, one after the other at 1.
func (k *kernel) both(workers int, pass func(*side)) {
	done := make(chan struct{})
	go func() { pass(k.b); close(done) }()
	if workers < 2 {
		<-done
	}
	pass(k.a)
	<-done
}

// mergeSorted walks two sorted lists in step and calls group once per
// distinct key, with that key's run on each side (either may be empty).
func mergeSorted[E any](a, b []E, order func(E, E) int, group func(ga, gb []E)) {
	run := func(s []E) int {
		n := 1
		for n < len(s) && order(s[0], s[n]) == 0 {
			n++
		}
		return n
	}
	for len(a) > 0 || len(b) > 0 {
		c := -1
		if len(a) == 0 {
			c = 1
		} else if len(b) > 0 {
			c = order(a[0], b[0])
		}
		na, nb := 0, 0
		if c <= 0 {
			na = run(a)
		}
		if c >= 0 {
			nb = run(b)
		}
		group(a[:na], b[:nb])
		a, b = a[na:], b[nb:]
	}
}

func (s *side) scanNodes() {
	s.nodes = make([]nodeEntry, 0, s.br.NumNodes())
	s.br.EachNode(func(id graph.NodeID) bool {
		s.nodes = append(s.nodes, s.identity(id))
		return true
	})
	slices.SortFunc(s.nodes, cmpNode)
	s.num = make([]uint32, s.br.MaxNodeID()+1)
}

// identity keys a node by its first ontology label whose identity property
// is present.
func (s *side) identity(id graph.NodeID) nodeEntry {
	ls := s.lset(id)
	s.buf = s.br.NodeCells(s.buf[:0], id)
	for _, ip := range ls.idents {
		c, ok := cellOf(s.buf, ip.key)
		if !ok || c.Kind == graph.KindNull {
			continue
		}
		switch c.Kind {
		case graph.KindString:
			return nodeEntry{label: ip.label, kind: c.Kind, num: uint64(s.tr.ID(uint32(c.Ref))), id: id}
		case graph.KindInt, graph.KindBool:
			return nodeEntry{label: ip.label, kind: c.Kind, num: c.Ref, id: id}
		}
		// A float that renders as an int does is that int's identity.
		r := s.br.Value(c).String()
		if n, err := strconv.ParseInt(r, 10, 64); err == nil && strconv.FormatInt(n, 10) == r {
			return nodeEntry{label: ip.label, kind: graph.KindInt, num: uint64(n), id: id}
		}
		return nodeEntry{label: textKeyed, text: "N\x1f" + ip.name + "\x1f" + ip.prop + "\x1f" + r, id: id}
	}
	e := nodeEntry{label: textKeyed, id: id}
	e.text = "N\x1f" + strings.Join(ls.names, ",") + "\x1f\x1f" + s.nodeFP(e)
	return e
}

func (s *side) lset(id graph.NodeID) *lsetInfo {
	ls := int(s.br.NodeLabelSet(id))
	if ls >= len(s.lsets) {
		s.lsets = append(s.lsets, make([]*lsetInfo, ls+1-len(s.lsets))...)
	}
	if info := s.lsets[ls]; info != nil {
		return info
	}
	info := &lsetInfo{names: s.br.NodeLabels(id)}
	for _, l := range info.names {
		if ik := ontology.IdentityKey(l); ik != "" {
			info.idents = append(info.idents, identProp{label: s.labels[l], key: lookup(s.br.Interner(), ik), name: l, prop: ik})
		}
	}
	s.lsets[ls] = info
	return info
}

func cellOf(cells []graph.PropCell, key uint32) (graph.PropCell, bool) {
	for _, c := range cells {
		if c.Key == key {
			return c, true
		}
	}
	return graph.PropCell{}, false
}

func (s *side) scanRels() {
	s.rels = make([]relEntry, 0, s.br.NumRels())
	s.br.EachRel(func(id graph.RelID, typ uint16, from, to graph.NodeID) bool {
		ds := uint32(noID)
		s.buf = s.br.RelCells(s.buf[:0], id)
		if c, ok := cellOf(s.buf, s.refKey); ok && c.Kind == graph.KindString && uint32(c.Ref) != s.empty {
			ds = s.tr.ID(uint32(c.Ref))
		}
		hi, lo := uint64(s.num[from])<<32|uint64(s.num[to]), uint64(s.types[typ])<<32|uint64(ds)
		s.rels = append(s.rels, relEntry{hi, lo, id})
		return true
	})
	slices.SortFunc(s.rels, cmpRel)
}

// nodeGroup numbers one node identity on both sides and diffs its members.
func (k *kernel) nodeGroup(ga, gb []nodeEntry) {
	k.next++
	for _, e := range ga {
		k.a.num[e.id] = k.next
	}
	for _, e := range gb {
		k.b.num[e.id] = k.next
	}
	restA, restB := pairOff(ga, gb, k.sameNode, k.a.nodeFP, k.b.nodeFP)
	m := min(len(restA), len(restB))
	for _, e := range restB[:m] {
		k.countNode(k.b, e.id, Totals{Changed: 1})
	}
	for _, e := range restA[m:] {
		k.countNode(k.a, e.id, Totals{Removed: 1})
	}
	for _, e := range restB[m:] {
		k.countNode(k.b, e.id, Totals{Added: 1})
	}
}

func (k *kernel) countNode(s *side, id graph.NodeID, d Totals) {
	k.res.Nodes.plus(d)
	for _, l := range s.lset(id).names {
		bump(k.byLabel, l, d)
	}
}

// relGroup diffs the members of one relationship key.
func (k *kernel) relGroup(ga, gb []relEntry) {
	restA, restB := pairOff(ga, gb, k.sameRel, k.a.relFP, k.b.relFP)
	m := min(len(restA), len(restB))
	d := Totals{Added: len(restB) - m, Removed: len(restA) - m, Changed: m}
	if d == (Totals{}) {
		return
	}
	g := ga // every member shares the key (type, dataset)
	if len(g) == 0 {
		g = gb
	}
	dataset := "(none)"
	if ds := uint32(g[0].lo); ds != noID {
		dataset = k.b.tr.Str(ds)
	}
	k.res.Rels.plus(d)
	bump(k.byType, k.types[g[0].lo>>32], d)
	bump(k.byDS, dataset, d)
}

func bump(m map[string]Totals, name string, d Totals) {
	t := m[name]
	t.plus(d)
	m[name] = t
}

// pairOff returns one group's unmatched members on each side: the first
// min(len(restA), len(restB)) pair up as changed, the excess counts as
// removed (restA) or added (restB). A 1-to-1 group compares with same;
// only a larger one renders literal fingerprints and matches them as
// multisets, equal fingerprints pairing off first and leftovers pairing
// in fingerprint order.
func pairOff[E any](ga, gb []E, same func(x, y E) bool, fpA, fpB func(E) string) (restA, restB []E) {
	if len(ga) == 0 || len(gb) == 0 || len(ga) == 1 && len(gb) == 1 {
		if len(ga) == 1 && len(gb) == 1 && same(ga[0], gb[0]) {
			return nil, nil
		}
		return ga, gb
	}
	a, b := fingerprinted(ga, fpA), fingerprinted(gb, fpB)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i].fp, b[j].fp); {
		case c == 0:
			i++
			j++
		case c < 0:
			restA = append(restA, a[i].e)
			i++
		default:
			restB = append(restB, b[j].e)
			j++
		}
	}
	for _, m := range a[i:] {
		restA = append(restA, m.e)
	}
	for _, m := range b[j:] {
		restB = append(restB, m.e)
	}
	return restA, restB
}

// member is one entry of a multi-member group with its literal fingerprint.
type member[E any] struct {
	fp string
	e  E
}

func fingerprinted[E any](g []E, fp func(E) string) []member[E] {
	out := make([]member[E], len(g))
	for i, e := range g {
		out[i] = member[E]{fp(e), e}
	}
	slices.SortFunc(out, func(x, y member[E]) int { return strings.Compare(x.fp, y.fp) })
	return out
}

func (k *kernel) sameNode(x, y nodeEntry) bool {
	k.a.buf = k.a.br.NodeCells(k.a.buf[:0], x.id)
	k.b.buf = k.b.br.NodeCells(k.b.buf[:0], y.id)
	return slices.Equal(k.a.lset(x.id).names, k.b.lset(y.id).names) && k.sameCells()
}

func (k *kernel) sameRel(x, y relEntry) bool {
	k.a.buf = k.a.br.RelCells(k.a.buf[:0], x.id)
	k.b.buf = k.b.br.RelCells(k.b.buf[:0], y.id)
	return k.sameCells()
}

// sameCells compares the property columns buffered on both sides entry by
// entry, once b's keys are translated into a's dictionary and re-sorted.
func (k *kernel) sameCells() bool {
	ca, cb := k.a.buf, k.b.buf
	if len(ca) != len(cb) {
		return false
	}
	if !k.shared {
		for i := range cb {
			cb[i].Key = k.b.tr.ID(cb[i].Key)
		}
		slices.SortFunc(cb, func(x, y graph.PropCell) int { return cmp.Compare(x.Key, y.Key) })
	}
	for i := range ca {
		if ca[i].Key != cb[i].Key || !k.sameValue(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

// sameValue reports whether a's cell x and b's cell y render alike.
// Raw-equal payloads do; two strings compare by translated id; any other
// pair compares its Value.String() renderings.
func (k *kernel) sameValue(x, y graph.PropCell) bool {
	if x.Kind == y.Kind {
		switch x.Kind {
		case graph.KindString:
			return x.Ref == uint64(k.b.tr.ID(uint32(y.Ref)))
		case graph.KindNull, graph.KindBool, graph.KindInt:
			return x.Ref == y.Ref
		}
		// Floats by bits; list ids only mean the same list in one dictionary.
		if x.Ref == y.Ref && (x.Kind == graph.KindFloat || k.shared) {
			return true
		}
	} else if x.Kind == graph.KindString || y.Kind == graph.KindString {
		return false // a quoted rendering never equals an unquoted one
	}
	return k.a.br.Value(x).String() == k.b.br.Value(y).String()
}

// nodeFP is a node's literal fingerprint: its labels and properties.
func (s *side) nodeFP(e nodeEntry) string {
	return strings.Join(s.lset(e.id).names, ",") + "\x1e" + literal(s.br.EachNodeProp, e.id)
}

func (s *side) relFP(e relEntry) string { return literal(s.br.EachRelProp, e.id) }

// literal renders a property map as its sorted key=value pairs, each value
// by Value.String().
func literal[ID any](each func(ID, func(string, graph.Value)), id ID) string {
	var kv []string
	each(id, func(k string, v graph.Value) { kv = append(kv, k+"="+v.String()) })
	sort.Strings(kv)
	return strings.Join(kv, "\x1e")
}

func (k *kernel) result() *DiffResult {
	res := k.res
	res.ByLabel, res.ByRelType, res.ByDataset = groups(k.byLabel), groups(k.byType), groups(k.byDS)
	return &res
}

// groups lists the named totals sorted by name.
func groups(m map[string]Totals) []GroupDelta {
	out := []GroupDelta{}
	for _, name := range slices.Sorted(maps.Keys(m)) {
		t := m[name]
		out = append(out, GroupDelta{Name: name, Added: t.Added, Removed: t.Removed, Changed: t.Changed})
	}
	return out
}
