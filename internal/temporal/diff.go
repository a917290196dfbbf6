package temporal

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

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
// An entity present in both generations whose property fingerprint
// differs counts as changed; present only in `to` as added; only in
// `from` as removed. Duplicate identities (parallel relationships from
// one dataset) are matched as multisets: equal fingerprints pair off
// first, leftovers pair as changed, the excess counts as added/removed.
//
// The kernel is deterministic at any worker count: entities are
// partitioned by identity-hash into a fixed number of shards, each shard
// is diffed independently, and the per-shard counters merge by
// commutative addition before a final sort by group name.
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
	// Workers bounds the parallel scan/diff workers, clamped to
	// [1, GOMAXPROCS] (0 = GOMAXPROCS). The result is byte-identical at
	// every setting.
	Workers int
}

// Totals counts entity-level differences.
type Totals struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Changed int `json:"changed"`
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

// diffShards is the fixed shard count. Independent of the worker count so
// the partitioning — and therefore the result — never varies with it.
const diffShards = 64

// nodeEntry is one node's identity and content fingerprint.
type nodeEntry struct {
	key    string
	fp     string
	labels []string
}

// relEntry is one relationship's identity and content fingerprint.
type relEntry struct {
	key string
	fp  string
	typ string
	ds  string
}

// tokener renders property values inside identity keys and fingerprints.
// Keys and fingerprints are compared, never displayed, so their value
// encoding only has to preserve equality. When both generations share one
// Interner — a delta build against its parent, a replica following a store
// that seeds reloads — a string value's dictionary id IS its content
// address, and the token is a few base-36 digits instead of a re-quoted,
// re-escaped copy of the payload (provenance URLs, organisation names).
// Distinct lineages fall back to the literal rendering.
type tokener struct {
	shared bool
}

func newTokener(a, b *graph.BulkReader) tokener {
	return tokener{shared: a.Interner() != nil && a.Interner() == b.Interner()}
}

// render encodes one value. Only strings use the id fast path: their "s"
// prefix cannot collide with any literal rendering (null, true/false,
// digits, quotes, brackets), and id equality is exactly string equality
// under a shared Interner. Other kinds keep the literal form — numeric
// cross-kind folding (Int(2) vs Float(2.0)) must match the slow path.
func (tk tokener) render(kind graph.Kind, ref uint64, v graph.Value) string {
	if tk.shared && kind == graph.KindString {
		return "s" + strconv.FormatUint(ref, 36)
	}
	return v.String()
}

// identity renders the identity-property value for nodeKey, which reads
// single properties rather than iterating columns.
func (tk tokener) identity(br *graph.BulkReader, id graph.NodeID, key string, v graph.Value) string {
	if tk.shared && v.Kind() == graph.KindString {
		if kind, ref, ok := br.NodePropRef(id, key); ok && kind == graph.KindString {
			return "s" + strconv.FormatUint(ref, 36)
		}
	}
	return v.String()
}

func diff(ctx context.Context, a, b *graph.BulkReader, opts DiffOptions) (*DiffResult, error) {
	// More workers than CPUs only shrinks the chunks, down to one goroutine
	// and one shard set per entity.
	workers := runtime.GOMAXPROCS(0)
	if opts.Workers > 0 {
		workers = min(opts.Workers, workers)
	}
	tok := newTokener(a, b)

	// Phase 1: node identity keys, dense by NodeID, per graph.
	keysA, err := nodeKeys(ctx, a, workers, tok)
	if err != nil {
		return nil, err
	}
	keysB, err := nodeKeys(ctx, b, workers, tok)
	if err != nil {
		return nil, err
	}

	// Phase 2: shard node and relationship entries by identity hash.
	nodesA, err := shardNodes(ctx, a, keysA, workers, tok)
	if err != nil {
		return nil, err
	}
	nodesB, err := shardNodes(ctx, b, keysB, workers, tok)
	if err != nil {
		return nil, err
	}
	relsA, err := shardRels(ctx, a, keysA, workers, tok)
	if err != nil {
		return nil, err
	}
	relsB, err := shardRels(ctx, b, keysB, workers, tok)
	if err != nil {
		return nil, err
	}

	// Phase 3: diff each shard independently, then merge commutatively.
	res := &DiffResult{}
	byLabel := map[string]*GroupDelta{}
	byType := map[string]*GroupDelta{}
	byDS := map[string]*GroupDelta{}

	type shardOut struct {
		nodes, rels          Totals
		label, rtype, dsname map[string]Totals
		err                  error
	}
	outs := make([]shardOut, diffShards)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s < diffShards; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				outs[s].err = err
				return
			}
			o := &outs[s]
			o.label, o.rtype, o.dsname = map[string]Totals{}, map[string]Totals{}, map[string]Totals{}
			o.nodes = diffNodeShard(nodesA[s], nodesB[s], o.label)
			o.rels = diffRelShard(relsA[s], relsB[s], o.rtype, o.dsname)
		}(s)
	}
	wg.Wait()
	for s := range outs {
		o := &outs[s]
		if o.err != nil {
			return nil, o.err
		}
		addTotals(&res.Nodes, o.nodes)
		addTotals(&res.Rels, o.rels)
		mergeGroups(byLabel, o.label)
		mergeGroups(byType, o.rtype)
		mergeGroups(byDS, o.dsname)
	}
	res.ByLabel = sortGroups(byLabel)
	res.ByRelType = sortGroups(byType)
	res.ByDataset = sortGroups(byDS)
	return res, nil
}

func addTotals(dst *Totals, t Totals) {
	dst.Added += t.Added
	dst.Removed += t.Removed
	dst.Changed += t.Changed
}

func mergeGroups(dst map[string]*GroupDelta, src map[string]Totals) {
	for name, t := range src {
		g := dst[name]
		if g == nil {
			g = &GroupDelta{Name: name}
			dst[name] = g
		}
		g.Added += t.Added
		g.Removed += t.Removed
		g.Changed += t.Changed
	}
}

func sortGroups(m map[string]*GroupDelta) []GroupDelta {
	out := make([]GroupDelta, 0, len(m))
	for _, g := range m {
		if g.Added == 0 && g.Removed == 0 && g.Changed == 0 {
			continue
		}
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// nodeKeys computes every live node's identity key in parallel ID-range
// chunks; the result is a dense slice indexed by NodeID.
func nodeKeys(ctx context.Context, br *graph.BulkReader, workers int, tok tokener) ([]string, error) {
	max := int(br.MaxNodeID())
	keys := make([]string, max+1)
	chunk := (max + workers) / workers
	if chunk < 1 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for lo := 1; lo <= max; lo += chunk {
		hi := lo + chunk - 1
		if hi > max {
			hi = max
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for id := lo; id <= hi; id++ {
				nid := graph.NodeID(id)
				if !br.NodeAlive(nid) {
					continue
				}
				keys[id] = nodeKey(br, nid, tok)
			}
		}(lo, hi)
	}
	wg.Wait()
	return keys, ctx.Err()
}

// nodeKey derives a node's cross-generation identity: the first ontology
// label (sorted order) whose identity property is present, plus its value.
func nodeKey(br *graph.BulkReader, id graph.NodeID, tok tokener) string {
	labels := br.NodeLabels(id)
	for _, l := range labels {
		ik := ontology.IdentityKey(l)
		if ik == "" {
			continue
		}
		v := br.NodeProp(id, ik)
		if !v.IsNull() {
			return "N\x1f" + l + "\x1f" + ik + "\x1f" + tok.identity(br, id, ik, v)
		}
	}
	// No ontology identity: the node is its label set plus content.
	return "N\x1f" + strings.Join(labels, ",") + "\x1f\x1f" + nodeFingerprint(br, id, labels, tok)
}

// nodeFingerprint encodes the node's labels and full property map
// canonically (sorted keys, equality-preserving value tokens).
func nodeFingerprint(br *graph.BulkReader, id graph.NodeID, labels []string, tok tokener) string {
	var kv []string
	br.EachNodePropRef(id, func(k string, kind graph.Kind, ref uint64, v graph.Value) {
		kv = append(kv, k+"="+tok.render(kind, ref, v))
	})
	sort.Strings(kv)
	return strings.Join(labels, ",") + "\x1e" + strings.Join(kv, "\x1e")
}

// relFingerprint encodes the relationship's full property map canonically.
func relFingerprint(br *graph.BulkReader, id graph.RelID, tok tokener) string {
	var kv []string
	br.EachRelPropRef(id, func(k string, kind graph.Kind, ref uint64, v graph.Value) {
		kv = append(kv, k+"="+tok.render(kind, ref, v))
	})
	sort.Strings(kv)
	return strings.Join(kv, "\x1e")
}

func shardOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % diffShards)
}

// shardNodes buckets every live node's entry by identity hash. Workers
// scan disjoint ID ranges into private buckets; buckets concatenate in
// worker order, which is ID order — deterministic at any worker count up
// to within-shard ordering, which diffNodeShard re-sorts anyway.
func shardNodes(ctx context.Context, br *graph.BulkReader, keys []string, workers int, tok tokener) ([][]nodeEntry, error) {
	max := len(keys) - 1
	chunk := (max + workers) / workers
	if chunk < 1 {
		chunk = 1
	}
	type part struct {
		lo      int
		buckets [][]nodeEntry
	}
	var parts []*part
	var wg sync.WaitGroup
	for lo := 1; lo <= max; lo += chunk {
		hi := lo + chunk - 1
		if hi > max {
			hi = max
		}
		p := &part{lo: lo, buckets: make([][]nodeEntry, diffShards)}
		parts = append(parts, p)
		wg.Add(1)
		go func(lo, hi int, p *part) {
			defer wg.Done()
			for id := lo; id <= hi; id++ {
				key := keys[id]
				if key == "" {
					continue
				}
				nid := graph.NodeID(id)
				labels := br.NodeLabels(nid)
				e := nodeEntry{key: key, fp: nodeFingerprint(br, nid, labels, tok), labels: labels}
				s := shardOf(key)
				p.buckets[s] = append(p.buckets[s], e)
			}
		}(lo, hi, p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shards := make([][]nodeEntry, diffShards)
	for _, p := range parts {
		for s := range p.buckets {
			shards[s] = append(shards[s], p.buckets[s]...)
		}
	}
	return shards, nil
}

// shardRels buckets every live relationship's entry by identity hash.
func shardRels(ctx context.Context, br *graph.BulkReader, keys []string, workers int, tok tokener) ([][]relEntry, error) {
	// Collect IDs first so ranges can be split evenly.
	var ids []graph.RelID
	var typs []uint16
	var froms, tos []graph.NodeID
	br.EachRel(func(id graph.RelID, typ uint16, from, to graph.NodeID) bool {
		ids = append(ids, id)
		typs = append(typs, typ)
		froms = append(froms, from)
		tos = append(tos, to)
		return true
	})
	n := len(ids)
	chunk := (n + workers) / workers
	if chunk < 1 {
		chunk = 1
	}
	type part struct {
		buckets [][]relEntry
	}
	var parts []*part
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p := &part{buckets: make([][]relEntry, diffShards)}
		parts = append(parts, p)
		wg.Add(1)
		go func(lo, hi int, p *part) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				id := ids[i]
				typ := br.TypeName(typs[i])
				ds := ""
				if v, ok := br.RelProp(id, ontology.PropReferenceName).AsString(); ok {
					ds = v
				}
				key := "R\x1f" + typ + "\x1f" + keys[froms[i]] + "\x1f" + keys[tos[i]] + "\x1f" + ds
				if ds == "" {
					ds = "(none)"
				}
				e := relEntry{key: key, fp: relFingerprint(br, id, tok), typ: typ, ds: ds}
				s := shardOf(key)
				p.buckets[s] = append(p.buckets[s], e)
			}
		}(lo, hi, p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shards := make([][]relEntry, diffShards)
	for _, p := range parts {
		for s := range p.buckets {
			shards[s] = append(shards[s], p.buckets[s]...)
		}
	}
	return shards, nil
}

// diffNodeShard diffs one shard's node multisets, accumulating per-label
// counters into byLabel and returning the shard's entity totals.
func diffNodeShard(a, b []nodeEntry, byLabel map[string]Totals) Totals {
	var tot Totals
	groupA := map[string][]nodeEntry{}
	for _, e := range a {
		groupA[e.key] = append(groupA[e.key], e)
	}
	groupB := map[string][]nodeEntry{}
	for _, e := range b {
		groupB[e.key] = append(groupB[e.key], e)
	}
	count := func(labels []string, bump func(*Totals)) {
		for _, l := range labels {
			t := byLabel[l]
			bump(&t)
			byLabel[l] = t
		}
	}
	for key, ea := range groupA {
		eb := groupB[key]
		restA, restB := unmatchedNodes(ea, eb)
		// Paired leftovers changed; the excess was removed/added.
		m := min(len(restA), len(restB))
		tot.Changed += m
		for i := 0; i < m; i++ {
			count(restB[i].labels, func(t *Totals) { t.Changed++ })
		}
		tot.Removed += len(restA) - m
		for _, e := range restA[m:] {
			count(e.labels, func(t *Totals) { t.Removed++ })
		}
		tot.Added += len(restB) - m
		for _, e := range restB[m:] {
			count(e.labels, func(t *Totals) { t.Added++ })
		}
	}
	for key, eb := range groupB {
		if _, ok := groupA[key]; ok {
			continue
		}
		tot.Added += len(eb)
		for _, e := range eb {
			count(e.labels, func(t *Totals) { t.Added++ })
		}
	}
	return tot
}

// unmatchedNodes removes exact fingerprint matches (as multisets) and
// returns both leftovers sorted by fingerprint.
func unmatchedNodes(a, b []nodeEntry) (restA, restB []nodeEntry) {
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
	restA = append(restA, a[i:]...)
	restB = append(restB, b[j:]...)
	return restA, restB
}

// diffRelShard is diffNodeShard for relationships, grouping by type and
// provenance dataset.
func diffRelShard(a, b []relEntry, byType, byDS map[string]Totals) Totals {
	var tot Totals
	groupA := map[string][]relEntry{}
	for _, e := range a {
		groupA[e.key] = append(groupA[e.key], e)
	}
	groupB := map[string][]relEntry{}
	for _, e := range b {
		groupB[e.key] = append(groupB[e.key], e)
	}
	count := func(e relEntry, bump func(*Totals)) {
		t := byType[e.typ]
		bump(&t)
		byType[e.typ] = t
		d := byDS[e.ds]
		bump(&d)
		byDS[e.ds] = d
	}
	for key, ea := range groupA {
		eb := groupB[key]
		restA, restB := unmatchedRels(ea, eb)
		m := min(len(restA), len(restB))
		tot.Changed += m
		for i := 0; i < m; i++ {
			count(restB[i], func(t *Totals) { t.Changed++ })
		}
		tot.Removed += len(restA) - m
		for _, e := range restA[m:] {
			count(e, func(t *Totals) { t.Removed++ })
		}
		tot.Added += len(restB) - m
		for _, e := range restB[m:] {
			count(e, func(t *Totals) { t.Added++ })
		}
	}
	for key, eb := range groupB {
		if _, ok := groupA[key]; ok {
			continue
		}
		tot.Added += len(eb)
		for _, e := range eb {
			count(e, func(t *Totals) { t.Added++ })
		}
	}
	return tot
}

func unmatchedRels(a, b []relEntry) (restA, restB []relEntry) {
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
	restA = append(restA, a[i:]...)
	restB = append(restB, b[j:]...)
	return restA, restB
}
