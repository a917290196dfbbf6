package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. IDs are assigned sequentially starting at 1; 0
// is never a valid ID.
type NodeID uint64

// RelID identifies a relationship, with the same conventions as NodeID.
type RelID uint64

type labelID uint16
type typeID uint16

// lsetID names one distinct sorted label combination in the graph's
// label-set dictionary (g.lsets); 0 is always the empty set. Real graphs
// have millions of nodes but only dozens of label combinations, so a node
// carries one 4-byte id instead of a heap-allocated label slice.
type lsetID uint32

// ownerTokens hands out ownership stamps for the copy-on-write machinery.
// Every Graph (fresh, loaded, or cloned) gets a unique token; a node,
// relationship, or index bucket whose stamp differs from its graph's token
// is structurally shared with an older generation and must be copied
// before it is mutated.
var ownerTokens atomic.Uint64

func newOwnerToken() uint64 { return ownerTokens.Add(1) }

// centry is one property in the columnar layout: an interned key id, the
// value kind, and a fixed-size payload. Strings and lists live in the
// lineage-shared Interner and are referenced by id, so a property entry is
// 16 bytes regardless of payload size and values shared across generations
// (or repeated across nodes — provenance strings, dataset URLs) are stored
// once. Entries are kept sorted by key id.
type centry struct {
	key  uint32
	kind Kind
	flag uint8  // bool payload
	num  uint64 // int bits / float bits / string id / list id
}

// ref is the entry's payload as one number: num, or the flag for bools.
func (e centry) ref() uint64 {
	if e.kind == KindBool {
		return uint64(e.flag)
	}
	return e.num
}

// adjEntry is one adjacency-list entry: the relationship's type id in the
// top 16 bits and its RelID in the low 48. A typed scan filters on the
// entry itself and reads a *Rel only for what it keeps.
type adjEntry uint64

const adjRelBits = 48

func mkAdj(t typeID, id RelID) adjEntry { return adjEntry(uint64(t)<<adjRelBits | uint64(id)) }

func (e adjEntry) rel() RelID  { return RelID(e & (1<<adjRelBits - 1)) }
func (e adjEntry) typ() typeID { return typeID(e >> adjRelBits) }

// Node is a labeled property vertex. Fields are unexported; all access goes
// through methods so the store can synchronize and maintain indexes.
type Node struct {
	id     NodeID
	owner  uint64 // COW stamp: which graph generation may mutate this struct
	lset   lsetID // label-set id into the graph's label-set dictionary
	cprops []centry
	out    []adjEntry
	in     []adjEntry
}

// Rel is a typed, directed edge with properties.
type Rel struct {
	id     RelID
	owner  uint64 // COW stamp, as on Node
	typ    typeID
	from   NodeID
	to     NodeID
	cprops []centry
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// ID returns the relationship's identifier.
func (r *Rel) ID() RelID { return r.id }

// From returns the source node ID.
func (r *Rel) From() NodeID { return r.from }

// To returns the destination node ID.
func (r *Rel) To() NodeID { return r.to }

// clone returns a deep-enough copy of n owned by the given generation:
// the property column and adjacency slices are copied; interned payloads
// (immutable) are shared through the dictionary.
func (n *Node) clone(owner uint64) *Node {
	return &Node{
		id:     n.id,
		owner:  owner,
		lset:   n.lset,
		cprops: append([]centry(nil), n.cprops...),
		out:    append([]adjEntry(nil), n.out...),
		in:     append([]adjEntry(nil), n.in...),
	}
}

func (r *Rel) clone(owner uint64) *Rel {
	return &Rel{
		id:     r.id,
		owner:  owner,
		typ:    r.typ,
		from:   r.from,
		to:     r.to,
		cprops: append([]centry(nil), r.cprops...),
	}
}

// propIdxID names one (label, property-key) index; the key is an Interner
// string id, so building and probing indexes never hashes key strings.
type propIdxID struct {
	label labelID
	key   uint32
}

// idSet is a node-ID set with a COW ownership stamp — the bucket type of
// the label index and of each property-index value bucket. It is a hybrid
// of a sorted base slice and a small delta: bulk builds and snapshot loads
// append monotonically increasing IDs straight onto the base (dense,
// cache-friendly, and shared wholesale by COW clones), while out-of-order
// additions and deletions land in the delta, which folds back into a fresh
// base once it outgrows an eighth of it. A clone shares the base and copies
// only the delta, so cloning a million-node label bucket is O(delta), not
// O(members).
//
// In-order appends write into a shared base in place when they can. The
// backing array of a set of at least claimMin members carries a claim word
// recording how far the array has been written, and a set appends at its
// length only after moving the claim from that length to the next. That is
// safe because a frozen parent reads only base[:its len], two sibling clones
// can never win the same slot, and a discarded clone's claim only makes the
// next sibling copy. Smaller sets are shared capacity-capped instead, so
// their first append in a clone copies them.
type idSet struct {
	owner uint64
	base  []NodeID      // sorted ascending
	claim *atomic.Int64 // written length of base's backing array; nil when unclaimed
	delta *setDelta     // nil when the base is the whole set
}

// setDelta overrides an idSet's base: true = added (not in base), false =
// removed from base; n is the net membership change.
type setDelta struct {
	m map[NodeID]bool
	n int
}

// claimMin is the member count from which a reallocated base gets a claim
// word: below it, copying the set on its first append in a clone is cheaper
// than the word.
const claimMin = 64

func newIDSet(owner uint64) *idSet {
	return &idSet{owner: owner}
}

func (s *idSet) clone(owner uint64) *idSet {
	c := &idSet{owner: owner, base: s.base, claim: s.claim}
	if s.claim == nil {
		// Full slice expression: a sibling clone appending to the shared
		// unclaimed array must reallocate rather than write into our view.
		c.base = s.base[:len(s.base):len(s.base)]
	}
	if s.delta != nil {
		c.delta = &setDelta{m: maps.Clone(s.delta.m), n: s.delta.n}
	}
	return c
}

// size returns the live membership count.
func (s *idSet) size() int {
	if s.delta == nil {
		return len(s.base)
	}
	return len(s.base) + s.delta.n
}

func (s *idSet) inBase(id NodeID) bool {
	i := sort.Search(len(s.base), func(i int) bool { return s.base[i] >= id })
	return i < len(s.base) && s.base[i] == id
}

// override reports id's entry in the delta, if any.
func (s *idSet) override(id NodeID) (in, ok bool) {
	if s.delta == nil {
		return false, false
	}
	in, ok = s.delta.m[id]
	return in, ok
}

func (s *idSet) has(id NodeID) bool {
	if in, ok := s.override(id); ok {
		return in
	}
	return s.inBase(id)
}

func (s *idSet) add(id NodeID) {
	if in, ok := s.override(id); ok {
		if !in {
			s.unmark(id, +1) // back into the base
		}
		return
	}
	if s.inBase(id) {
		return
	}
	if len(s.base) == 0 || id > s.base[len(s.base)-1] {
		s.push(id) // in-order fast path
		return
	}
	s.mark(id, true)
}

func (s *idSet) remove(id NodeID) {
	if in, ok := s.override(id); ok {
		if in {
			s.unmark(id, -1)
		}
		return
	}
	if s.inBase(id) {
		s.mark(id, false)
	}
}

// push appends id, larger than every member, to the base: in place when
// the array has room and is unclaimed or this set wins the claim, by
// reallocating otherwise.
func (s *idSet) push(id NodeID) {
	l := len(s.base)
	if l < cap(s.base) && (s.claim == nil || s.claim.CompareAndSwap(int64(l), int64(l+1))) {
		s.base = append(s.base, id)
		return
	}
	s.base = append(s.base[:l:l], id)
	s.claim = nil
	if l+1 >= claimMin {
		s.claim = new(atomic.Int64)
		s.claim.Store(int64(l + 1))
	}
}

// mark records id in the delta as added (in) or removed, folding the delta
// into a fresh base once it outgrows an eighth of the base: otherwise every
// later clone copies it and every read merges it.
func (s *idSet) mark(id NodeID, in bool) {
	if s.delta == nil {
		s.delta = &setDelta{m: make(map[NodeID]bool)}
	}
	s.delta.m[id] = in
	if in {
		s.delta.n++
	} else {
		s.delta.n--
	}
	if len(s.delta.m) > len(s.base)/8+32 {
		s.base, s.claim, s.delta = s.sorted(), nil, nil
	}
}

// unmark drops id's delta entry; dn is the membership change that makes.
func (s *idSet) unmark(id NodeID, dn int) {
	delete(s.delta.m, id)
	s.delta.n += dn
	if len(s.delta.m) == 0 {
		s.delta = nil
	}
}

// sorted returns the live members ascending. When the set has no delta the
// base is returned directly — callers must treat the result as read-only.
func (s *idSet) sorted() []NodeID {
	if s.delta == nil {
		return s.base
	}
	var added []NodeID
	for id, in := range s.delta.m {
		if in {
			added = append(added, id)
		}
	}
	slices.Sort(added)
	out := make([]NodeID, 0, s.size())
	ai := 0
	for _, id := range s.base {
		for ai < len(added) && added[ai] < id {
			out = append(out, added[ai])
			ai++
		}
		if in, ok := s.delta.m[id]; ok && !in {
			continue
		}
		out = append(out, id)
	}
	out = append(out, added[ai:]...)
	return out
}

// each calls fn for every live member in ascending order until fn returns
// false.
func (s *idSet) each(fn func(NodeID) bool) {
	for _, id := range s.sorted() {
		if !fn(id) {
			return
		}
	}
}

// min returns the smallest live member (0 when empty).
func (s *idSet) min() NodeID {
	if s.delta == nil {
		if len(s.base) == 0 {
			return 0
		}
		return s.base[0]
	}
	var best NodeID
	s.each(func(id NodeID) bool {
		best = id
		return false
	})
	return best
}

// ckey is the columnar index-bucket key: the value kind plus a fixed-size
// payload in which strings and lists appear as Interner ids. Probing an
// index with a string no node carries therefore fails at the dictionary
// lookup, before touching any bucket. Integral floats normalize to the int
// encoding so Int(2) and Float(2.0) collide, matching Value.Equal — the
// same invariant indexKey (value.go) maintains for DISTINCT/grouping.
type ckey struct {
	kind Kind
	b    bool
	num  uint64
}

// Graph is the in-memory property graph. All exported methods are safe for
// concurrent use; reads on a live graph proceed in parallel under an
// RWMutex, while reads on a frozen graph (see Freeze) skip the lock
// entirely — a frozen graph is an immutable generation and its read path
// is lock-free by construction.
type Graph struct {
	mu sync.RWMutex

	// frozen marks the graph an immutable generation: reads skip the lock,
	// mutations panic (ApplyBatch returns ErrFrozen). Set once by Freeze,
	// which must happen-before the graph is shared with lock-free readers
	// (MVStore publishes frozen graphs through an atomic pointer, which
	// provides that ordering).
	frozen bool
	// owner is this graph's COW stamp (see ownerTokens).
	owner uint64

	// dict is the lineage-shared string/list dictionary. Clones share it;
	// loaders may be seeded with an existing one (replica reloads, delta
	// builds) so unchanged strings are reused instead of re-allocated.
	dict *Interner

	labelNames []string
	labelIDs   map[string]labelID
	typeNames  []string
	typeIDs    map[string]typeID

	// lsets is the label-set dictionary: lsetID → sorted label ids.
	// Entry 0 is the empty set. Append-only; clones share the table
	// (capacity-capped) and copy the small lookup map.
	lsets   [][]labelID
	lsetIDs map[string]lsetID

	nodes slots[Node] // slot id-1; nil = deleted
	rels  slots[Rel]

	labelIdx map[labelID]*idSet
	propIdx  map[propIdxID]*propIndex

	nodeCount int
	relCount  int

	// Planner statistics, maintained incrementally alongside the indexes
	// (and rebuilt in one pass on snapshot load): live relationship count
	// per type, and the number of nodes per (label, property-key) pair.
	// Guarded by mu; see stats.go for the read API.
	typeCounts    []int
	labelKeyCount map[propIdxID]int

	// version counts mutations; derived read-optimized structures (the
	// analytics CSR views) key their caches on it. Guarded by mu.
	version uint64
}

// New returns an empty graph with a fresh dictionary.
func New() *Graph {
	return NewWithInterner(NewInterner())
}

// NewWithInterner returns an empty graph whose string/list payloads intern
// into dict. Sharing a dictionary across graphs is always safe (ids are
// content-addressed); it is how replicas and delta builds reuse a previous
// generation's strings.
func NewWithInterner(dict *Interner) *Graph {
	if dict == nil {
		dict = NewInterner()
	}
	return &Graph{
		owner:         newOwnerToken(),
		dict:          dict,
		labelIDs:      make(map[string]labelID),
		typeIDs:       make(map[string]typeID),
		lsets:         make([][]labelID, 1), // entry 0: the empty label set
		lsetIDs:       make(map[string]lsetID),
		labelIdx:      make(map[labelID]*idSet),
		propIdx:       make(map[propIdxID]*propIndex),
		labelKeyCount: make(map[propIdxID]int),
	}
}

// Interner returns the graph's dictionary. Callers use it to seed another
// load (replica delta reloads) or to translate payload ids between graphs
// (the temporal diff's Translator).
func (g *Graph) Interner() *Interner { return g.dict }

// --- freezing & copy-on-write cloning (the MVCC substrate) ---

// Freeze marks the graph an immutable generation. From then on every read
// accessor is lock-free and every mutation panics (ApplyBatch returns
// ErrFrozen instead). Freeze must not race with writers: callers freeze a
// graph only once it has a single owner (a finished build, or a clone
// about to be published). It returns g for chaining.
func (g *Graph) Freeze() *Graph {
	g.mu.Lock()
	g.frozen = true
	g.mu.Unlock()
	return g
}

// Frozen reports whether the graph is an immutable generation.
func (g *Graph) Frozen() bool { return g.frozen }

// Clone returns a mutable copy-on-write graph derived from a frozen
// generation. It copies the small top-level tables and the slot tables'
// page directories (N/4096 pointers each) and shares everything else: a
// later write copies only the page, index shard directory (N/64 pointers),
// shard, node, relationship or bucket it lands in, and the append-only
// dictionaries are never copied. The parent stays frozen and is never
// touched; this is how a writer builds generation N+1 while generation N
// keeps serving lock-free readers.
func (g *Graph) Clone() *Graph {
	if !g.frozen {
		panic("graph: Clone of a live graph (Freeze it first — only immutable generations can be cloned safely)")
	}
	ng := &Graph{
		owner:         newOwnerToken(),
		dict:          g.dict,
		labelNames:    append([]string(nil), g.labelNames...),
		labelIDs:      make(map[string]labelID, len(g.labelIDs)),
		typeNames:     append([]string(nil), g.typeNames...),
		typeIDs:       make(map[string]typeID, len(g.typeIDs)),
		lsets:         g.lsets[:len(g.lsets):len(g.lsets)],
		lsetIDs:       make(map[string]lsetID, len(g.lsetIDs)),
		nodes:         g.nodes.clone(),
		rels:          g.rels.clone(),
		labelIdx:      make(map[labelID]*idSet, len(g.labelIdx)),
		propIdx:       make(map[propIdxID]*propIndex, len(g.propIdx)),
		nodeCount:     g.nodeCount,
		relCount:      g.relCount,
		typeCounts:    append([]int(nil), g.typeCounts...),
		labelKeyCount: make(map[propIdxID]int, len(g.labelKeyCount)),
		version:       g.version,
	}
	for k, v := range g.labelIDs {
		ng.labelIDs[k] = v
	}
	for k, v := range g.typeIDs {
		ng.typeIDs[k] = v
	}
	for k, v := range g.lsetIDs {
		ng.lsetIDs[k] = v
	}
	for k, v := range g.labelIdx {
		ng.labelIdx[k] = v // shared; mutLabelSet copies on first write
	}
	for k, v := range g.propIdx {
		ng.propIdx[k] = v // shared; mutIndex copies on first write
	}
	for k, v := range g.labelKeyCount {
		ng.labelKeyCount[k] = v
	}
	return ng
}

// checkMutable panics when the graph is frozen. Called (with mu held) at
// the top of every mutating method: writing to a published generation is a
// programming error, never a recoverable condition.
func (g *Graph) checkMutable() {
	if g.frozen {
		panic("graph: mutation of a frozen generation (Clone it to build the next one)")
	}
}

// rlock/runlock take the read lock only on live graphs; frozen generations
// are immutable, so their readers skip the lock entirely.
func (g *Graph) rlock() {
	if !g.frozen {
		g.mu.RLock()
	}
}

func (g *Graph) runlock() {
	if !g.frozen {
		g.mu.RUnlock()
	}
}

// --- COW mutation helpers (callers hold mu on a live graph) ---

// mutNode returns the node for id, first copying it into this generation
// if it is still shared with a frozen parent. Returns nil for dead IDs.
func (g *Graph) mutNode(id NodeID) *Node {
	n := g.node(id)
	if n == nil || n.owner == g.owner {
		return n
	}
	c := n.clone(g.owner)
	g.nodes.set(int(id-1), c, g.owner)
	return c
}

// mutRel is mutNode for relationships.
func (g *Graph) mutRel(id RelID) *Rel {
	r := g.rel(id)
	if r == nil || r.owner == g.owner {
		return r
	}
	c := r.clone(g.owner)
	g.rels.set(int(id-1), c, g.owner)
	return c
}

// mutLabelSet returns the label bucket for lid, creating it if absent and
// copying it into this generation if shared.
func (g *Graph) mutLabelSet(lid labelID) *idSet {
	s := g.labelIdx[lid]
	if s == nil {
		s = newIDSet(g.owner)
		g.labelIdx[lid] = s
		return s
	}
	if s.owner != g.owner {
		s = s.clone(g.owner)
		g.labelIdx[lid] = s
	}
	return s
}

// mutIndex returns the property index for pid with its shard directory
// owned by this generation (shards and leaf sets stay shared until
// mutBucket). Nil when no index exists on pid.
func (g *Graph) mutIndex(pid propIdxID) *propIndex {
	idx := g.propIdx[pid]
	if idx == nil {
		return nil
	}
	if idx.owner != g.owner {
		idx = &propIndex{owner: g.owner, shards: slices.Clone(idx.shards), shift: idx.shift, n: idx.n}
		g.propIdx[pid] = idx
	}
	return idx
}

// --- interning (callers hold mu) ---

func (g *Graph) internLabel(name string) labelID {
	if id, ok := g.labelIDs[name]; ok {
		return id
	}
	id := labelID(len(g.labelNames))
	g.labelNames = append(g.labelNames, name)
	g.labelIDs[name] = id
	return id
}

func (g *Graph) internType(name string) typeID {
	if id, ok := g.typeIDs[name]; ok {
		return id
	}
	id := typeID(len(g.typeNames))
	g.typeNames = append(g.typeNames, name)
	g.typeCounts = append(g.typeCounts, 0)
	g.typeIDs[name] = id
	return id
}

// internLset returns the label-set id for the (sorted) label combination,
// appending a new dictionary entry on first sight. The append copies the
// table when it is shared with a frozen parent (capacity-capped by Clone),
// so a parent generation's table is never written through.
func (g *Graph) internLset(ls []labelID) lsetID {
	if len(ls) == 0 {
		return 0
	}
	// The key is built on the stack and probed without a conversion; only
	// a new combination allocates.
	var buf [16]byte
	key := buf[:0]
	for _, l := range ls {
		key = append(key, byte(l>>8), byte(l))
	}
	if id, ok := g.lsetIDs[string(key)]; ok {
		return id
	}
	id := lsetID(len(g.lsets))
	g.lsets = append(g.lsets, append([]labelID(nil), ls...))
	g.lsetIDs[string(key)] = id
	return id
}

// nodeLabels resolves a node's label-set id to the (shared, do-not-mutate)
// sorted label-id slice.
func (g *Graph) nodeLabels(n *Node) []labelID { return g.lsets[n.lset] }

// Labels returns all label names ever used, sorted.
func (g *Graph) Labels() []string {
	g.rlock()
	defer g.runlock()
	out := make([]string, len(g.labelNames))
	copy(out, g.labelNames)
	sort.Strings(out)
	return out
}

// RelTypes returns all relationship type names ever used, sorted.
func (g *Graph) RelTypes() []string {
	g.rlock()
	defer g.runlock()
	out := make([]string, len(g.typeNames))
	copy(out, g.typeNames)
	sort.Strings(out)
	return out
}

// --- columnar value encoding (callers hold mu on live graphs) ---

// encEntry encodes a property value into a 16-byte column entry, interning
// string and list payloads.
func (g *Graph) encEntry(key uint32, v Value) centry {
	e := centry{key: key, kind: v.kind}
	switch v.kind {
	case KindBool:
		if v.b {
			e.flag = 1
		}
	case KindInt:
		e.num = uint64(v.i)
	case KindFloat:
		e.num = math.Float64bits(v.f)
	case KindString:
		e.num = uint64(g.dict.intern(v.s))
	case KindList:
		e.num = uint64(g.dict.internListKey(listDedupKey(v.list), v.list))
	}
	return e
}

// decEntry materializes a column entry back into a Value. String and list
// payloads are shared with the dictionary, not copied.
func (g *Graph) decEntry(e centry) Value {
	switch e.kind {
	case KindBool:
		return Value{kind: KindBool, b: e.flag != 0}
	case KindInt:
		return Value{kind: KindInt, i: int64(e.num)}
	case KindFloat:
		return Value{kind: KindFloat, f: math.Float64frombits(e.num)}
	case KindString:
		return Value{kind: KindString, s: g.dict.str(uint32(e.num))}
	case KindList:
		return Value{kind: KindList, list: g.dict.list(uint32(e.num))}
	}
	return Value{}
}

// entryKey converts a stored column entry to its index-bucket key without
// materializing the value: interned ids pass through, integral floats
// normalize to the int encoding (the Value.Equal invariant).
func (g *Graph) entryKey(e centry) ckey {
	switch e.kind {
	case KindBool:
		return ckey{kind: KindBool, b: e.flag != 0}
	case KindInt:
		return ckey{kind: KindInt, num: e.num}
	case KindFloat:
		f := math.Float64frombits(e.num)
		if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
			return ckey{kind: KindInt, num: uint64(int64(f))}
		}
		return ckey{kind: KindFloat, num: e.num}
	case KindList:
		// Lists key by their normalized flattened encoding (see Value.key)
		// so numerically-equal elements of different kinds still collide.
		return ckey{kind: KindList, num: uint64(g.dict.intern(g.decEntry(e).key().s))}
	case KindString:
		return ckey{kind: KindString, num: e.num}
	}
	return ckey{kind: KindNull}
}

// internKey converts a Value to its index-bucket key on the write path,
// interning payloads as needed.
func (g *Graph) internKey(v Value) ckey {
	switch v.kind {
	case KindBool:
		return ckey{kind: KindBool, b: v.b}
	case KindInt:
		return ckey{kind: KindInt, num: uint64(v.i)}
	case KindFloat:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
			return ckey{kind: KindInt, num: uint64(int64(v.f))}
		}
		return ckey{kind: KindFloat, num: math.Float64bits(v.f)}
	case KindString:
		return ckey{kind: KindString, num: uint64(g.dict.intern(v.s))}
	case KindList:
		return ckey{kind: KindList, num: uint64(g.dict.intern(v.key().s))}
	}
	return ckey{kind: KindNull}
}

// probeKey converts a Value to its index-bucket key on the read path. ok is
// false when the value's payload is not in the dictionary — no stored value
// can equal it, so the probe can return empty without touching a bucket.
func (g *Graph) probeKey(v Value) (ckey, bool) {
	switch v.kind {
	case KindString:
		id, ok := g.dict.Lookup(v.s)
		if !ok {
			return ckey{}, false
		}
		return ckey{kind: KindString, num: uint64(id)}, true
	case KindList:
		id, ok := g.dict.Lookup(v.key().s)
		if !ok {
			return ckey{}, false
		}
		return ckey{kind: KindList, num: uint64(id)}, true
	default:
		return g.internKey(v), true
	}
}

// findEntry locates keyID in a sorted property column: the index of its
// entry, or where one would be inserted. Every property read calls it, so
// it is a hand-written binary search rather than sort.Search, whose
// closure is not inlined.
func findEntry(cp []centry, keyID uint32) (int, bool) {
	lo, hi := 0, len(cp)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cp[mid].key < keyID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(cp) && cp[lo].key == keyID
}

// encodeProps converts a boxed property map into a sorted column.
func (g *Graph) encodeProps(p Props) []centry {
	if len(p) == 0 {
		return nil
	}
	// Intern in sorted-key order: global dictionary ids are assigned on
	// first sight, so iterating the map directly would make id assignment
	// (and with it snapshot bytes) depend on map iteration order.
	cp := make([]centry, 0, len(p))
	for _, k := range p.Keys() {
		cp = append(cp, g.encEntry(g.dict.intern(k), p[k]))
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i].key < cp[j].key })
	return cp
}

// decodeProps materializes a column back into a boxed map (the public
// NodeProps/RelProps view).
func (g *Graph) decodeProps(cp []centry) Props {
	out := make(Props, len(cp))
	for _, e := range cp {
		out[g.dict.str(e.key)] = g.decEntry(e)
	}
	return out
}

// --- node lifecycle ---

// AddNode creates a node with the given labels and a copy of props.
func (g *Graph) AddNode(labels []string, props Props) NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	return g.addNodeLocked(labels, props)
}

func (g *Graph) addNodeLocked(labels []string, props Props) NodeID {
	g.version++
	n := &Node{
		id:     NodeID(g.nodes.n + 1),
		owner:  g.owner,
		cprops: g.encodeProps(props),
	}
	var ls []labelID
	for _, l := range labels {
		ls = insertLabel(ls, g.internLabel(l))
	}
	n.lset = g.internLset(ls)
	g.nodes.push(n, g.owner)
	g.nodeCount++
	for _, lid := range ls {
		g.indexNodeLabelLocked(n, lid)
	}
	return n.id
}

func insertLabel(ls []labelID, l labelID) []labelID {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	if i < len(ls) && ls[i] == l {
		return ls
	}
	ls = append(ls, 0)
	copy(ls[i+1:], ls[i:])
	ls[i] = l
	return ls
}

func (g *Graph) indexNodeLabelLocked(n *Node, lid labelID) {
	g.mutLabelSet(lid).add(n.id)
	// Populate any property indexes that exist for this label, and count
	// the node into the (label, key) statistics.
	for _, e := range n.cprops {
		g.propIndexAddLocked(lid, e, n.id)
		g.labelKeyCount[propIdxID{lid, e.key}]++
	}
}

func (g *Graph) propIndexAddLocked(lid labelID, e centry, id NodeID) {
	pid := propIdxID{lid, e.key}
	if g.propIdx[pid] == nil {
		return
	}
	idx := g.mutIndex(pid)
	idx.mutBucket(g.entryKey(e), g.owner).add(id)
}

func (g *Graph) propIndexRemoveLocked(lid labelID, e centry, id NodeID) {
	pid := propIdxID{lid, e.key}
	idx := g.propIdx[pid]
	if idx == nil {
		return
	}
	k := g.entryKey(e)
	s := idx.get(k)
	if s == nil || !s.has(id) {
		return
	}
	idx = g.mutIndex(pid)
	if s.size() == 1 {
		// Removing the last member: drop the bucket from the (owned)
		// shard; the shared leaf set itself is untouched.
		delete(idx.mutShard(k, g.owner).buckets, k)
		idx.n--
		return
	}
	idx.mutBucket(k, g.owner).remove(id)
}

// node returns the live node for id (callers hold mu).
func (g *Graph) node(id NodeID) *Node {
	if id == 0 || int(id) > g.nodes.n {
		return nil
	}
	return g.nodes.at(int(id - 1))
}

func (g *Graph) rel(id RelID) *Rel {
	if id == 0 || int(id) > g.rels.n {
		return nil
	}
	return g.rels.at(int(id - 1))
}

// HasNode reports whether id refers to a live node.
func (g *Graph) HasNode(id NodeID) bool {
	g.rlock()
	defer g.runlock()
	return g.node(id) != nil
}

// AddLabel adds a label to an existing node.
func (g *Graph) AddLabel(id NodeID, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	if g.node(id) == nil {
		return fmt.Errorf("graph: no node %d", id)
	}
	g.addLabelLocked(id, label)
	return nil
}

func (g *Graph) addLabelLocked(id NodeID, label string) {
	g.version++
	n := g.mutNode(id)
	lid := g.internLabel(label)
	old := g.nodeLabels(n)
	nl := insertLabel(append([]labelID(nil), old...), lid)
	if len(nl) == len(old) {
		return // already present
	}
	n.lset = g.internLset(nl)
	g.indexNodeLabelLocked(n, lid)
}

// NodeLabels returns the node's labels, sorted by name.
func (g *Graph) NodeLabels(id NodeID) []string {
	g.rlock()
	defer g.runlock()
	n := g.node(id)
	if n == nil {
		return nil
	}
	ls := g.nodeLabels(n)
	out := make([]string, len(ls))
	for i, lid := range ls {
		out[i] = g.labelNames[lid]
	}
	sort.Strings(out)
	return out
}

// NodeHasLabel reports whether the node carries label.
func (g *Graph) NodeHasLabel(id NodeID, label string) bool {
	lid, ok := g.LabelID(label)
	return ok && g.NodeHasLabelID(id, lid)
}

// NodeHasLabelID is NodeHasLabel for a label resolved by LabelID.
func (g *Graph) NodeHasLabelID(id NodeID, lid uint16) bool {
	g.rlock()
	defer g.runlock()
	return g.hasLabel(id, lid)
}

func (g *Graph) hasLabel(id NodeID, lid uint16) bool {
	n := g.node(id)
	if n == nil {
		return false
	}
	_, ok := slices.BinarySearch(g.nodeLabels(n), labelID(lid))
	return ok
}

// LabelID, TypeID and KeyID resolve a label, relationship type or property
// key name to the id the graph stores it under. ok is false for a name the
// graph has never stored, which therefore matches nothing. A caller that
// resolves a pattern once reads through the ...ID accessors and Rels with
// no name lookups.
func (g *Graph) LabelID(name string) (uint16, bool) {
	g.rlock()
	defer g.runlock()
	id, ok := g.labelIDs[name]
	return uint16(id), ok
}

func (g *Graph) TypeID(name string) (uint16, bool) {
	g.rlock()
	defer g.runlock()
	id, ok := g.typeIDs[name]
	return uint16(id), ok
}

func (g *Graph) KeyID(name string) (uint32, bool) { return g.dict.Lookup(name) }

// SetNodeProp sets (or with a Null value, clears) a node property,
// maintaining any property indexes.
func (g *Graph) SetNodeProp(id NodeID, key string, v Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	if g.node(id) == nil {
		return fmt.Errorf("graph: no node %d", id)
	}
	g.setNodePropLocked(id, key, v)
	return nil
}

func (g *Graph) setNodePropLocked(id NodeID, key string, v Value) {
	g.version++
	n := g.mutNode(id)
	keyID := g.dict.intern(key)
	i, had := findEntry(n.cprops, keyID)
	if had {
		old := n.cprops[i]
		for _, lid := range g.nodeLabels(n) {
			g.propIndexRemoveLocked(lid, old, id)
		}
	}
	if v.IsNull() {
		if had {
			n.cprops = append(n.cprops[:i], n.cprops[i+1:]...)
			for _, lid := range g.nodeLabels(n) {
				g.statPropRemoveLocked(lid, keyID)
			}
		}
		return
	}
	e := g.encEntry(keyID, v)
	if had {
		n.cprops[i] = e
	} else {
		n.cprops = append(n.cprops, centry{})
		copy(n.cprops[i+1:], n.cprops[i:])
		n.cprops[i] = e
	}
	for _, lid := range g.nodeLabels(n) {
		g.propIndexAddLocked(lid, e, id)
		if !had {
			g.labelKeyCount[propIdxID{lid, keyID}]++
		}
	}
}

// statPropRemoveLocked decrements the (label, key) node count, dropping the
// entry at zero so the statistics map doesn't accumulate dead pairs.
func (g *Graph) statPropRemoveLocked(lid labelID, keyID uint32) {
	pid := propIdxID{lid, keyID}
	if c := g.labelKeyCount[pid]; c <= 1 {
		delete(g.labelKeyCount, pid)
	} else {
		g.labelKeyCount[pid] = c - 1
	}
}

// NodeProp returns a node property (Null when absent or node missing).
func (g *Graph) NodeProp(id NodeID, key string) Value {
	keyID, ok := g.dict.Lookup(key)
	if !ok {
		return Null()
	}
	return g.NodePropByID(id, keyID)
}

// NodePropByID is NodeProp for a key resolved by KeyID.
func (g *Graph) NodePropByID(id NodeID, key uint32) Value {
	g.rlock()
	defer g.runlock()
	if n := g.node(id); n != nil {
		return g.propIn(n.cprops, key)
	}
	return Null()
}

// NodePropIsString reports whether the node's property key holds the
// string whose dictionary id is str (Interner.Lookup): a compare of the
// stored cell that reads no string.
func (g *Graph) NodePropIsString(id NodeID, key, str uint32) bool {
	g.rlock()
	defer g.runlock()
	n := g.node(id)
	return n != nil && cellIsString(n.cprops, key, str)
}

func (g *Graph) propIn(cp []centry, key uint32) Value {
	if i, had := findEntry(cp, key); had {
		return g.decEntry(cp[i])
	}
	return Null()
}

func cellIsString(cp []centry, key, str uint32) bool {
	i, had := findEntry(cp, key)
	return had && cp[i].kind == KindString && cp[i].num == uint64(str)
}

// NodeProps returns the node's properties as a boxed map (materialized
// from the property column; string payloads are shared, not copied).
func (g *Graph) NodeProps(id NodeID) Props {
	g.rlock()
	defer g.runlock()
	n := g.node(id)
	if n == nil {
		return nil
	}
	return g.decodeProps(n.cprops)
}

// DeleteNode removes a node and all its relationships (DETACH DELETE).
func (g *Graph) DeleteNode(id NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	n := g.node(id)
	if n == nil {
		return fmt.Errorf("graph: no node %d", id)
	}
	g.version++
	for _, e := range append(append([]adjEntry{}, n.out...), n.in...) {
		if r := g.rel(e.rel()); r != nil {
			g.deleteRelLocked(r)
		}
	}
	// deleteRelLocked may have COW-copied the node (self-loops); n itself
	// is only read below, so the stale pointer is fine for props/labels.
	for _, lid := range g.nodeLabels(n) {
		g.mutLabelSet(lid).remove(id)
		for _, e := range n.cprops {
			g.propIndexRemoveLocked(lid, e, id)
			g.statPropRemoveLocked(lid, e.key)
		}
	}
	g.nodes.set(int(id-1), nil, g.owner)
	g.nodeCount--
	return nil
}

// --- relationships ---

// AddRel creates a relationship of the given type from→to with a copy of
// props.
func (g *Graph) AddRel(typ string, from, to NodeID, props Props) (RelID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	return g.addRelLocked(typ, from, to, props)
}

func (g *Graph) addRelLocked(typ string, from, to NodeID, props Props) (RelID, error) {
	if g.node(from) == nil || g.node(to) == nil {
		return 0, fmt.Errorf("graph: relationship %s endpoints %d->%d: missing node", typ, from, to)
	}
	g.version++
	r := &Rel{
		id:     RelID(g.rels.n + 1),
		owner:  g.owner,
		typ:    g.internType(typ),
		from:   from,
		to:     to,
		cprops: g.encodeProps(props),
	}
	g.rels.push(r, g.owner)
	g.relCount++
	g.typeCounts[r.typ]++
	fn := g.mutNode(from)
	fn.out = append(fn.out, mkAdj(r.typ, r.id))
	tn := g.mutNode(to)
	tn.in = append(tn.in, mkAdj(r.typ, r.id))
	return r.id, nil
}

func (g *Graph) deleteRelLocked(r *Rel) {
	g.version++
	if fn := g.mutNode(r.from); fn != nil {
		fn.out = removeID(fn.out, r.id)
	}
	if tn := g.mutNode(r.to); tn != nil {
		tn.in = removeID(tn.in, r.id)
	}
	g.rels.set(int(r.id-1), nil, g.owner)
	g.relCount--
	g.typeCounts[r.typ]--
}

func removeID(adj []adjEntry, id RelID) []adjEntry {
	for i, e := range adj {
		if e.rel() == id {
			return append(adj[:i], adj[i+1:]...)
		}
	}
	return adj
}

// DeleteRel removes a relationship.
func (g *Graph) DeleteRel(id RelID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	r := g.rel(id)
	if r == nil {
		return fmt.Errorf("graph: no relationship %d", id)
	}
	g.deleteRelLocked(r)
	return nil
}

// RelType returns the relationship's type name.
func (g *Graph) RelType(id RelID) string {
	g.rlock()
	defer g.runlock()
	r := g.rel(id)
	if r == nil {
		return ""
	}
	return g.typeNames[r.typ]
}

// RelTypeID returns the relationship's type id (see TypeID); ok is false
// for a dead id.
func (g *Graph) RelTypeID(id RelID) (uint16, bool) {
	g.rlock()
	defer g.runlock()
	r := g.rel(id)
	if r == nil {
		return 0, false
	}
	return uint16(r.typ), true
}

// RelEndpoints returns the from and to node IDs (0,0 when missing).
func (g *Graph) RelEndpoints(id RelID) (NodeID, NodeID) {
	g.rlock()
	defer g.runlock()
	r := g.rel(id)
	if r == nil {
		return 0, 0
	}
	return r.from, r.to
}

// SetRelProp sets (or clears, with Null) a relationship property.
func (g *Graph) SetRelProp(id RelID, key string, v Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	if g.rel(id) == nil {
		return fmt.Errorf("graph: no relationship %d", id)
	}
	g.version++
	r := g.mutRel(id)
	keyID := g.dict.intern(key)
	i, had := findEntry(r.cprops, keyID)
	if v.IsNull() {
		if had {
			r.cprops = append(r.cprops[:i], r.cprops[i+1:]...)
		}
		return nil
	}
	e := g.encEntry(keyID, v)
	if had {
		r.cprops[i] = e
	} else {
		r.cprops = append(r.cprops, centry{})
		copy(r.cprops[i+1:], r.cprops[i:])
		r.cprops[i] = e
	}
	return nil
}

// RelProp returns a relationship property (Null when absent).
func (g *Graph) RelProp(id RelID, key string) Value {
	keyID, ok := g.dict.Lookup(key)
	if !ok {
		return Null()
	}
	return g.RelPropByID(id, keyID)
}

// RelPropByID is RelProp for a key resolved by KeyID.
func (g *Graph) RelPropByID(id RelID, key uint32) Value {
	g.rlock()
	defer g.runlock()
	if r := g.rel(id); r != nil {
		return g.propIn(r.cprops, key)
	}
	return Null()
}

// RelPropIsString is NodePropIsString for a relationship property.
func (g *Graph) RelPropIsString(id RelID, key, str uint32) bool {
	g.rlock()
	defer g.runlock()
	r := g.rel(id)
	return r != nil && cellIsString(r.cprops, key, str)
}

// RelProps returns the relationship's properties as a boxed map.
func (g *Graph) RelProps(id RelID) Props {
	g.rlock()
	defer g.runlock()
	r := g.rel(id)
	if r == nil {
		return nil
	}
	return g.decodeProps(r.cprops)
}

// --- traversal ---

// Dir selects traversal direction relative to a node.
type Dir uint8

const (
	// DirOut follows relationships leaving the node.
	DirOut Dir = iota
	// DirIn follows relationships entering the node.
	DirIn
	// DirBoth follows relationships in either direction.
	DirBoth
)

// Rels appends to buf the IDs of relationships incident to node id in the
// given direction whose type is one of types, as resolved by TypeID
// (empty = every type). It returns the extended buffer, enabling allocation
// reuse in the query executor's hot path: the type filter reads the
// adjacency entries alone, so a call whose buf has room allocates nothing
// and touches a relationship only to drop a self-loop's second sighting.
func (g *Graph) Rels(id NodeID, dir Dir, types []uint16, buf []RelID) []RelID {
	buf, _ = g.RelsAt(id, dir, types, 0, math.MaxInt, buf)
	return buf
}

// RelsAt is Rels over a stretch of node id's adjacency: it appends at most
// limit of the relationships Rels lists, reading adjacency entries from
// position from on, and returns the extended buffer and the position after
// the last entry it read, where the next stretch starts. Positions number
// the out entries and then the in entries, whatever dir is, so a walk that
// starts at 0 and goes on from each returned position lists exactly what
// Rels lists, in its order, and a stretch read again from the same
// position lists the same relationships.
func (g *Graph) RelsAt(id NodeID, dir Dir, types []uint16, from, limit int, buf []RelID) ([]RelID, int) {
	g.rlock()
	defer g.runlock()
	n := g.node(id)
	if n == nil {
		return buf, from
	}
	pos, kept := from, 0
	if dir != DirIn {
		for ; pos < len(n.out) && kept < limit; pos++ {
			if e := n.out[pos]; ofType(e, types) {
				buf = append(buf, e.rel())
				kept++
			}
		}
	}
	if dir != DirOut && kept < limit {
		for pos = max(pos, len(n.out)); pos < len(n.out)+len(n.in) && kept < limit; pos++ {
			// A self-loop already appeared in the out entries.
			if e := n.in[pos-len(n.out)]; ofType(e, types) && (dir != DirBoth || !g.selfLoop(e.rel())) {
				buf = append(buf, e.rel())
				kept++
			}
		}
	}
	return buf, pos
}

// Degree returns the number of incident relationships in the given
// direction, filtered by type as Rels is.
func (g *Graph) Degree(id NodeID, dir Dir, types []uint16) int {
	return len(g.Rels(id, dir, types, nil))
}

func ofType(e adjEntry, types []uint16) bool {
	return len(types) == 0 || slices.Contains(types, uint16(e.typ()))
}

func (g *Graph) selfLoop(id RelID) bool {
	r := g.rel(id)
	return r.from == r.to
}

// --- scans & indexes ---

// EachNode calls fn for every live node until fn returns false.
func (g *Graph) EachNode(fn func(NodeID) bool) {
	g.rlock()
	defer g.runlock()
	for i := range g.nodes.n {
		n := g.nodes.at(i)
		if n == nil {
			continue
		}
		if !fn(n.id) {
			return
		}
	}
}

// EachRel calls fn for every live relationship until fn returns false.
func (g *Graph) EachRel(fn func(RelID) bool) {
	g.rlock()
	defer g.runlock()
	for i := range g.rels.n {
		r := g.rels.at(i)
		if r == nil {
			continue
		}
		if !fn(r.id) {
			return
		}
	}
}

// NodesByLabel returns the IDs of all nodes carrying label, in ascending
// order.
func (g *Graph) NodesByLabel(label string) []NodeID {
	g.rlock()
	defer g.runlock()
	lid, ok := g.labelIDs[label]
	if !ok {
		return nil
	}
	set := g.labelIdx[lid]
	if set == nil {
		return nil
	}
	// Copy: the clean-set fast path of sorted() aliases the shared base.
	return append([]NodeID(nil), set.sorted()...)
}

// CountByLabel returns the number of nodes carrying label.
func (g *Graph) CountByLabel(label string) int {
	g.rlock()
	defer g.runlock()
	lid, ok := g.labelIDs[label]
	if !ok {
		return 0
	}
	if set := g.labelIdx[lid]; set != nil {
		return set.size()
	}
	return 0
}

// EnsureIndex creates (and backfills) a hash index on (label, property) if
// it does not already exist.
func (g *Graph) EnsureIndex(label, key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	g.ensureIndexLocked(label, key)
}

func (g *Graph) ensureIndexLocked(label, key string) *propIndex {
	lid := g.internLabel(label)
	keyID := g.dict.intern(key)
	pid := propIdxID{lid, keyID}
	if idx, ok := g.propIdx[pid]; ok {
		return idx
	}
	idx := &propIndex{owner: g.owner, shards: []*indexShard{{owner: g.owner, buckets: map[ckey]*idSet{}}}, shift: 64}
	g.propIdx[pid] = idx
	if set := g.labelIdx[lid]; set != nil {
		// Indexed keys are identities, one value per member: size the
		// shard directory for the label now rather than doubling into it.
		for shardBuckets*len(idx.shards) < set.size() {
			idx.grow(g.owner)
		}
		set.each(func(id NodeID) bool {
			n := g.node(id)
			if n == nil {
				return true
			}
			if i, had := findEntry(n.cprops, keyID); had {
				idx.mutBucket(g.entryKey(n.cprops[i]), g.owner).add(id)
			}
			return true
		})
	}
	return idx
}

// HasIndex reports whether an index exists on (label, key).
func (g *Graph) HasIndex(label, key string) bool {
	g.rlock()
	defer g.runlock()
	lid, ok := g.labelIDs[label]
	if !ok {
		return false
	}
	keyID, ok := g.dict.Lookup(key)
	if !ok {
		return false
	}
	_, ok = g.propIdx[propIdxID{lid, keyID}]
	return ok
}

// NodesByProp returns nodes with label whose property key equals v. It uses
// the (label,key) index when present and otherwise falls back to scanning
// the label's nodes, comparing each stored cell with v as Value.Equal
// does. A probe string the graph has never seen returns empty without a
// scan. A list is always scanned: its normalized key is only in the
// dictionary once an index or an earlier write interned it, and a read
// interns nothing.
func (g *Graph) NodesByProp(label, key string, v Value) []NodeID {
	g.rlock()
	lid, ok := g.labelIDs[label]
	if !ok {
		g.runlock()
		return nil
	}
	keyID, keyKnown := g.dict.Lookup(key)
	if !keyKnown {
		g.runlock()
		return nil
	}
	k, valKnown := g.probeKey(v)
	if idx, ok := g.propIdx[propIdxID{lid, keyID}]; ok {
		var out []NodeID
		if valKnown {
			if set := idx.get(k); set != nil {
				out = append([]NodeID(nil), set.sorted()...)
			}
		}
		g.runlock()
		return out
	}
	var out []NodeID
	if valKnown || v.kind == KindList {
		if set := g.labelIdx[lid]; set != nil {
			set.each(func(id NodeID) bool {
				n := g.node(id)
				if n == nil {
					return true
				}
				if i, had := findEntry(n.cprops, keyID); had && g.decEntry(n.cprops[i]).Equal(v) {
					out = append(out, id)
				}
				return true
			})
		}
	}
	g.runlock()
	return out
}

// MergeNode finds the node with the given label whose identity property
// key equals v, creating it (with extraLabels and props) when absent.
// It reports whether the node was created. When the node exists, props are
// merged in (existing values win) and extraLabels are added — mirroring the
// upsert semantics of the IYP importers.
func (g *Graph) MergeNode(label, key string, v Value, extraLabels []string, props Props) (NodeID, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkMutable()
	return g.mergeNodeLocked(label, key, v, extraLabels, props)
}

func (g *Graph) mergeNodeLocked(label, key string, v Value, extraLabels []string, props Props) (NodeID, bool) {
	// Identity lookups always deserve an index.
	idx := g.ensureIndexLocked(label, key)
	if set := idx.get(g.internKey(v)); set != nil && set.size() > 0 {
		g.version++ // merged labels/props below mutate the node in place
		id := set.min()
		n := g.mutNode(id)
		for _, l := range extraLabels {
			elid := g.internLabel(l)
			old := g.nodeLabels(n)
			nl := insertLabel(append([]labelID(nil), old...), elid)
			if len(nl) != len(old) {
				n.lset = g.internLset(nl)
				g.indexNodeLabelLocked(n, elid)
			}
		}
		for k, pv := range props {
			keyID := g.dict.intern(k)
			if i, exists := findEntry(n.cprops, keyID); !exists {
				e := g.encEntry(keyID, pv)
				n.cprops = append(n.cprops, centry{})
				copy(n.cprops[i+1:], n.cprops[i:])
				n.cprops[i] = e
				for _, l := range g.nodeLabels(n) {
					g.propIndexAddLocked(l, e, id)
					g.labelKeyCount[propIdxID{l, keyID}]++
				}
			}
		}
		return id, false
	}
	all := props.Clone()
	if all == nil {
		all = Props{}
	}
	all[key] = v
	labels := append([]string{label}, extraLabels...)
	id := g.addNodeLocked(labels, all)
	return id, true
}

// NumNodes returns the live node count.
func (g *Graph) NumNodes() int {
	g.rlock()
	defer g.runlock()
	return g.nodeCount
}

// NumRels returns the live relationship count.
func (g *Graph) NumRels() int {
	g.rlock()
	defer g.runlock()
	return g.relCount
}
