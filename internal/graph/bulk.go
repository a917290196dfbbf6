package graph

import "sort"

// Bulk-read access for the analytics layer. Compiling a CSR view touches
// every node and relationship once; doing that through the public
// accessors would take and release the store's RWMutex millions of times.
// BulkRead instead holds the read lock exactly once and hands the caller a
// BulkReader whose accessors are lock-free, turning view compilation into
// a straight array walk.

// Version reports the store's mutation counter. It is bumped by every
// write (node/relationship creation, deletion, property and label
// changes), so a reader can cheaply detect whether anything changed since
// a derived structure — an analytics view, a cached statistic — was built
// from the graph.
func (g *Graph) Version() uint64 {
	g.rlock()
	defer g.runlock()
	return g.version
}

// BulkRead runs fn while holding the store's read lock once. The
// BulkReader passed to fn reads the live store without further locking;
// it must not escape fn, and fn must not call any mutating Graph method
// (the write lock would deadlock against the held read lock). On a frozen
// generation no lock is taken at all — the graph is immutable.
func (g *Graph) BulkRead(fn func(*BulkReader)) {
	g.rlock()
	defer g.runlock()
	fn(&BulkReader{g: g})
}

// BulkReader is the lock-free view handed out by BulkRead.
type BulkReader struct {
	g *Graph
}

// MaxNodeID is the highest node ID ever allocated (dead IDs included);
// live IDs are in [1, MaxNodeID].
func (br *BulkReader) MaxNodeID() NodeID { return NodeID(br.g.nodes.n) }

// NumNodes is the live node count.
func (br *BulkReader) NumNodes() int { return br.g.nodeCount }

// NumRels is the live relationship count.
func (br *BulkReader) NumRels() int { return br.g.relCount }

// Interner exposes the graph's dictionary, letting callers (the temporal
// diff kernel) detect that two readers share payload ids.
func (br *BulkReader) Interner() *Interner { return br.g.dict }

// LabelID resolves a label name; ok is false when the label was never
// used (it then matches no node).
func (br *BulkReader) LabelID(label string) (uint16, bool) {
	id, ok := br.g.labelIDs[label]
	return uint16(id), ok
}

// NodeHasLabelID reports whether the node carries the (resolved) label.
func (br *BulkReader) NodeHasLabelID(id NodeID, lid uint16) bool { return br.g.hasLabel(id, lid) }

// NodeProp returns a node property (Null when absent or node missing).
func (br *BulkReader) NodeProp(id NodeID, key string) Value {
	n := br.g.node(id)
	if n == nil {
		return Null()
	}
	keyID, ok := br.g.dict.Lookup(key)
	if !ok {
		return Null()
	}
	return br.g.propIn(n.cprops, keyID)
}

// NodePropRef returns the raw columnar payload of a node property: its
// kind and the fixed-size num field (string/list payloads appear as
// Interner ids, bools as 0/1). ok is false when the property is absent.
func (br *BulkReader) NodePropRef(id NodeID, key string) (Kind, uint64, bool) {
	n := br.g.node(id)
	if n == nil {
		return KindNull, 0, false
	}
	keyID, ok := br.g.dict.Lookup(key)
	if !ok {
		return KindNull, 0, false
	}
	i, had := findEntry(n.cprops, keyID)
	if !had {
		return KindNull, 0, false
	}
	return n.cprops[i].kind, n.cprops[i].ref(), true
}

// PropCell is one property in its raw columnar form: the key's dictionary
// id, the value kind and the fixed-size payload (ints, float bits,
// dictionary ids for strings and lists, 0/1 for bools).
type PropCell struct {
	Key  uint32
	Kind Kind
	Ref  uint64
}

// NodeCells appends the node's properties to buf as raw cells, in key-id
// order (nothing for a dead id).
func (br *BulkReader) NodeCells(buf []PropCell, id NodeID) []PropCell {
	if n := br.g.node(id); n != nil {
		return appendCells(buf, n.cprops)
	}
	return buf
}

// RelCells is NodeCells for relationship properties.
func (br *BulkReader) RelCells(buf []PropCell, id RelID) []PropCell {
	if r := br.g.rel(id); r != nil {
		return appendCells(buf, r.cprops)
	}
	return buf
}

func appendCells(buf []PropCell, cp []centry) []PropCell {
	for _, e := range cp {
		buf = append(buf, PropCell{Key: e.key, Kind: e.kind, Ref: e.ref()})
	}
	return buf
}

// Value materializes a cell read from this reader.
func (br *BulkReader) Value(c PropCell) Value {
	return br.g.decEntry(centry{kind: c.Kind, flag: uint8(c.Ref), num: c.Ref})
}

// NodeLabelSet returns the node's label-set id (0 for a dead id): nodes
// with equal ids carry the same labels, so per-set work can be cached.
func (br *BulkReader) NodeLabelSet(id NodeID) uint32 {
	if n := br.g.node(id); n != nil {
		return uint32(n.lset)
	}
	return 0
}

// LabelNames is the label dictionary: entry i names label id i. The slice
// is shared; callers must treat it as read-only.
func (br *BulkReader) LabelNames() []string { return br.g.labelNames }

// TypeNames is LabelNames for relationship types.
func (br *BulkReader) TypeNames() []string { return br.g.typeNames }

// NodeLabels returns the node's label names, sorted (nil for a dead id).
func (br *BulkReader) NodeLabels(id NodeID) []string {
	n := br.g.node(id)
	if n == nil {
		return nil
	}
	ls := br.g.lsets[n.lset]
	out := make([]string, len(ls))
	for i, lid := range ls {
		out[i] = br.g.labelNames[lid]
	}
	sort.Strings(out)
	return out
}

// EachNodeProp calls fn for every property of the node, in key-id order.
func (br *BulkReader) EachNodeProp(id NodeID, fn func(key string, v Value)) {
	n := br.g.node(id)
	if n == nil {
		return
	}
	for _, e := range n.cprops {
		fn(br.g.dict.str(e.key), br.g.decEntry(e))
	}
}

// EachNode calls fn for every live node in ascending ID order until fn
// returns false.
func (br *BulkReader) EachNode(fn func(NodeID) bool) {
	for i := range br.g.nodes.n {
		n := br.g.nodes.at(i)
		if n == nil {
			continue
		}
		if !fn(n.id) {
			return
		}
	}
}

// TypeID resolves a relationship type name; ok is false when the type was
// never used.
func (br *BulkReader) TypeID(typ string) (uint16, bool) {
	id, ok := br.g.typeIDs[typ]
	return uint16(id), ok
}

// EachRel calls fn for every live relationship in ascending ID order with
// its type id and endpoints, until fn returns false.
func (br *BulkReader) EachRel(fn func(id RelID, typ uint16, from, to NodeID) bool) {
	for i := range br.g.rels.n {
		r := br.g.rels.at(i)
		if r == nil {
			continue
		}
		if !fn(r.id, uint16(r.typ), r.from, r.to) {
			return
		}
	}
}

// EachRelProp calls fn for every property of the relationship, in key-id
// order.
func (br *BulkReader) EachRelProp(id RelID, fn func(key string, v Value)) {
	r := br.g.rel(id)
	if r == nil {
		return
	}
	for _, e := range r.cprops {
		fn(br.g.dict.str(e.key), br.g.decEntry(e))
	}
}

// RelProp returns a relationship property (Null when absent).
func (br *BulkReader) RelProp(id RelID, key string) Value {
	r := br.g.rel(id)
	if r == nil {
		return Null()
	}
	keyID, ok := br.g.dict.Lookup(key)
	if !ok {
		return Null()
	}
	return br.g.propIn(r.cprops, keyID)
}

// EachRelOf calls fn for each relationship incident to id in the given
// direction (self-loops reported once under DirBoth), until fn returns
// false. other is the far endpoint.
func (br *BulkReader) EachRelOf(id NodeID, dir Dir, fn func(rid RelID, typ uint16, other NodeID) bool) {
	n := br.g.node(id)
	if n == nil {
		return
	}
	if dir == DirOut || dir == DirBoth {
		for _, e := range n.out {
			if !fn(e.rel(), uint16(e.typ()), br.g.rel(e.rel()).to) {
				return
			}
		}
	}
	if dir == DirIn || dir == DirBoth {
		for _, e := range n.in {
			r := br.g.rel(e.rel())
			if dir == DirBoth && r.from == r.to {
				continue // already seen in the out scan
			}
			if !fn(e.rel(), uint16(e.typ()), r.from) {
				return
			}
		}
	}
}

// NodesByLabel returns the live nodes carrying label, ascending. When the
// label bucket has no pending delta this is the index's own dense base
// slice — callers must treat the result as read-only.
func (br *BulkReader) NodesByLabel(label string) []NodeID {
	lid, ok := br.g.labelIDs[label]
	if !ok {
		return nil
	}
	set := br.g.labelIdx[lid]
	if set == nil {
		return nil
	}
	return set.sorted()
}
