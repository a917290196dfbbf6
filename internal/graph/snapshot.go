package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Snapshot format: the paper distributes IYP as weekly Neo4j dumps (§3.1);
// Save/Load provide the equivalent distribution channel for this
// reproduction. Dumps are reloaded months after they were written, so the
// format is self-verifying: a CRC32C per section plus a trailer with a
// whole-file checksum and entity counts let Load distinguish a good
// snapshot from a torn or bit-flipped one before trusting any of it.
//
// There is one format, written and read:
//
//	magic "IYPG" | version u8 = 2
//	6 sections, in order (labels, types, dict, nodes, rels, indexes), each:
//	    id u8 | crc32c(compressed) u32le | compressed len u64le |
//	    uncompressed len u64le | gzip(section body)
//	trailer:
//	    0xFF u8 | node count u64le | rel count u64le | label count u64le |
//	    type count u64le | index count u64le |
//	    crc32c(file[0:here]) u32le | end magic "GPYI"
//
// Section bodies:
//
//	label table:  uvarint count, strings
//	type table:   uvarint count, strings
//	dictionary:   uvarint count, strings — every property key and string
//	              value the snapshot references, dense file-local ids in
//	              first-use order
//	node slots:   uvarint count, per slot: present u8,
//	              [label count + label ids, prop count + prop entries]
//	rel slots:    uvarint count, per slot: present u8,
//	              [type, from, to, prop count + prop entries]
//	index list:   uvarint count, per entry: label string, key string
//
// A prop entry is: uvarint dict-id of the key, kind u8, then the payload —
// nothing for null, one byte for bool, uvarint bits for int/float, a
// uvarint dict-id for string, and an inline element-count + element values
// for list. Loads therefore materialize the columnar layout directly, and
// a loader seeded with an existing Interner (replica reloads, delta
// builds) reuses unchanged strings instead of re-allocating them.
//
// The two formats written before the columnar layout — one bare gzip
// stream, and the same container without a dictionary section (its node
// section directly follows the type table) — are recognised from their
// first bytes / section headers and rejected with errUnsupportedFormat.
const (
	snapshotMagic    = "IYPG"
	snapshotEndMagic = "GPYI"
	snapshotVersion  = 2
)

// Section identifiers; the file carries them in the order labels, types,
// dict, nodes, rels, indexes.
const (
	secLabels  byte = 1
	secTypes   byte = 2
	secNodes   byte = 3
	secRels    byte = 4
	secIndexes byte = 5
	secDict    byte = 6
	secTrailer byte = 0xFF
)

// sectionHdrSize is the fixed byte size of a section header:
// id + payload CRC + compressed length + uncompressed length.
const sectionHdrSize = 1 + 4 + 8 + 8

// trailerSize is the fixed byte size of the trailer:
// marker + five u64 counts + total CRC + end magic.
const trailerSize = 1 + 5*8 + 4 + 4

// Decoder sanity caps. Length prefixes are validated against the remaining
// input and these absolute bounds before any allocation, so a corrupt file
// can never trigger a multi-GiB allocation.
const (
	maxStringLen   = 1 << 28 // one interned string or blob
	maxTableLen    = 1 << 16 // label/type tables (ids are u16)
	initialIDCap   = 1 << 16 // file-dictionary id table pre-allocation cap
	initialListCap = 1 << 12 // list value pre-allocation cap
	initialPropCap = 1 << 10 // journal property map pre-allocation cap
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a snapshot (or batch journal) that failed structural or
// checksum validation: truncated, bit-flipped, or otherwise damaged input.
// Callers test with errors.Is; the Store uses it to fall back to an older
// generation.
var ErrCorrupt = errors.New("graph: snapshot corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// errUnsupportedFormat rejects a snapshot in one of the two layouts that
// predate the columnar one. It is deliberately not ErrCorrupt: the file is
// intact, this build just has no decoder for it.
var errUnsupportedFormat = errors.New("graph: unsupported snapshot format (written before the columnar layout; re-save it with commit 206293d)")

// --- encoding ---

// encBuf encodes section bodies into memory. Writes cannot fail.
type encBuf struct {
	b []byte
}

func (e *encBuf) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *encBuf) byte(b byte) { e.b = append(e.b, b) }

func (e *encBuf) string(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encBuf) value(v Value) {
	e.byte(byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			e.byte(1)
		} else {
			e.byte(0)
		}
	case KindInt:
		e.uvarint(uint64(v.i)) // two's complement round-trips through uint64
	case KindFloat:
		e.uvarint(math.Float64bits(v.f))
	case KindString:
		e.string(v.s)
	case KindList:
		e.uvarint(uint64(len(v.list)))
		for _, el := range v.list {
			e.value(el)
		}
	}
}

// dictRemap assigns dense file-local ids to the Interner strings a
// snapshot actually references. The lineage-shared Interner may hold
// strings from sibling generations or discarded clones; remapping keeps
// the on-disk dictionary exactly as large as this graph's working set and
// makes the bytes a function of graph content alone.
//
// Its table is dense over the Interner's ids as of the save: a graph only
// holds ids interned before they were stored, and Save holds the graph
// still (read lock, or frozen), so every id it meets is below that length.
type dictRemap struct {
	in   *Interner
	ids  []uint32 // Interner id → file id + 1; 0 = not referenced yet
	strs []string
}

func newDictRemap(in *Interner) *dictRemap {
	return &dictRemap{in: in, ids: make([]uint32, in.Len())}
}

func (dr *dictRemap) file(globalID uint32) uint32 {
	if id := dr.ids[globalID]; id != 0 {
		return id - 1
	}
	id := uint32(len(dr.strs))
	dr.strs = append(dr.strs, dr.in.str(globalID))
	dr.ids[globalID] = id + 1
	return id
}

// centry encodes one columnar prop entry: remapped key id, kind, payload.
func (e *encBuf) centry(g *Graph, dr *dictRemap, ce centry) {
	e.uvarint(uint64(dr.file(ce.key)))
	e.byte(byte(ce.kind))
	switch ce.kind {
	case KindNull:
	case KindBool:
		e.byte(ce.flag)
	case KindInt, KindFloat:
		e.uvarint(ce.num)
	case KindString:
		e.uvarint(uint64(dr.file(uint32(ce.num))))
	case KindList:
		list := g.dict.list(uint32(ce.num))
		e.uvarint(uint64(len(list)))
		for _, el := range list {
			e.value(el)
		}
	}
}

// keyRanks returns every property key's position in key-name order,
// indexed by Interner id, over the keys this graph's columns use. Columns
// are stored in key-id order, which reflects interning history (op order,
// or a previous snapshot's file order after a reload); serializing them in
// key-name order instead makes the bytes a pure function of graph content,
// so a resumed build and an uninterrupted one emit identical snapshots.
// The strings are compared once per key here, not once per entity. Like
// dictRemap, the table is dense over the Interner's ids.
func (g *Graph) keyRanks() []uint32 {
	rank := make([]uint32, g.dict.Len())
	var keys []uint32
	mark := func(cp []centry) {
		for _, ce := range cp {
			if rank[ce.key] == 0 {
				rank[ce.key] = 1
				keys = append(keys, ce.key)
			}
		}
	}
	for i := range g.nodes.n {
		if n := g.nodes.at(i); n != nil {
			mark(n.cprops)
		}
	}
	for i := range g.rels.n {
		if r := g.rels.at(i); r != nil {
			mark(r.cprops)
		}
	}
	slices.SortFunc(keys, func(a, b uint32) int { return cmp.Compare(g.dict.str(a), g.dict.str(b)) })
	for i, k := range keys {
		rank[k] = uint32(i)
	}
	return rank
}

// crcWriter tracks the running CRC32C of everything written through it.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	return cw.w.Write(p)
}

func (cw *crcWriter) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := cw.Write(b[:])
	return err
}

func (cw *crcWriter) u64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := cw.Write(b[:])
	return err
}

// Save writes a snapshot of the graph to w.
//
// It runs on the calling goroutine alone. Gzipping the sections in
// goroutines of their own would not change a byte and would halve a save
// on two cores, but it takes every processor of the process while it
// runs: readers served from the same process stall behind it (the p99.9
// of lookups read by the publishing process rose by a quarter on
// 2 vCPUs).
func (g *Graph) Save(w io.Writer) error {
	g.rlock()
	defer g.runlock()

	rank := g.keyRanks()
	byRank := func(a, b centry) int { return cmp.Compare(rank[a.key], rank[b.key]) }
	dr := newDictRemap(g.dict)
	var scratch []centry
	emitProps := func(e *encBuf, cp []centry) {
		if !slices.IsSortedFunc(cp, byRank) {
			scratch = append(scratch[:0], cp...)
			slices.SortFunc(scratch, byRank)
			cp = scratch
		}
		e.uvarint(uint64(len(cp)))
		for _, ce := range cp {
			e.centry(g, dr, ce)
		}
	}

	// Encode the node and relationship bodies into memory first,
	// collecting every referenced dictionary string in first-use order.
	// The dictionary section precedes them in the file (the decoder needs
	// it first), so the bodies are buffered until it is written.
	var nodes encBuf
	nodes.uvarint(uint64(g.nodes.n))
	for i := range g.nodes.n {
		n := g.nodes.at(i)
		if n == nil {
			nodes.byte(0)
			continue
		}
		nodes.byte(1)
		ls := g.lsets[n.lset]
		nodes.uvarint(uint64(len(ls)))
		for _, l := range ls {
			nodes.uvarint(uint64(l))
		}
		emitProps(&nodes, n.cprops)
	}

	var rels encBuf
	rels.uvarint(uint64(g.rels.n))
	for i := range g.rels.n {
		r := g.rels.at(i)
		if r == nil {
			rels.byte(0)
			continue
		}
		rels.byte(1)
		rels.uvarint(uint64(r.typ))
		rels.uvarint(uint64(r.from))
		rels.uvarint(uint64(r.to))
		emitProps(&rels, r.cprops)
	}

	var labels, types, dict, indexes encBuf
	labels.uvarint(uint64(len(g.labelNames)))
	for _, s := range g.labelNames {
		labels.string(s)
	}
	types.uvarint(uint64(len(g.typeNames)))
	for _, s := range g.typeNames {
		types.string(s)
	}
	dict.uvarint(uint64(len(dr.strs)))
	for _, s := range dr.strs {
		dict.string(s)
	}
	// propIdx is a map; sort the entries so identical graphs produce
	// byte-identical snapshots.
	entries := make([]propIdxID, 0, len(g.propIdx))
	for pid := range g.propIdx {
		entries = append(entries, pid)
	}
	slices.SortFunc(entries, func(a, b propIdxID) int {
		if c := cmp.Compare(g.labelNames[a.label], g.labelNames[b.label]); c != 0 {
			return c
		}
		return cmp.Compare(g.dict.str(a.key), g.dict.str(b.key))
	})
	indexes.uvarint(uint64(len(entries)))
	for _, pid := range entries {
		indexes.string(g.labelNames[pid.label])
		indexes.string(g.dict.str(pid.key))
	}

	out := &crcWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := out.Write([]byte(snapshotMagic)); err != nil {
		return err
	}
	if _, err := out.Write([]byte{snapshotVersion}); err != nil {
		return err
	}
	var comp bytes.Buffer
	zw := gzip.NewWriter(&comp)
	for _, sec := range []struct {
		id   byte
		body []byte
	}{
		{secLabels, labels.b},
		{secTypes, types.b},
		{secDict, dict.b},
		{secNodes, nodes.b},
		{secRels, rels.b},
		{secIndexes, indexes.b},
	} {
		// Compressing into memory cannot fail. Reset makes the writer
		// equivalent to a new one, so every section is the same gzip
		// stream a fresh writer would produce.
		comp.Reset()
		zw.Reset(&comp)
		zw.Write(sec.body)
		zw.Close()
		if _, err := out.Write([]byte{sec.id}); err != nil {
			return err
		}
		if err := out.u32(crc32.Checksum(comp.Bytes(), castagnoli)); err != nil {
			return err
		}
		if err := out.u64(uint64(comp.Len())); err != nil {
			return err
		}
		if err := out.u64(uint64(len(sec.body))); err != nil {
			return err
		}
		if _, err := out.Write(comp.Bytes()); err != nil {
			return err
		}
	}

	// Trailer: counts, then the total CRC over everything before it.
	if _, err := out.Write([]byte{secTrailer}); err != nil {
		return err
	}
	for _, c := range [...]uint64{
		uint64(g.nodeCount),
		uint64(g.relCount),
		uint64(len(g.labelNames)),
		uint64(len(g.typeNames)),
		uint64(len(g.propIdx)),
	} {
		if err := out.u64(c); err != nil {
			return err
		}
	}
	if err := out.u32(out.crc); err != nil {
		return err
	}
	if _, err := out.Write([]byte(snapshotEndMagic)); err != nil {
		return err
	}
	return out.w.Flush()
}

// --- decoding ---

// sliceReader decodes a fully-materialized section body with strict
// bounds: every failure is an ErrCorrupt, and limit reports how many more
// items could possibly be encoded in the remaining input.
type sliceReader struct {
	data []byte
	off  int
}

func (s *sliceReader) remaining() int { return len(s.data) - s.off }

func (s *sliceReader) limit() uint64 { return uint64(s.remaining()) }

func (s *sliceReader) ReadByte() (byte, error) {
	if s.off >= len(s.data) {
		return 0, corruptf("truncated section")
	}
	b := s.data[s.off]
	s.off++
	return b, nil
}

func (s *sliceReader) readFull(n uint64) ([]byte, error) {
	if n > uint64(s.remaining()) {
		return nil, corruptf("length prefix %d exceeds remaining %d bytes", n, s.remaining())
	}
	b := s.data[s.off : s.off+int(n)]
	s.off += int(n)
	return b, nil
}

func readUvarint(d *sliceReader) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	switch {
	case n == 0:
		return 0, corruptf("truncated section")
	case n < 0:
		return 0, corruptf("varint overflows 64 bits")
	}
	d.off += n
	return v, nil
}

func readString(d *sliceReader) (string, error) {
	n, err := readUvarint(d)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", corruptf("string length %d too large", n)
	}
	b, err := d.readFull(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func readValue(d *sliceReader) (Value, error) {
	kb, err := d.ReadByte()
	if err != nil {
		return Null(), err
	}
	switch Kind(kb) {
	case KindNull:
		return Null(), nil
	case KindBool:
		b, err := d.ReadByte()
		if err != nil {
			return Null(), err
		}
		return Bool(b != 0), nil
	case KindInt:
		u, err := readUvarint(d)
		if err != nil {
			return Null(), err
		}
		return Int(int64(u)), nil
	case KindFloat:
		u, err := readUvarint(d)
		if err != nil {
			return Null(), err
		}
		return Float(math.Float64frombits(u)), nil
	case KindString:
		s, err := readString(d)
		if err != nil {
			return Null(), err
		}
		return String(s), nil
	case KindList:
		vs, err := readList(d)
		if err != nil {
			return Null(), err
		}
		return List(vs...), nil
	}
	return Null(), corruptf("unknown value kind %d", kb)
}

// readList decodes an element count and that many inline values.
func readList(d *sliceReader) ([]Value, error) {
	n, err := readUvarint(d)
	if err != nil {
		return nil, err
	}
	// Each element is at least one byte.
	if n > d.limit() {
		return nil, corruptf("list length %d too large", n)
	}
	vs := make([]Value, 0, min(n, initialListCap))
	for i := uint64(0); i < n; i++ {
		v, err := readValue(d)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// loader is the decode state of the node and relationship sections: the
// file dictionary, and the slabs and arenas every node, relationship and
// property column is carved from. A load therefore allocates per page and
// per chunk, not per entity. Every column and adjacency list it hands out
// is capacity-limited (cap == len), so the in-place writers in store.go
// reallocate on growth instead of writing into a neighbour's entries.
type loader struct {
	g       *Graph
	ids     []uint32 // file-local dictionary id → Interner id
	scratch []centry // the column being decoded, reused
	props   []centry // unused tail of the current property chunk
}

// readCProps decodes a columnar prop-entry list into a sorted column.
func (l *loader) readCProps(d *sliceReader) ([]centry, error) {
	n, err := readUvarint(d)
	if err != nil {
		return nil, err
	}
	// Each entry takes at least two bytes (key id + kind).
	if n > d.limit() {
		return nil, corruptf("property count %d too large", n)
	}
	cp := l.scratch[:0]
	for i := uint64(0); i < n; i++ {
		keyRef, err := readUvarint(d)
		if err != nil {
			return nil, err
		}
		if keyRef >= uint64(len(l.ids)) {
			return nil, corruptf("property key id %d out of dictionary range %d", keyRef, len(l.ids))
		}
		e := centry{key: l.ids[keyRef]}
		kb, err := d.ReadByte()
		if err != nil {
			return nil, err
		}
		e.kind = Kind(kb)
		switch e.kind {
		case KindNull:
		case KindBool:
			b, err := d.ReadByte()
			if err != nil {
				return nil, err
			}
			if b != 0 {
				e.flag = 1
			}
		case KindInt, KindFloat:
			if e.num, err = readUvarint(d); err != nil {
				return nil, err
			}
		case KindString:
			ref, err := readUvarint(d)
			if err != nil {
				return nil, err
			}
			if ref >= uint64(len(l.ids)) {
				return nil, corruptf("string id %d out of dictionary range %d", ref, len(l.ids))
			}
			e.num = uint64(l.ids[ref])
		case KindList:
			vs, err := readList(d)
			if err != nil {
				return nil, err
			}
			e.num = uint64(l.g.dict.internListKey(listDedupKey(vs), vs))
		default:
			return nil, corruptf("unknown value kind %d", kb)
		}
		cp = append(cp, e)
	}
	l.scratch = cp
	// Entries are sorted by the graph's global key ids; with a seeded
	// dictionary those need not follow file order.
	byKey := func(a, b centry) int { return cmp.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(cp, byKey) {
		slices.SortFunc(cp, byKey)
	}
	return l.column(cp), nil
}

// column copies cp into the property arena and returns it with cap == len.
// A column longer than a chunk gets an allocation of its own.
func (l *loader) column(cp []centry) []centry {
	n := len(cp)
	if n == 0 {
		return nil
	}
	if n > len(l.props) {
		if n > slotPageSize {
			return append(make([]centry, 0, n), cp...)
		}
		l.props = make([]centry, slotPageSize)
	}
	out := l.props[:n:n]
	copy(out, cp)
	l.props = l.props[n:]
	return out
}

// decodeStringTable reads a label or type table (bounded by maxTableLen,
// since ids are u16).
func decodeStringTable(d *sliceReader, what string) ([]string, error) {
	n, err := readUvarint(d)
	if err != nil {
		return nil, err
	}
	if n > maxTableLen || n > d.limit() {
		return nil, corruptf("%s table size %d too large", what, n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := readString(d)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// decodeDict reads the dictionary section, interning every string into the
// graph's (possibly seeded) Interner and recording reuse statistics.
func (l *loader) decodeDict(d *sliceReader, rep *LoadReport) error {
	n, err := readUvarint(d)
	if err != nil {
		return err
	}
	// Each string takes at least one byte (its length prefix).
	if n > d.limit() {
		return corruptf("dictionary size %d exceeds input", n)
	}
	l.ids = make([]uint32, 0, min(n, uint64(initialIDCap)))
	for i := uint64(0); i < n; i++ {
		s, err := readString(d)
		if err != nil {
			return err
		}
		id, existed := l.g.dict.internHit(s)
		l.ids = append(l.ids, id)
		rep.DictStrings++
		if existed {
			rep.DictReused++
		}
	}
	return nil
}

// readNodeLabels decodes and validates one node's label-id list, returning
// the graph's label-set id for it. The set is built in a stack buffer;
// internLset copies it only the first time the combination is seen.
func readNodeLabels(g *Graph, d *sliceReader, slot uint64) (lsetID, error) {
	nLabels := uint64(len(g.labelNames))
	nl, err := readUvarint(d)
	if err != nil {
		return 0, err
	}
	if nl > nLabels {
		return 0, corruptf("node %d: label count %d exceeds table size %d", slot+1, nl, nLabels)
	}
	var buf [8]labelID
	ls := buf[:0]
	for j := uint64(0); j < nl; j++ {
		l, err := readUvarint(d)
		if err != nil {
			return 0, err
		}
		if l >= nLabels {
			return 0, corruptf("label id %d out of range", l)
		}
		ls = insertLabel(ls, labelID(l))
	}
	return g.internLset(ls), nil
}

// decodeNodeSlots reads the node section into g. Nodes come from slabs of
// up to a slot page, one allocation per page.
func (l *loader) decodeNodeSlots(d *sliceReader) error {
	g := l.g
	nNodes, err := readUvarint(d)
	if err != nil {
		return err
	}
	// Each slot takes at least one byte.
	if nNodes > d.limit() {
		return corruptf("node count %d exceeds input", nNodes)
	}
	var slab []Node
	for i := uint64(0); i < nNodes; i++ {
		present, err := d.ReadByte()
		if err != nil {
			return err
		}
		if present == 0 {
			g.nodes.push(nil, g.owner)
			continue
		}
		if len(slab) == 0 {
			slab = make([]Node, min(nNodes-i, slotPageSize))
		}
		n := &slab[0]
		slab = slab[1:]
		n.id, n.owner = NodeID(i+1), g.owner
		if n.lset, err = readNodeLabels(g, d, i); err != nil {
			return err
		}
		if n.cprops, err = l.readCProps(d); err != nil {
			return err
		}
		g.nodes.push(n, g.owner)
		g.nodeCount++
	}
	return nil
}

// decodeRelSlots reads the relationship section into g, validating
// endpoints against the already-decoded nodes. Rels come from slabs like
// nodes do; the adjacency lists are cut from one arena sized by the
// degrees counted while decoding, then filled in rel-ID order.
func (l *loader) decodeRelSlots(d *sliceReader) error {
	g := l.g
	nTypes := uint64(len(g.typeNames))
	nRels, err := readUvarint(d)
	if err != nil {
		return err
	}
	if nRels > d.limit() {
		return corruptf("relationship count %d exceeds input", nRels)
	}
	deg := make([]uint32, 2*g.nodes.n) // out-degree of node i at 2i, in-degree at 2i+1
	var slab []Rel
	for i := uint64(0); i < nRels; i++ {
		present, err := d.ReadByte()
		if err != nil {
			return err
		}
		if present == 0 {
			g.rels.push(nil, g.owner)
			continue
		}
		typ, err := readUvarint(d)
		if err != nil {
			return err
		}
		if typ >= nTypes {
			return corruptf("type id %d out of range", typ)
		}
		from, err := readUvarint(d)
		if err != nil {
			return err
		}
		to, err := readUvarint(d)
		if err != nil {
			return err
		}
		cp, err := l.readCProps(d)
		if err != nil {
			return err
		}
		if g.node(NodeID(from)) == nil || g.node(NodeID(to)) == nil {
			return corruptf("relationship %d references missing node", i+1)
		}
		if len(slab) == 0 {
			slab = make([]Rel, min(nRels-i, slotPageSize))
		}
		r := &slab[0]
		slab = slab[1:]
		*r = Rel{id: RelID(i + 1), owner: g.owner, typ: typeID(typ), from: NodeID(from), to: NodeID(to), cprops: cp}
		g.rels.push(r, g.owner)
		g.relCount++
		deg[2*(from-1)]++
		deg[2*(to-1)+1]++
	}

	adj := make([]adjEntry, 2*g.relCount)
	cut := func(k uint32) []adjEntry {
		if k == 0 {
			return nil
		}
		s := adj[:0:k]
		adj = adj[k:]
		return s
	}
	for i := range g.nodes.n {
		if n := g.nodes.at(i); n != nil {
			n.out, n.in = cut(deg[2*i]), cut(deg[2*i+1])
		}
	}
	for i := range g.rels.n {
		if r := g.rels.at(i); r != nil {
			fn, tn := g.node(r.from), g.node(r.to)
			fn.out = append(fn.out, mkAdj(r.typ, r.id))
			tn.in = append(tn.in, mkAdj(r.typ, r.id))
		}
	}
	return nil
}

// decodeIndexes reads the index declarations and rebuilds each index.
func decodeIndexes(g *Graph, d *sliceReader) error {
	nIdx, err := readUvarint(d)
	if err != nil {
		return err
	}
	if nIdx > d.limit() {
		return corruptf("index count %d exceeds input", nIdx)
	}
	for i := uint64(0); i < nIdx; i++ {
		label, err := readString(d)
		if err != nil {
			return err
		}
		key, err := readString(d)
		if err != nil {
			return err
		}
		g.ensureIndexLocked(label, key)
	}
	return nil
}

// rebuildLabelIndex repopulates labelIdx from the decoded nodes. It must run
// before decodeIndexes, which backfills property indexes from it. Nodes are
// walked in ascending ID order, so every bucket fills through the idSet
// in-order append fast path: dense sorted base slices, no delta maps.
func rebuildLabelIndex(g *Graph) {
	for i := range g.nodes.n {
		n := g.nodes.at(i)
		if n == nil {
			continue
		}
		for _, lid := range g.lsets[n.lset] {
			set := g.labelIdx[lid]
			if set == nil {
				set = newIDSet(g.owner)
				g.labelIdx[lid] = set
			}
			set.add(n.id)
		}
	}
}

// LoadOptions tunes a snapshot load.
type LoadOptions struct {
	// Dict seeds the loaded graph's dictionary. A loader given the
	// previous generation's Interner reuses every unchanged string
	// (replica hot-swap reloads, delta builds); nil starts fresh.
	Dict *Interner
}

// LoadReport describes what a load did with the dictionary.
type LoadReport struct {
	// DictStrings is the number of dictionary entries the snapshot
	// carries.
	DictStrings int
	// DictReused counts the entries already present in the seeded
	// dictionary — strings that were NOT re-allocated.
	DictReused int
}

// Load reads a snapshot written by Save and returns the reconstructed
// graph, including rebuilt adjacency, label indexes, and property indexes.
// Corrupt input — truncated, bit-flipped, or with lying length prefixes —
// yields an error wrapping ErrCorrupt; a snapshot in a layout older than
// the columnar one yields a plain "unsupported snapshot format" error.
// Load never panics and never allocates beyond what the real input can
// back.
func Load(r io.Reader) (*Graph, error) {
	g, _, err := LoadWith(r, LoadOptions{})
	return g, err
}

// LoadWith is Load with options (dictionary seeding) and a reuse report.
func LoadWith(r io.Reader, opts LoadOptions) (*Graph, LoadReport, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if _, err := br.Peek(2); err != nil {
		return nil, LoadReport{}, corruptf("snapshot header: %v", err)
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, LoadReport{}, fmt.Errorf("graph: snapshot read: %w", err)
	}
	return loadBytes(data, opts)
}

// loadBytes decodes a whole snapshot held in memory.
func loadBytes(data []byte, opts LoadOptions) (*Graph, LoadReport, error) {
	var rep LoadReport
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		// A bare gzip stream is the first snapshot layout.
		return nil, rep, errUnsupportedFormat
	}
	g, err := decodeSnapshot(data, opts, &rep)
	return g, rep, err
}

// preColumnar reports whether data is the container layout written before
// the dictionary section existed: its node section directly follows the
// type table. Only section headers are read, so a truncated file is
// recognised as soon as it reaches its third section id, and nothing is
// decompressed or decoded to find out.
func preColumnar(data []byte) bool {
	off := len(snapshotMagic) + 1
	for _, id := range [...]byte{secLabels, secTypes} {
		if len(data)-off < sectionHdrSize || data[off] != id {
			return false
		}
		clen := binary.LittleEndian.Uint64(data[off+5:])
		if clen > uint64(len(data)-off-sectionHdrSize) {
			return false
		}
		off += sectionHdrSize + int(clen)
	}
	return off < len(data) && data[off] == secNodes
}

func decodeSnapshot(data []byte, opts LoadOptions, rep *LoadReport) (*Graph, error) {
	headerSize := len(snapshotMagic) + 1
	if len(data) >= headerSize {
		if string(data[:len(snapshotMagic)]) != snapshotMagic {
			return nil, fmt.Errorf("graph: not a snapshot (bad magic %q)", data[:len(snapshotMagic)])
		}
		if v := data[len(snapshotMagic)]; v != snapshotVersion {
			return nil, fmt.Errorf("graph: unsupported snapshot version %d", v)
		}
		if preColumnar(data) {
			return nil, errUnsupportedFormat
		}
	}
	if len(data) < headerSize+trailerSize {
		return nil, corruptf("file too short (%d bytes)", len(data))
	}

	// Whole-file integrity first: a missing end marker means a torn write,
	// a total-CRC mismatch means bit rot somewhere — reject before parsing.
	if string(data[len(data)-len(snapshotEndMagic):]) != snapshotEndMagic {
		return nil, corruptf("missing end marker (torn or truncated file)")
	}
	crcOff := len(data) - len(snapshotEndMagic) - 4
	wantCRC := binary.LittleEndian.Uint32(data[crcOff:])
	if got := crc32.Checksum(data[:crcOff], castagnoli); got != wantCRC {
		return nil, corruptf("total checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	trailerOff := len(data) - trailerSize
	if data[trailerOff] != secTrailer {
		return nil, corruptf("bad trailer marker %#x", data[trailerOff])
	}
	var wantCounts [5]uint64
	for i := range wantCounts {
		wantCounts[i] = binary.LittleEndian.Uint64(data[trailerOff+1+8*i:])
	}

	g := NewWithInterner(opts.Dict)
	off := headerSize
	// decode runs fn over the next section, which must have the given id
	// and be consumed exactly.
	decode := func(id byte, fn func(*sliceReader) error) error {
		body, n, err := readSection(data[off:trailerOff], id)
		if err != nil {
			return err
		}
		off += n
		d := &sliceReader{data: body}
		if err := fn(d); err != nil {
			return err
		}
		if d.remaining() != 0 {
			return corruptf("section %d has %d trailing bytes", id, d.remaining())
		}
		return nil
	}

	if err := decode(secLabels, func(d *sliceReader) error {
		labels, err := decodeStringTable(d, "label")
		for _, s := range labels {
			g.internLabel(s)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := decode(secTypes, func(d *sliceReader) error {
		types, err := decodeStringTable(d, "type")
		for _, s := range types {
			g.internType(s)
		}
		return err
	}); err != nil {
		return nil, err
	}
	l := &loader{g: g}
	if err := decode(secDict, func(d *sliceReader) error {
		return l.decodeDict(d, rep)
	}); err != nil {
		return nil, err
	}
	if err := decode(secNodes, l.decodeNodeSlots); err != nil {
		return nil, err
	}
	rebuildLabelIndex(g)
	if err := decode(secRels, l.decodeRelSlots); err != nil {
		return nil, err
	}
	if err := decode(secIndexes, func(d *sliceReader) error {
		return decodeIndexes(g, d)
	}); err != nil {
		return nil, err
	}
	if off != trailerOff {
		return nil, corruptf("%d unexpected bytes between sections and trailer", trailerOff-off)
	}

	// The trailer counts double-check the decode.
	gotCounts := [5]uint64{
		uint64(g.nodeCount),
		uint64(g.relCount),
		uint64(len(g.labelNames)),
		uint64(len(g.typeNames)),
		uint64(len(g.propIdx)),
	}
	if gotCounts != wantCounts {
		return nil, corruptf("trailer counts %v do not match decoded contents %v", wantCounts, gotCounts)
	}
	g.rebuildStatsLocked()
	return g, nil
}

// readSection parses one section from the front of data: it validates the
// header, checks the payload CRC before decompressing, and returns the
// decompressed body plus the number of bytes consumed.
func readSection(data []byte, wantID byte) ([]byte, int, error) {
	if len(data) < sectionHdrSize {
		return nil, 0, corruptf("section %d: truncated header", wantID)
	}
	if data[0] != wantID {
		return nil, 0, corruptf("expected section %d, found %#x", wantID, data[0])
	}
	wantCRC := binary.LittleEndian.Uint32(data[1:])
	clen := binary.LittleEndian.Uint64(data[5:])
	ulen := binary.LittleEndian.Uint64(data[13:])
	if clen > uint64(len(data)-sectionHdrSize) {
		return nil, 0, corruptf("section %d: compressed length %d exceeds remaining %d bytes", wantID, clen, len(data)-sectionHdrSize)
	}
	// DEFLATE expands at most ~1032:1; a larger claim is a lying header.
	if ulen > clen*1032+1024 {
		return nil, 0, corruptf("section %d: uncompressed length %d implausible for %d compressed bytes", wantID, ulen, clen)
	}
	comp := data[sectionHdrSize : sectionHdrSize+int(clen)]
	if got := crc32.Checksum(comp, castagnoli); got != wantCRC {
		return nil, 0, corruptf("section %d: checksum mismatch (stored %08x, computed %08x)", wantID, wantCRC, got)
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return nil, 0, corruptf("section %d: %v", wantID, err)
	}
	defer zr.Close()
	// The body is presized to the claimed length, capped at 16× the
	// compressed bytes (real sections run up to ~11×), plus the slack
	// ReadFrom wants to see EOF without regrowing. Past the cap it grows
	// as it reads, so a lying length alone buys at most 16× the
	// compressed bytes before the length check below rejects it.
	var body bytes.Buffer
	body.Grow(int(min(ulen, 16*clen)) + bytes.MinRead)
	n, err := body.ReadFrom(io.LimitReader(zr, int64(ulen)+1))
	if err != nil {
		return nil, 0, corruptf("section %d: %v", wantID, err)
	}
	if uint64(n) != ulen {
		return nil, 0, corruptf("section %d: decompressed to %d bytes, header claims %d", wantID, n, ulen)
	}
	return body.Bytes(), sectionHdrSize + int(clen), nil
}

// --- files ---

// SaveFile writes a snapshot to path durably (see WriteFileAtomic); a
// failure at any step leaves the previous snapshot at path untouched.
func (g *Graph) SaveFile(path string) error {
	return WriteFileAtomic(path, g.Save)
}

// WriteFileAtomic durably replaces the file at path with what write
// produces. It is the one durability routine every snapshot, journal and
// manifest goes through: the content is written to a temp file in the same
// directory and fsync'd before the rename (a rename whose data has not
// reached the disk is exactly the crash window that loses a "successfully"
// saved file), the temp file is renamed over path, and the parent directory
// is fsync'd so the rename itself survives a crash. A failure at any step,
// including an error from write, removes the temp file and leaves whatever
// was at path untouched. Callers that need a checksum or a byte count wrap
// the writer inside write.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Graph, error) {
	g, _, err := LoadFileWith(path, LoadOptions{})
	return g, err
}

// LoadFileWith reads a snapshot from path with options (dictionary
// seeding) and a reuse report.
func LoadFileWith(path string, opts LoadOptions) (*Graph, LoadReport, error) {
	data, err := os.ReadFile(path) // one read at the file's size
	if err != nil {
		return nil, LoadReport{}, err
	}
	return loadBytes(data, opts)
}
