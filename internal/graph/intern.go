package graph

import (
	"sync"
	"sync/atomic"
)

// Interner is the dictionary behind the columnar property layout: an
// append-only table of property-key and string-value payloads (plus interned
// list payloads), shared structurally across every generation of a graph
// lineage. Nodes and relationships store fixed-size ids into it instead of
// boxed strings, so a COW clone shares all string storage with its parent
// and never copies the dictionary.
//
// Concurrency contract: lookups and id→payload resolution are lock-free and
// safe from any goroutine (including readers of frozen generations);
// appends serialize on a mutex. Payload slots are published through the
// lookup map (or through a graph publication such as MVStore's atomic head
// store), both of which provide the happens-before edge readers need.
//
// The table is content-addressed — an id means the same payload to every
// graph that references this Interner — so sharing one Interner across
// independently-loaded generations (a replica following a store, a delta
// build seeded from its parent) is always safe. The cost of sharing is that
// strings interned by discarded clones are retained until the whole lineage
// is dropped; the table is append-only by design.
type Interner struct {
	mu sync.Mutex // serializes appends

	strLookup  sync.Map // string → uint32
	listLookup sync.Map // normalized encoding (string) → uint32

	strChunks  atomic.Pointer[[][]string]
	listChunks atomic.Pointer[[][][]Value]

	strCount  atomic.Uint64
	listCount atomic.Uint64
}

// internChunkShift sizes arena chunks (1<<shift payloads each). Chunks are
// allocated at full length up front and filled by index, so readers can
// index any published id without observing a slice append.
const internChunkShift = 12

const internChunkSize = 1 << internChunkShift

// NewInterner returns an empty dictionary.
func NewInterner() *Interner {
	return &Interner{}
}

// Len reports how many distinct strings the table holds.
func (in *Interner) Len() int { return int(in.strCount.Load()) }

// Lookup probes for s without interning it. ok is false when s has never
// been interned — for a read path that means no stored value can equal it.
// It is lock-free.
func (in *Interner) Lookup(s string) (uint32, bool) {
	v, ok := in.strLookup.Load(s)
	if !ok {
		return 0, false
	}
	return v.(uint32), true
}

// Translator maps the string ids of one Interner (from) into another's
// (to), so graphs with separate dictionaries compare strings as integers;
// it is the identity when both share one. Lookups are lazy, cached in a
// dense slice indexed by from's ids. A string to lacks maps to its from id
// with Missing set, never equal to an id of to even if to grows meanwhile.
// A Translator is not safe for concurrent use.
type Translator struct {
	from, to *Interner
	ids      []uint32 // from id → to id + 1; 0 = not looked up yet
}

// Missing marks a translated id whose string the target dictionary lacks.
const Missing = 1 << 31

// NewTranslator returns a translator from one dictionary's ids into another's.
func NewTranslator(from, to *Interner) *Translator {
	return &Translator{from: from, to: to}
}

// ID translates one of from's string ids.
func (t *Translator) ID(id uint32) uint32 {
	if t.from == t.to {
		return id
	}
	if int(id) >= len(t.ids) {
		t.ids = append(t.ids, make([]uint32, max(t.from.Len(), int(id)+1)-len(t.ids))...)
	}
	if v := t.ids[id]; v != 0 {
		return v - 1
	}
	v, ok := t.to.Lookup(t.from.str(id))
	if !ok {
		v = id | Missing
	}
	t.ids[id] = v + 1
	return v
}

// Str resolves a translated id back to its string.
func (t *Translator) Str(id uint32) string {
	if id&Missing != 0 {
		return t.from.str(id &^ Missing)
	}
	return t.to.str(id)
}

// intern returns the id for s, appending it on first sight.
func (in *Interner) intern(s string) uint32 {
	id, _ := in.internHit(s)
	return id
}

// internHit is intern plus a reuse report: existed is true when s was
// already in the table (the loader counts these as dictionary reuse hits).
func (in *Interner) internHit(s string) (id uint32, existed bool) {
	if v, ok := in.strLookup.Load(s); ok {
		return v.(uint32), true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.strLookup.Load(s); ok {
		return v.(uint32), true
	}
	n := uint32(in.strCount.Load())
	chunk, slot := n>>internChunkShift, n&(internChunkSize-1)
	chunks := in.strChunks.Load()
	if chunks == nil || int(chunk) >= len(*chunks) {
		var grown [][]string
		if chunks != nil {
			grown = append(grown, *chunks...)
		}
		grown = append(grown, make([]string, internChunkSize))
		in.strChunks.Store(&grown)
		chunks = &grown
	}
	(*chunks)[chunk][slot] = s
	in.strCount.Store(uint64(n) + 1)
	in.strLookup.Store(s, n)
	return n, false
}

// str resolves an id to its string. The id must have been produced by this
// Interner; resolution is lock-free.
func (in *Interner) str(id uint32) string {
	chunks := in.strChunks.Load()
	return (*chunks)[id>>internChunkShift][id&(internChunkSize-1)]
}

// internListKey interns a list payload under its pre-computed dedup key
// (the exact snapshot value encoding — see listDedupKey — so Int(2) and
// Float(2.0) elements stay distinct payloads and round-trip their kinds).
func (in *Interner) internListKey(key string, vs []Value) uint32 {
	if v, ok := in.listLookup.Load(key); ok {
		return v.(uint32)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v, ok := in.listLookup.Load(key); ok {
		return v.(uint32)
	}
	n := uint32(in.listCount.Load())
	chunk, slot := n>>internChunkShift, n&(internChunkSize-1)
	chunks := in.listChunks.Load()
	if chunks == nil || int(chunk) >= len(*chunks) {
		var grown [][][]Value
		if chunks != nil {
			grown = append(grown, *chunks...)
		}
		grown = append(grown, make([][]Value, internChunkSize))
		in.listChunks.Store(&grown)
		chunks = &grown
	}
	cp := make([]Value, len(vs))
	copy(cp, vs)
	(*chunks)[chunk][slot] = cp
	in.listCount.Store(uint64(n) + 1)
	in.listLookup.Store(key, n)
	return n
}

// list resolves a list id to its (shared, do-not-mutate) payload.
func (in *Interner) list(id uint32) []Value {
	chunks := in.listChunks.Load()
	return (*chunks)[id>>internChunkShift][id&(internChunkSize-1)]
}

// listDedupKey is the content address of a list payload: the exact bytes
// the snapshot encoder would write for the value. Using the byte encoding
// (rather than a display form) keeps semantically-distinct payloads — e.g.
// [2] as ints vs floats — from colliding and corrupting a round-trip.
func listDedupKey(vs []Value) string {
	var e encBuf
	for _, v := range vs {
		e.value(v)
	}
	return string(e.b)
}
