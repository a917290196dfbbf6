package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MVStore is the multi-version concurrency layer over immutable graph
// generations — the piece that turns the engine from "stop-the-world
// builds" into "serve queries during ingestion" (the paper's IYP is
// rebuilt weekly but queried continuously, so this is the production
// read path).
//
// The design is single-writer / many-readers:
//
//   - The current generation ("head") is a frozen Graph published through
//     an atomic pointer. Readers pin it with Acquire and then run entirely
//     lock-free: frozen graphs elide the store RWMutex in every accessor.
//   - A writer (Update / ApplyBatch) takes the writer mutex, Clones the
//     head (copy-on-write: directories are copied, everything they point
//     to is shared until written), mutates the private clone, freezes it,
//     and publishes it with one atomic swap. Readers pinned to the old
//     head are unaffected; new readers see the new head.
//   - Superseded generations are reclaimed with a pin-count epoch scheme:
//     each generation counts its pinned readers, and once a retired
//     generation's count drains to zero (and it has aged out of the retain
//     window) the store drops its reference and notifies OnRetire hooks so
//     derived caches (the analytics CSR views) release theirs too. The Go
//     GC frees the memory; "reclamation" here means the store stops
//     keeping superseded versions alive.
//
// The retain window keeps the most recent generations available to
// AcquireGen even with no reader pinned — the foundation for AS-OF
// queries and the HTTP API's explicit "generation" pinning.
type MVStore struct {
	// writeMu serializes writers: one clone-mutate-publish cycle at a time.
	writeMu sync.Mutex

	head atomic.Pointer[mvGen]

	// mu guards retained and onRetire.
	mu       sync.Mutex
	retained map[uint64]*mvGen
	retain   int
	onRetire []func(*Graph)

	// history, when set, resolves generations that have aged out of the
	// in-memory retain window from persistent storage (the generation
	// store). AcquireGen falls back to it after an in-memory miss.
	history atomic.Pointer[HistorySource]

	reclaimed atomic.Uint64
}

// HistorySource resolves generations that are no longer retained in
// memory — typically by materializing gen-NNNNNN.snapshot files from the
// on-disk generation store. AcquireHistorical returns a frozen graph for
// gen, pinned until release is called. Implementations must be safe for
// concurrent use.
type HistorySource interface {
	AcquireHistorical(gen uint64) (*Graph, func(), error)
}

// mvGen is one published generation and its reader bookkeeping.
type mvGen struct {
	gen     uint64
	g       *Graph
	pins    atomic.Int64
	retired atomic.Bool
}

// DefaultRetain is how many recent generations an MVStore keeps available
// to AcquireGen beyond the current one, absent a SetRetain override.
const DefaultRetain = 4

// NewMVStore takes ownership of g, freezes it as generation 1 and returns
// the versioned store. The caller must not mutate g afterwards; all writes
// go through Update or ApplyBatch.
func NewMVStore(g *Graph) *MVStore { return NewMVStoreAt(g, 1) }

// NewMVStoreAt is NewMVStore with an explicit starting generation number.
// When the graph was loaded from a generation store, passing the store's
// head sequence aligns the in-memory chain with the on-disk one, so AS-OF
// reads of older numbers can be resolved from disk through a HistorySource.
func NewMVStoreAt(g *Graph, gen uint64) *MVStore {
	if gen == 0 {
		gen = 1
	}
	st := &MVStore{
		retained: make(map[uint64]*mvGen),
		retain:   DefaultRetain,
	}
	g.Freeze()
	e := &mvGen{gen: gen, g: g}
	st.retained[gen] = e
	st.head.Store(e)
	return st
}

// UnnumberPlaceholder renumbers the head as generation 0 when it is still
// the store's only generation and an empty graph — the placeholder a
// follower serves until its first load. Generation 0 stands outside the
// numbered chain: SwapAt can then publish a followed store's seq N as
// generation N from N = 1 on, and the placeholder leaves the chain as soon
// as it is superseded and unpinned, whatever the retain window, so no
// AS-OF read can land on it. A store that holds data, or more than one
// generation, is left as it is.
func (st *MVStore) UnnumberPlaceholder() {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	cur := st.head.Load()
	if cur.gen == 0 || cur.g.NumNodes() != 0 || cur.g.NumRels() != 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.retained) != 1 {
		return
	}
	// Readers pinned to cur keep their entry; it is simply no longer
	// tracked, and the same graph lives on under generation 0.
	e := &mvGen{g: cur.g}
	delete(st.retained, cur.gen)
	st.retained[0] = e
	st.head.Store(e)
	cur.retired.Store(true)
}

// SetHistory installs (or, with nil, removes) the fallback source AcquireGen
// consults for generations outside the in-memory retain window.
func (st *MVStore) SetHistory(h HistorySource) {
	if h == nil {
		st.history.Store(nil)
		return
	}
	st.history.Store(&h)
}

// SetRetain sets how many generations beyond the current are kept for
// AcquireGen even when unpinned (minimum 0). Lowering it reclaims eagerly.
func (st *MVStore) SetRetain(n int) {
	if n < 0 {
		n = 0
	}
	st.mu.Lock()
	st.retain = n
	st.mu.Unlock()
	st.tryReclaim()
}

// OnRetire registers fn to run when a superseded generation is reclaimed
// (last pin released and aged out of the retain window). Used to drop
// derived per-generation caches; fn must not call back into the store.
func (st *MVStore) OnRetire(fn func(*Graph)) {
	st.mu.Lock()
	st.onRetire = append(st.onRetire, fn)
	st.mu.Unlock()
}

// Acquire pins the current generation and returns it with its generation
// number and a release function. The returned graph is frozen — every read
// accessor on it is lock-free — and is guaranteed to stay available until
// release is called. release is idempotent.
func (st *MVStore) Acquire() (*Graph, uint64, func()) {
	for {
		e := st.head.Load()
		e.pins.Add(1)
		if testAcquireHook != nil {
			testAcquireHook()
		}
		// A writer may have published a new head (and retired e) between
		// the load and the pin. Re-check: if e is still head, or not yet
		// retired, the pin is effective — a retired generation is only
		// reclaimed once its pin count drains, and our pin is already
		// counted. Only when e was retired before we pinned do we retry,
		// because its reclamation may already be in flight. The writer's
		// reclaim pass may have skipped e for this very pin: unpin drains.
		if st.head.Load() == e || !e.retired.Load() {
			return e.g, e.gen, st.releaseFunc(e)
		}
		st.unpin(e)
	}
}

// testAcquireHook, when non-nil, runs in Acquire between the pin and the
// re-check, so a test can publish there; production code never sets it.
var testAcquireHook func()

// AcquireGen pins a specific generation (the AS-OF read path). Recent
// generations are served from the in-memory retain window; older ones fall
// back to the HistorySource (when one is installed), which materializes the
// persisted snapshot. It fails when gen is not in memory and the history
// cannot supply it either.
func (st *MVStore) AcquireGen(gen uint64) (*Graph, func(), error) {
	st.mu.Lock()
	e, ok := st.retained[gen]
	if ok {
		e.pins.Add(1)
	}
	st.mu.Unlock()
	if ok {
		return e.g, st.releaseFunc(e), nil
	}
	if hp := st.history.Load(); hp != nil {
		g, release, err := (*hp).AcquireHistorical(gen)
		if err == nil {
			return g, release, nil
		}
		return nil, nil, fmt.Errorf("graph: generation %d is not in the retain window and could not be loaded from history (current is %d): %w", gen, st.CurrentGen(), err)
	}
	return nil, nil, fmt.Errorf("graph: generation %d is not available (reclaimed or never published; current is %d)", gen, st.CurrentGen())
}

// releaseFunc returns an idempotent unpin for e.
func (st *MVStore) releaseFunc(e *mvGen) func() {
	var once sync.Once
	return func() { once.Do(func() { st.unpin(e) }) }
}

// unpin drops one pin on e and triggers reclamation when the last pin on
// a retired generation drains.
func (st *MVStore) unpin(e *mvGen) {
	if e.pins.Add(-1) == 0 && e.retired.Load() {
		st.tryReclaim()
	}
}

// Current returns the current generation's graph without pinning it. The
// graph is immutable and safe to read indefinitely; "unpinned" only means
// the store may stop tracking it for AcquireGen once superseded.
func (st *MVStore) Current() *Graph { return st.head.Load().g }

// CurrentGen returns the current generation number.
func (st *MVStore) CurrentGen() uint64 { return st.head.Load().gen }

// Reclaimed returns how many superseded generations have been reclaimed.
func (st *MVStore) Reclaimed() uint64 { return st.reclaimed.Load() }

// Live returns how many generations the store currently tracks (current +
// retained + pinned-but-retired).
func (st *MVStore) Live() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.retained)
}

// Update runs fn against a private mutable clone of the current generation
// and, if fn succeeds, publishes the result as the next generation,
// returning its number. If fn returns an error the clone is discarded and
// the store is untouched — writes are all-or-nothing at generation
// granularity. Updates are serialized; readers are never blocked.
func (st *MVStore) Update(fn func(*Graph) error) (uint64, error) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()

	cur := st.head.Load()
	next := cur.g.Clone()
	if err := fn(next); err != nil {
		return 0, err
	}
	next.Freeze()

	e := &mvGen{gen: cur.gen + 1, g: next}
	st.mu.Lock()
	st.retained[e.gen] = e
	st.mu.Unlock()

	st.head.Store(e)
	cur.retired.Store(true)
	st.tryReclaim()
	return e.gen, nil
}

// Swap publishes g — a complete graph built elsewhere, typically loaded
// from a snapshot — as the next generation, replacing the head without the
// clone-mutate cycle. This is the replica reload path: a follower loads and
// verifies a new builder generation off the serving path, then swaps it in
// with one atomic publish. Readers pinned to the old head finish on it;
// the old generation drains through the usual pin-count reclamation. Swap
// takes ownership of g (it is frozen here) and returns the new generation
// number.
func (st *MVStore) Swap(g *Graph) uint64 {
	return st.SwapAt(g, 0)
}

// SwapAt is Swap with an explicit generation number: the new head is
// published as gen when that keeps the chain strictly increasing, and as
// head+1 otherwise (gen 0 always means "next"). Followers use it to keep
// the chain numbering aligned with the builder's on-disk sequence numbers,
// so that AS-OF targets and the persisted-history fallback agree about
// what generation N means.
func (st *MVStore) SwapAt(g *Graph, gen uint64) uint64 {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()

	g.Freeze()
	cur := st.head.Load()
	if gen <= cur.gen {
		gen = cur.gen + 1
	}
	e := &mvGen{gen: gen, g: g}
	st.mu.Lock()
	st.retained[e.gen] = e
	st.mu.Unlock()

	st.head.Store(e)
	cur.retired.Store(true)
	st.tryReclaim()
	return e.gen
}

// ApplyBatch applies a staged write-batch as one new generation (see
// Graph.ApplyBatch for the batch semantics) and returns the apply result
// and the generation it produced.
func (st *MVStore) ApplyBatch(b *Batch) (BatchResult, uint64, error) {
	var res BatchResult
	gen, err := st.Update(func(g *Graph) error {
		var err error
		res, err = g.ApplyBatch(b)
		return err
	})
	return res, gen, err
}

// tryReclaim drops retired generations that have no pinned readers and
// have aged out of the retain window, then runs the OnRetire hooks for
// each outside the store lock.
func (st *MVStore) tryReclaim() {
	cur := st.head.Load().gen
	var freed []*mvGen
	st.mu.Lock()
	for gen, e := range st.retained {
		if !e.retired.Load() || e.pins.Load() > 0 {
			continue
		}
		if gen != 0 && cur-gen <= uint64(st.retain) {
			continue // recent: kept for AcquireGen / AS-OF reads
		}
		delete(st.retained, gen)
		freed = append(freed, e)
	}
	hooks := st.onRetire
	st.mu.Unlock()
	for _, e := range freed {
		st.reclaimed.Add(1)
		for _, fn := range hooks {
			fn(e.g)
		}
	}
}

// GenInfo describes one tracked generation (the /v1/generations payload).
type GenInfo struct {
	Gen     uint64 `json:"generation"`
	Nodes   int    `json:"nodes"`
	Rels    int    `json:"rels"`
	Pins    int64  `json:"pinned_readers"`
	Current bool   `json:"current"`
}

// Generations lists the tracked generations, ascending.
func (st *MVStore) Generations() []GenInfo {
	cur := st.head.Load().gen
	st.mu.Lock()
	out := make([]GenInfo, 0, len(st.retained))
	for _, e := range st.retained {
		out = append(out, GenInfo{
			Gen:     e.gen,
			Nodes:   e.g.NumNodes(),
			Rels:    e.g.NumRels(),
			Pins:    e.pins.Load(),
			Current: e.gen == cur,
		})
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Gen < out[j].Gen })
	return out
}
