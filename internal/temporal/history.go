// Package temporal turns the generation machinery into a temporal
// knowledge graph: AS-OF reads over persisted generations (History), a
// deterministic generation-diff engine (Diff), and the glue that exposes
// both through Cypher (`AS OF`, `CALL temporal.diff`), HTTP and the CLI
// tools. The paper's workflow is weekly dumps; this package makes "how did
// the Internet change between builds" a first-class query instead of a
// hand-rolled two-snapshot comparison.
package temporal

import (
	"fmt"
	"sync"

	"iyp/internal/graph"
)

// DefaultMaxResident is how many materialized historical generations a
// History keeps in memory absent an override. Historical graphs are full
// snapshots, so the budget is deliberately small.
const DefaultMaxResident = 2

// History materializes persisted generations (gen-NNNNNN.snapshot files in
// a graph.Store) into frozen in-memory graphs on demand, serving
// `graph.MVStore.AcquireGen` misses for generations that have aged out of
// the in-memory retain window. It implements graph.HistorySource.
//
// Resident generations are bounded by an LRU budget: once more than
// maxResident are materialized, the least-recently-used unpinned one is
// dropped. A generation with pinned readers is never evicted — the cache
// overshoots its budget until the pins drain, and eviction re-runs on every
// release ("eviction by pin-drain"). While a generation is resident (or
// loading) the History protects its snapshot file from the store's
// keep-N pruning via Store.Protect, so an AS-OF reader can never have the
// file deleted out from under it.
//
// Loads are single-flight: concurrent requests for the same generation
// share one disk read; failures are returned to every waiter and are not
// cached negatively.
type History struct {
	store *graph.Store
	max   int

	mu        sync.Mutex
	entries   map[uint64]*histEntry
	clock     uint64
	loads     uint64
	hits      uint64
	evictions uint64
}

// histEntry is one materialized (or in-flight) historical generation.
type histEntry struct {
	seq     uint64
	g       *graph.Graph
	err     error
	pins    int
	lastUse uint64
	loading chan struct{} // closed once g/err is settled
}

// NewHistory wraps store with a materialization cache keeping at most
// maxResident generations in memory (0 means DefaultMaxResident). The
// History registers itself as a pruning protector on store.
func NewHistory(store *graph.Store, maxResident int) *History {
	if maxResident <= 0 {
		maxResident = DefaultMaxResident
	}
	h := &History{
		store:   store,
		max:     maxResident,
		entries: make(map[uint64]*histEntry),
	}
	store.Protect(h.protects)
	return h
}

// Attach wires st's AS-OF fallback to store through a new History and
// returns it: AcquireGen calls that miss the in-memory retain window load
// the persisted snapshot instead of failing.
func Attach(st *graph.MVStore, store *graph.Store, maxResident int) *History {
	h := NewHistory(store, maxResident)
	st.SetHistory(h)
	return h
}

// AcquireHistorical implements graph.HistorySource: it returns the frozen
// graph for gen, pinned until release is called, materializing the
// snapshot from the store on first use.
func (h *History) AcquireHistorical(gen uint64) (*graph.Graph, func(), error) {
	for {
		h.mu.Lock()
		e, ok := h.entries[gen]
		if !ok {
			e = &histEntry{seq: gen, loading: make(chan struct{})}
			h.entries[gen] = e
			h.mu.Unlock()

			g, err := h.load(gen)

			h.mu.Lock()
			if err != nil {
				e.err = err
				delete(h.entries, gen)
				close(e.loading)
				h.mu.Unlock()
				return nil, nil, err
			}
			e.g = g
			e.pins = 1
			e.lastUse = h.tickLocked()
			h.loads++
			close(e.loading)
			h.evictLocked()
			h.mu.Unlock()
			return g, h.releaseFunc(e), nil
		}
		select {
		case <-e.loading:
			if e.err != nil {
				// The failed load already removed itself from the map;
				// retry from scratch (the next pass creates a fresh entry).
				h.mu.Unlock()
				continue
			}
			e.pins++
			e.lastUse = h.tickLocked()
			h.hits++
			h.mu.Unlock()
			return e.g, h.releaseFunc(e), nil
		default:
			// Load in flight: wait outside the lock, then retry.
			h.mu.Unlock()
			<-e.loading
		}
	}
}

// load materializes gen from the store, checked against its manifest record.
func (h *History) load(gen uint64) (*graph.Graph, error) {
	return LoadGeneration(h.store, gen)
}

// LoadGeneration materializes one persisted generation from the store as a
// frozen graph, checked against its manifest record. Callers that need
// caching and pin management should go through History; this is the raw
// load used by offline tools (iyp-report -diff).
func LoadGeneration(store *graph.Store, gen uint64) (*graph.Graph, error) {
	gens, err := store.Generations()
	if err != nil {
		return nil, err
	}
	for _, cand := range gens {
		if cand.Seq != gen {
			continue
		}
		g, _, err := store.Load(cand, nil)
		if err != nil {
			return nil, fmt.Errorf("temporal: generation %d: %w", gen, err)
		}
		g.Freeze()
		return g, nil
	}
	return nil, fmt.Errorf("temporal: generation %d is not present in store %s", gen, store.Dir())
}

// releaseFunc returns an idempotent unpin for e; the last release makes e
// evictable and re-runs eviction (pin-drain).
func (h *History) releaseFunc(e *histEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			h.mu.Lock()
			e.pins--
			h.evictLocked()
			h.mu.Unlock()
		})
	}
}

// evictLocked drops least-recently-used unpinned resident generations until
// the budget holds. Pinned generations are skipped — the cache overshoots
// until their pins drain.
func (h *History) evictLocked() {
	for h.residentLocked() > h.max {
		var victim *histEntry
		for _, e := range h.entries {
			if e.g == nil || e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return // everything pinned or loading: overshoot until pin-drain
		}
		delete(h.entries, victim.seq)
		h.evictions++
	}
}

// residentLocked counts fully materialized entries.
func (h *History) residentLocked() int {
	n := 0
	for _, e := range h.entries {
		if e.g != nil {
			n++
		}
	}
	return n
}

func (h *History) tickLocked() uint64 {
	h.clock++
	return h.clock
}

// protects is the Store.Protect predicate: any generation that is resident,
// loading, or pinned must survive keep-N pruning.
func (h *History) protects(seq uint64) bool {
	h.mu.Lock()
	_, ok := h.entries[seq]
	h.mu.Unlock()
	return ok
}

// HistoryStats is a point-in-time snapshot of the cache's counters.
type HistoryStats struct {
	Resident  int    `json:"resident"`
	Pinned    int    `json:"pinned"`
	Loads     uint64 `json:"loads"`
	Hits      uint64 `json:"hits"`
	Evictions uint64 `json:"evictions"`
}

// Stats reports the cache's current occupancy and counters.
func (h *History) Stats() HistoryStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistoryStats{Loads: h.loads, Hits: h.hits, Evictions: h.evictions}
	for _, e := range h.entries {
		if e.g != nil {
			s.Resident++
		}
		if e.pins > 0 {
			s.Pinned++
		}
	}
	return s
}
