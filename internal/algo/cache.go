package algo

import (
	"sync"
	"weak"

	"iyp/internal/graph"
)

// View compilation costs one full pass over the store, so serving layers
// must not pay it per query. CachedView memoizes compiled views keyed by
// (graph identity, graph generation, view options): as soon as the store
// mutates, Graph.Version moves and the stale view is replaced on next
// use. The cache is a small bounded map — analytics workloads touch a
// handful of view shapes — and builds are single-flighted so a burst of
// identical CALL queries compiles once. The key holds its graph weakly:
// the cache never keeps a superseded generation alive, and the views of
// a collected graph are dropped at the next insertion.

const viewCacheCap = 8

type viewCacheKey struct {
	g    weak.Pointer[graph.Graph]
	opts string
}

type viewCacheEntry struct {
	once    sync.Once
	version uint64
	view    *View
}

var (
	viewCacheMu  sync.Mutex
	viewCache    = map[viewCacheKey]*viewCacheEntry{}
	viewCacheLRU []viewCacheKey // insertion order, oldest first
)

// CachedView returns the CSR view of g under opts, compiling it at most
// once per graph generation. Concurrent callers for the same key share
// one build.
func CachedView(g *graph.Graph, opts ViewOptions) *View {
	key := viewCacheKey{g: weak.Make(g), opts: opts.key()}
	version := g.Version()

	viewCacheMu.Lock()
	e := viewCache[key]
	if e != nil && e.version != version {
		// Stale generation: replace the slot.
		e = nil
	}
	if e == nil {
		e = &viewCacheEntry{version: version}
		if _, exists := viewCache[key]; !exists {
			dropViewsLocked(func(k viewCacheKey) bool { return k.g.Value() == nil })
			viewCacheLRU = append(viewCacheLRU, key)
			for len(viewCacheLRU) > viewCacheCap {
				evict := viewCacheLRU[0]
				viewCacheLRU = viewCacheLRU[1:]
				delete(viewCache, evict)
			}
		}
		viewCache[key] = e
		metrics.viewMisses.Add(1)
	} else {
		metrics.viewHits.Add(1)
	}
	viewCacheMu.Unlock()

	e.once.Do(func() { e.view = NewView(g, opts) })
	return e.view
}

// InvalidateViews drops every cached view for g (all generations). Used
// by tests and by callers that know g is about to be retired. It reads
// the keys' pointers rather than making one for g, so retiring a graph
// that never had a view does not give it a weak handle.
func InvalidateViews(g *graph.Graph) {
	viewCacheMu.Lock()
	defer viewCacheMu.Unlock()
	dropViewsLocked(func(k viewCacheKey) bool { return k.g.Value() == g })
}

// dropViewsLocked removes every cached view whose key matches drop; the
// caller holds viewCacheMu.
func dropViewsLocked(drop func(viewCacheKey) bool) {
	kept := viewCacheLRU[:0]
	for _, k := range viewCacheLRU {
		if drop(k) {
			delete(viewCache, k)
			continue
		}
		kept = append(kept, k)
	}
	viewCacheLRU = kept
}
