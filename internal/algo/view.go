// Package algo is the graph-analytics engine: a layer between the
// storage engine (internal/graph) and the query language (internal/cypher)
// that serves whole-graph structural computations — the paper's DNS
// robustness and single-point-of-failure evaluations, and the degree /
// centrality measures used to compare Internet data sources.
//
// The row-at-a-time Cypher executor expresses these analyses as nested
// MATCH loops, which touch the store's lock and property maps per
// binding. algo instead compiles an immutable, read-optimized CSR view
// of one graph generation (int32-compacted node IDs, offset+edge arrays,
// optional weight columns) and runs parallel kernels over it: multi-source
// BFS, connected components (weak and strong), degree statistics,
// PageRank, harmonic-centrality sampling, and a k-reach dependency kernel
// generalizing the paper's SPoF counting. Kernels are exposed to Cypher
// through `CALL algo.<name>(...) YIELD ...` procedures (see proc.go) and
// to Go callers directly.
//
// Every kernel is deterministic: given the same view and parameters it
// produces identical results at any GOMAXPROCS, so query results never
// depend on the machine's core count.
package algo

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iyp/internal/graph"
)

// ViewOptions select the slice of the graph a View materializes.
type ViewOptions struct {
	// Labels keeps only nodes carrying at least one of these labels
	// (empty = every node).
	Labels []string
	// RelTypes keeps only relationships of these types (empty = all).
	RelTypes []string
	// WeightProp, when set, materializes this relationship property as
	// the edge weight column (missing or non-numeric values weigh 1).
	WeightProp string
}

// key canonicalizes the options for cache lookups.
func (o ViewOptions) key() string {
	ls := append([]string(nil), o.Labels...)
	ts := append([]string(nil), o.RelTypes...)
	sort.Strings(ls)
	sort.Strings(ts)
	return strings.Join(ls, ",") + "|" + strings.Join(ts, ",") + "|" + o.WeightProp
}

// View is an immutable compressed-sparse-row snapshot of one graph
// generation. Nodes are renumbered into dense int32 indexes [0, N);
// adjacency is stored twice (out- and in-neighbor lists) as offset+edge
// arrays sorted within each list, so kernels scan contiguous memory and
// produce deterministic results. A View is safe for concurrent use and
// never observes later graph mutations.
type View struct {
	ids     []graph.NodeID // internal index -> external node ID, ascending
	ext2int []int32        // external node ID -> internal index; -1 = not in view

	outOff []int64 // len N+1
	outTo  []int32 // len M, sorted within each node's slice
	outW   []float64

	inOff []int64
	inTo  []int32
	inW   []float64

	// BuildTime is how long compilation took.
	BuildTime time.Duration
}

// N is the number of nodes in the view.
func (v *View) N() int { return len(v.ids) }

// M is the number of edges in the view.
func (v *View) M() int { return len(v.outTo) }

// ExtID maps an internal index to its external node ID.
func (v *View) ExtID(i int32) graph.NodeID { return v.ids[i] }

// IntID maps an external node ID to the view's internal index (-1 when
// the node is not part of the view).
func (v *View) IntID(id graph.NodeID) int32 {
	if id == 0 || int(id) >= len(v.ext2int) {
		return -1
	}
	return v.ext2int[id]
}

// Out returns node i's out-neighbor slice (ascending, do not mutate).
func (v *View) Out(i int32) []int32 { return v.outTo[v.outOff[i]:v.outOff[i+1]] }

// In returns node i's in-neighbor slice (ascending, do not mutate).
func (v *View) In(i int32) []int32 { return v.inTo[v.inOff[i]:v.inOff[i+1]] }

// OutW returns the weights parallel to Out(i); nil for unweighted views.
func (v *View) OutW(i int32) []float64 {
	if v.outW == nil {
		return nil
	}
	return v.outW[v.outOff[i]:v.outOff[i+1]]
}

// InW returns the weights parallel to In(i); nil for unweighted views.
func (v *View) InW(i int32) []float64 {
	if v.inW == nil {
		return nil
	}
	return v.inW[v.inOff[i]:v.inOff[i+1]]
}

// OutDegree returns node i's out-degree.
func (v *View) OutDegree(i int32) int { return int(v.outOff[i+1] - v.outOff[i]) }

// InDegree returns node i's in-degree.
func (v *View) InDegree(i int32) int { return int(v.inOff[i+1] - v.inOff[i]) }

// NewView compiles a CSR view of g under opts. Extraction holds the
// store's read lock once (graph.BulkRead); the CSR build itself —
// degree counting, scatter, and per-list sorting — is parallelized
// across GOMAXPROCS workers.
func NewView(g *graph.Graph, opts ViewOptions) *View {
	t0 := time.Now()
	var (
		ids        []graph.NodeID
		ext2int    []int32
		srcs, dsts []int32
		ws         []float64
	)
	g.BulkRead(func(br *graph.BulkReader) {
		maxID := br.MaxNodeID()
		ext2int = make([]int32, maxID+1)
		for i := range ext2int {
			ext2int[i] = -1
		}
		if len(opts.Labels) == 0 {
			ids = make([]graph.NodeID, 0, br.NumNodes())
			br.EachNode(func(id graph.NodeID) bool {
				ids = append(ids, id)
				return true
			})
		} else {
			keep := make([]bool, maxID+1)
			for _, l := range opts.Labels {
				for _, id := range br.NodesByLabel(l) {
					keep[id] = true
				}
			}
			br.EachNode(func(id graph.NodeID) bool {
				if keep[id] {
					ids = append(ids, id)
				}
				return true
			})
		}
		for i, id := range ids {
			ext2int[id] = int32(i)
		}

		var want []uint16
		if len(opts.RelTypes) > 0 {
			want = make([]uint16, 0, len(opts.RelTypes))
			for _, t := range opts.RelTypes {
				if tid, ok := br.TypeID(t); ok {
					want = append(want, tid)
				}
			}
			if len(want) == 0 {
				return // none of the requested types exist: no edges
			}
		}
		match := func(typ uint16) bool {
			if want == nil {
				return true
			}
			for _, w := range want {
				if w == typ {
					return true
				}
			}
			return false
		}
		br.EachRel(func(rid graph.RelID, typ uint16, from, to graph.NodeID) bool {
			if !match(typ) {
				return true
			}
			f, t := ext2int[from], ext2int[to]
			if f < 0 || t < 0 {
				return true
			}
			srcs = append(srcs, f)
			dsts = append(dsts, t)
			if opts.WeightProp != "" {
				w, ok := br.RelProp(rid, opts.WeightProp).AsFloat()
				if !ok {
					w = 1
				}
				ws = append(ws, w)
			}
			return true
		})
	})
	v := buildCSR(ids, ext2int, srcs, dsts, ws)
	v.BuildTime = time.Since(t0)
	observeViewBuild(v)
	return v
}

// buildCSR assembles both CSR directions from an edge list. Counting
// uses shared atomic counters, the scatter claims slots with atomic
// cursors, and each adjacency list is then sorted — so the resulting
// arrays are identical however many workers ran.
func buildCSR(ids []graph.NodeID, ext2int []int32, srcs, dsts []int32, ws []float64) *View {
	n, m := len(ids), len(srcs)
	v := &View{ids: ids, ext2int: ext2int}
	v.outOff = make([]int64, n+1)
	v.inOff = make([]int64, n+1)
	v.outTo = make([]int32, m)
	v.inTo = make([]int32, m)
	if ws != nil {
		v.outW = make([]float64, m)
		v.inW = make([]float64, m)
	}
	if n == 0 {
		return v
	}

	outCnt := make([]int32, n)
	inCnt := make([]int32, n)
	parallelFor(m, 0, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			atomic.AddInt32(&outCnt[srcs[e]], 1)
			atomic.AddInt32(&inCnt[dsts[e]], 1)
		}
	})
	for i := 0; i < n; i++ {
		v.outOff[i+1] = v.outOff[i] + int64(outCnt[i])
		v.inOff[i+1] = v.inOff[i] + int64(inCnt[i])
	}

	outCur := make([]int64, n)
	inCur := make([]int64, n)
	copy(outCur, v.outOff[:n])
	copy(inCur, v.inOff[:n])
	parallelFor(m, 0, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			s, d := srcs[e], dsts[e]
			op := atomic.AddInt64(&outCur[s], 1) - 1
			ip := atomic.AddInt64(&inCur[d], 1) - 1
			v.outTo[op] = d
			v.inTo[ip] = s
			if ws != nil {
				v.outW[op] = ws[e]
				v.inW[ip] = ws[e]
			}
		}
	})

	// Sort each adjacency list to erase scatter nondeterminism. Parallel
	// edges keep their weights attached; equal targets order by weight so
	// even multigraph views are canonical.
	parallelFor(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sortAdj(v.outTo[v.outOff[i]:v.outOff[i+1]], wslice(v.outW, v.outOff[i], v.outOff[i+1]))
			sortAdj(v.inTo[v.inOff[i]:v.inOff[i+1]], wslice(v.inW, v.inOff[i], v.inOff[i+1]))
		}
	})
	return v
}

func wslice(w []float64, lo, hi int64) []float64 {
	if w == nil {
		return nil
	}
	return w[lo:hi]
}

func sortAdj(to []int32, w []float64) {
	if len(to) < 2 {
		return
	}
	if w == nil {
		sort.Slice(to, func(a, b int) bool { return to[a] < to[b] })
		return
	}
	sort.Sort(&adjSorter{to: to, w: w})
}

type adjSorter struct {
	to []int32
	w  []float64
}

func (s *adjSorter) Len() int { return len(s.to) }
func (s *adjSorter) Less(a, b int) bool {
	if s.to[a] != s.to[b] {
		return s.to[a] < s.to[b]
	}
	return s.w[a] < s.w[b]
}
func (s *adjSorter) Swap(a, b int) {
	s.to[a], s.to[b] = s.to[b], s.to[a]
	s.w[a], s.w[b] = s.w[b], s.w[a]
}

// defaultWorkers is the pool size used when a kernel's Workers option is
// unset.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// parallelFor splits [0, n) into contiguous chunks across workers
// (0 = GOMAXPROCS) and runs fn on each chunk concurrently.
func parallelFor(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
