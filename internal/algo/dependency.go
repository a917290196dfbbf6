package algo

import (
	"context"
	"sync/atomic"
	"time"
)

// The k-reach dependency kernel generalizes the paper's single-point-of-
// failure counting. For each source s, look at the sinks (out-degree-0
// nodes) reachable within K hops — in the IYP schema these are the
// terminal dependencies: country codes, AS operators, name servers. A
// node x is a sole dependency of s when removing x from the graph leaves
// s with no reachable sink; the kernel counts, per node, how many sources
// depend solely on it. With K=1 over a view whose sources are domains and
// whose sinks are their dependency keys, this is the paper's "domains with
// a single country / single AS" SPoF question; CALL algo.dependency asks
// it of any view.

// DependencyOptions configure the kernel.
type DependencyOptions struct {
	// K bounds the reach in hops (default 1).
	K int32
	// MaxReach skips sources whose K-hop reachable set exceeds this size,
	// bounding the quadratic what-if phase (default 4096; <0 = unbounded).
	MaxReach int
	// Workers caps parallelism (<=0 = GOMAXPROCS).
	Workers int
}

// Dependency returns count[x] = number of sources solely dependent on
// node x. sources nil means every node in the view. Counts are integer
// and accumulated atomically, so results are exact at any worker count.
func Dependency(ctx context.Context, v *View, sources []int32, opts DependencyOptions) ([]int64, error) {
	t0 := time.Now()
	n := v.N()
	count := make([]int64, n)
	if n == 0 {
		return count, ctx.Err()
	}
	k := opts.K
	if k <= 0 {
		k = 1
	}
	maxReach := opts.MaxReach
	if maxReach == 0 {
		maxReach = 4096
	}
	if sources == nil {
		sources = make([]int32, n)
		for i := range sources {
			sources[i] = int32(i)
		}
	}

	var cancelled atomic.Bool
	parallelFor(len(sources), opts.Workers, func(lo, hi int) {
		dist := make([]int32, n)
		var reached []int32
		for si := lo; si < hi; si++ {
			if si&63 == 0 && ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			s := sources[si]
			if s < 0 || int(s) >= n {
				continue
			}
			if k == 1 {
				// Fast path: the only candidate cut nodes are the sink
				// neighbors themselves; s depends solely on a sink when it
				// is s's unique sink neighbor.
				sole := int32(-1)
				nsinks := 0
				for _, w := range v.Out(s) {
					if w != s && v.OutDegree(w) == 0 && w != sole {
						sole = w
						nsinks++
						if nsinks > 1 {
							break
						}
					}
				}
				if nsinks == 1 {
					atomic.AddInt64(&count[sole], 1)
				}
				continue
			}

			reached = bfsCollect(v, s, k, dist, reached[:0])
			if maxReach >= 0 && len(reached) > maxReach {
				continue
			}
			hasSink := false
			for _, u := range reached {
				if v.OutDegree(u) == 0 {
					hasSink = true
					break
				}
			}
			if !hasSink {
				continue
			}
			for _, c := range reached {
				if c == s {
					continue
				}
				if !sinkReachableExcl(v, s, k, c, dist) {
					atomic.AddInt64(&count[c], 1)
				}
			}
		}
	})
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	observeKernel("dependency", len(sources), time.Since(t0))
	return count, nil
}

// bfsCollect runs a bounded sequential BFS and returns the reached set
// (source included), reusing dist and buf.
func bfsCollect(v *View, src, maxDepth int32, dist []int32, buf []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	buf = append(buf, src)
	for qi := 0; qi < len(buf); qi++ {
		u := buf[qi]
		du := dist[u]
		if du >= maxDepth {
			continue
		}
		for _, w := range v.Out(u) {
			if dist[w] == -1 {
				dist[w] = du + 1
				buf = append(buf, w)
			}
		}
	}
	return buf
}

// sinkReachableExcl reports whether any sink is reachable from src within
// maxDepth hops when excl is removed from the graph.
func sinkReachableExcl(v *View, src, maxDepth, excl int32, dist []int32) bool {
	if src == excl {
		return false
	}
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	if v.OutDegree(src) == 0 {
		return true
	}
	queue := []int32{src}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		if du >= maxDepth {
			continue
		}
		for _, w := range v.Out(u) {
			if w == excl || dist[w] != -1 {
				continue
			}
			dist[w] = du + 1
			if v.OutDegree(w) == 0 {
				return true
			}
			queue = append(queue, w)
		}
	}
	return false
}
