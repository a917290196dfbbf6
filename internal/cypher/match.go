package cypher

import (
	"context"
	"slices"

	"iyp/internal/graph"
)

// Pattern matching. A MATCH clause's comma-separated paths are solved
// sequentially against a shared binding and a shared used-relationship set
// (Cypher's relationship-isomorphism rule: a relationship may appear at
// most once per MATCH pattern).

// errStop is a sentinel used to abort enumeration once a row limit is hit.
var errStop = &Error{Msg: "stop"}

type matcher struct {
	ec        *evalCtx
	g         *graph.Graph
	ctx       context.Context       // nil = never cancelled (Explain)
	binding   row                   // mutated during search (append + truncate)
	used      stackSet[graph.RelID] // rels used by the current pattern
	paths     []resolvedPath        // the clause's patterns, resolved against g (nil when only planning)
	emit      func() error          // called with binding fully extended
	ticks     int                   // cooperative-cancellation tick counter
	scratch   *bfsScratch           // pooled shortestPath BFS state (lazily allocated)
	relBufs   [][]graph.RelID       // adjacency buffers, one per scan nesting depth
	depth     int                   // adjacency scans in progress
	nodeStack []graph.NodeID        // the node at each position of the paths being solved
	relStack  []Val                 // the relationship value at each of their hops
	memo      memoPlan              // the clause's memo points (zero: none)
	states    stackSet[memoKey]     // suffix states this matcher has expanded (grow-only)
	span      adjSpan               // the stretch of adjacency the next scan reads (n == 0: all of it)
}

// adjSpan is a stretch of a node's adjacency as Graph.RelsAt reads it: n
// relationships from adjacency position from on.
type adjSpan struct{ from, n int }

// scanRels lists the relationships of node id into the adjacency buffer of
// the next scan depth and claims it until the caller's deferred release.
// Scans nest — each relationship's continuation may scan again — so every
// depth keeps its own buffer, which every later scan at that depth reuses.
// A set span restricts the scan to that stretch and is used up by it: the
// driver sets one for a work item that holds a stretch of its anchor's
// first expansion step, which is the item's first scan.
func (m *matcher) scanRels(id graph.NodeID, dir graph.Dir, rp *resolvedRel) []graph.RelID {
	if m.depth == len(m.relBufs) {
		m.relBufs = append(m.relBufs, nil)
	}
	rels := m.relBufs[m.depth][:0]
	switch {
	case rp.none:
	case m.span.n > 0:
		rels, _ = m.g.RelsAt(id, dir, rp.types, m.span.from, m.span.n, rels)
		m.span = adjSpan{}
	default:
		rels = m.g.Rels(id, dir, rp.types, rels)
	}
	m.relBufs[m.depth] = rels
	m.depth++
	return rels
}

func (m *matcher) release() { m.depth-- }

// positions claims the per-position node and relationship slots of path
// on top of the matcher's position stacks until the caller's deferred
// m.dropPositions(path). A comma-separated pattern solves each path inside
// the one before it, so the claims nest; every later solve reuses the
// stacks, so a driver item of 64 bound rows allocates no slots per row. A
// claim that grows a stack leaves the claims below it on the old array,
// which their holders alone read and write.
func (m *matcher) positions(path *resolvedPath) ([]graph.NodeID, []Val) {
	n, r := len(m.nodeStack), len(m.relStack)
	m.nodeStack = slices.Grow(m.nodeStack, len(path.nodes))[:n+len(path.nodes)]
	m.relStack = slices.Grow(m.relStack, len(path.rels))[:r+len(path.rels)]
	return m.nodeStack[n:], m.relStack[r:]
}

func (m *matcher) dropPositions(path *resolvedPath) {
	m.nodeStack = m.nodeStack[:len(m.nodeStack)-len(path.nodes)]
	m.relStack = m.relStack[:len(m.relStack)-len(path.rels)]
}

// tick polls the context every tickMask+1 calls. It sits on the matcher's
// hottest loops (one call per candidate binding), so a pathological
// pattern enumeration notices an expired deadline within a few thousand
// candidate attempts.
func (m *matcher) tick() error {
	m.ticks++
	if m.ticks&tickMask == 0 && m.ctx != nil {
		return ctxErr(m.ctx)
	}
	return nil
}

// stackSet is a set kept as a stack. The matcher keeps the relationships
// used by the current pattern in one (Cypher's relationship-isomorphism
// rule), pushed and popped in strict LIFO order during backtracking, and
// the suffix states it has expanded in another (memo.go), which only
// grows through add. Membership is a linear scan while the stack is
// short; once it outgrows stackSetIdxThreshold — long variable-length
// paths otherwise turn the scan quadratic — a map index is built and kept
// in sync for the rest of the matcher's life.
type stackSet[K comparable] struct {
	stack []K
	idx   map[K]struct{}
}

const stackSetIdxThreshold = 16

func (s *stackSet[K]) push(k K) {
	s.stack = append(s.stack, k)
	if s.idx != nil {
		s.idx[k] = struct{}{}
	} else if len(s.stack) > stackSetIdxThreshold {
		s.idx = make(map[K]struct{}, 2*len(s.stack))
		for _, u := range s.stack {
			s.idx[u] = struct{}{}
		}
	}
}

func (s *stackSet[K]) pop() {
	k := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if s.idx != nil {
		delete(s.idx, k)
	}
}

// add records k in a set that is never popped: once the map index exists
// the stack is dropped, so no key is held twice.
func (s *stackSet[K]) add(k K) {
	if s.idx != nil {
		s.idx[k] = struct{}{}
		return
	}
	s.push(k)
	if s.idx != nil {
		s.stack = nil
	}
}

func (s *stackSet[K]) len() int {
	if s.idx != nil {
		return len(s.idx)
	}
	return len(s.stack)
}

func (s *stackSet[K]) has(k K) bool {
	if s.idx != nil {
		_, ok := s.idx[k]
		return ok
	}
	for _, u := range s.stack {
		if u == k {
			return true
		}
	}
	return false
}

func (m *matcher) relUsed(id graph.RelID) bool { return m.used.has(id) }

// solvePaths matches m.paths[idx:] and invokes m.emit for every complete
// assignment.
func (m *matcher) solvePaths(idx int) error {
	if idx >= len(m.paths) {
		return m.emit()
	}
	return m.solvePath(&m.paths[idx], func() error {
		return m.solvePaths(idx + 1)
	})
}

// solvePath enumerates assignments for a single path, calling cont for
// each.
func (m *matcher) solvePath(path *resolvedPath, cont func() error) error {
	if path.Shortest {
		return m.solveShortest(path, cont)
	}
	return m.solvePathAll(path, cont)
}

// bfsScratch is the per-anchor BFS state of solveShortest, pooled on the
// matcher so repeated anchors (and repeated shortestPath invocations from
// the same seed row) reuse one allocation instead of building fresh maps
// per start node.
type bfsScratch struct {
	parentRel  map[graph.NodeID]graph.RelID
	parentNode map[graph.NodeID]graph.NodeID
	visited    map[graph.NodeID]bool
	queue      []bfsNode
}

type bfsNode struct {
	id    graph.NodeID
	depth int
}

// bfsScratchTake hands out the pooled scratch, cleared, detaching it from
// the matcher so a nested shortestPath (a later path of the same clause
// reached through cont) allocates its own instead of clobbering state in
// use. bfsScratchGive returns it to the pool.
func (m *matcher) bfsScratchTake() *bfsScratch {
	sc := m.scratch
	m.scratch = nil
	if sc == nil {
		return &bfsScratch{
			parentRel:  map[graph.NodeID]graph.RelID{},
			parentNode: map[graph.NodeID]graph.NodeID{},
			visited:    map[graph.NodeID]bool{},
		}
	}
	clear(sc.parentRel)
	clear(sc.parentNode)
	clear(sc.visited)
	sc.queue = sc.queue[:0]
	return sc
}

func (m *matcher) bfsScratchGive(sc *bfsScratch) { m.scratch = sc }

// solveShortest matches shortestPath((a)-[*min..max]-(b)) by BFS: for each
// candidate start node, a breadth-first expansion discovers every
// reachable node at its minimal depth; each node satisfying the end
// pattern yields exactly one (shortest) path.
func (m *matcher) solveShortest(path *resolvedPath, cont func() error) error {
	rp := &path.rels[0]
	startNP, endNP := &path.nodes[0], &path.nodes[1]
	// Root the BFS at the cheaper end, flipping the pattern when needed.
	plan := m.planPath(path)
	if plan.anchor == 1 {
		startNP, endNP = endNP, startNP
	}
	dir := stepDir(rp.Dir, plan.anchor == 0)
	maxHops := rp.MaxHops
	if maxHops < 0 {
		maxHops = 1 << 30
	}

	fromStart := func(start graph.NodeID) error {
		startMark, ok, err := m.bindNode(startNP, start)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		defer func() { m.binding = m.binding[:startMark] }()

		// Parent edge per discovered node, for path reconstruction. The
		// scratch maps are pooled across anchors.
		sc := m.bfsScratchTake()
		parentRel, parentNode, visited := sc.parentRel, sc.parentNode, sc.visited
		visited[start] = true
		queue := append(sc.queue, bfsNode{start, 0})
		defer func() {
			sc.queue = queue[:0]
			m.bfsScratchGive(sc)
		}()

		emitAt := func(end graph.NodeID, depth int) error {
			if depth < rp.MinHops {
				return nil
			}
			endMark, ok, err := m.bindNode(endNP, end)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			// Reconstruct the node/rel chain start..end.
			var rels []graph.RelID
			var nodes []graph.NodeID
			for cur := end; cur != start; cur = parentNode[cur] {
				rels = append(rels, parentRel[cur])
				nodes = append(nodes, cur)
			}
			nodes = append(nodes, start)
			for i, j := 0, len(rels)-1; i < j; i, j = i+1, j-1 {
				rels[i], rels[j] = rels[j], rels[i]
			}
			for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
			if rp.Var != "" {
				vs := make([]Val, len(rels))
				for i, r := range rels {
					vs[i] = RelVal(r)
				}
				m.binding = append(m.binding, binding{rp.Var, ListVal(vs)})
			}
			if path.Var != "" {
				m.binding = append(m.binding, binding{path.Var, PathVal(nodes, rels)})
			}
			err = cont()
			m.binding = m.binding[:endMark]
			return err
		}

		// Zero-hop case: start may satisfy the end pattern.
		if rp.MinHops == 0 {
			if err := emitAt(start, 0); err != nil {
				return err
			}
		}
		expand := func(cur bfsNode) error {
			rels := m.scanRels(cur.id, dir, rp)
			defer m.release()
			for _, rid := range rels {
				ok, err := m.cellsHold(rp.preds, cand{v: rp.Var, rel: rid})
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				from, to := m.g.RelEndpoints(rid)
				other := to
				if to == cur.id && from != cur.id {
					other = from
				}
				if visited[other] {
					continue
				}
				visited[other] = true
				parentRel[other] = rid
				parentNode[other] = cur.id
				if err := emitAt(other, cur.depth+1); err != nil {
					return err
				}
				queue = append(queue, bfsNode{other, cur.depth + 1})
			}
			return nil
		}
		for len(queue) > 0 {
			if err := m.tick(); err != nil {
				return err
			}
			cur := queue[0]
			queue = queue[1:]
			if cur.depth >= maxHops {
				continue
			}
			if err := expand(cur); err != nil {
				return err
			}
		}
		return nil
	}
	for _, start := range m.candidates(*startNP.NodePattern, plan.acc, nil) {
		if err := fromStart(start); err != nil {
			return err
		}
	}
	return nil
}

// solvePathAll is the general backtracking matcher: plan the path against
// the current binding, then expand from every candidate of its anchor.
func (m *matcher) solvePathAll(path *resolvedPath, cont func() error) error {
	plan := m.planPath(path)
	return m.solvePathPlanned(path, plan.anchor, m.candidates(path.Nodes[plan.anchor], plan.acc, nil), cont)
}

// solvePathPlanned expands path from node position anchor over exactly
// the candidate IDs in cands — all of the plan's access, or the share of
// it the MATCH driver handed this matcher.
func (m *matcher) solvePathPlanned(path *resolvedPath, anchor int, cands []graph.NodeID, cont func() error) error {
	// Per-position state for path-variable construction.
	nodeIDs, relVals := m.positions(path)
	defer m.dropPositions(path)

	finish := func() error {
		mark := len(m.binding)
		if path.Var != "" {
			if _, exists := m.binding.get(path.Var); !exists {
				m.binding = append(m.binding, binding{path.Var, m.buildPath(nodeIDs, relVals)})
			}
		}
		err := cont()
		m.binding = m.binding[:mark]
		return err
	}

	// expandRight then expandLeft, then finish.
	var right func(i int) error
	var left func(i int) error

	right = func(i int) error {
		if i >= len(path.rels) {
			return left(anchor)
		}
		if anchor == 0 && m.expanded(m.memo.right, i, nodeIDs[i]) {
			return nil
		}
		return m.expandStep(path, i, i+1, nodeIDs, relVals, func() error {
			return right(i + 1)
		})
	}
	left = func(i int) error {
		if i <= 0 {
			return finish()
		}
		if i < anchor && m.expanded(m.memo.left, -i, nodeIDs[i]) {
			return nil
		}
		return m.expandStep(path, i-1, i-1, nodeIDs, relVals, func() error {
			return left(i - 1)
		})
	}

	tryAnchor := func(id graph.NodeID) error {
		mark, ok, err := m.bindNode(&path.nodes[anchor], id)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		nodeIDs[anchor] = id
		err = right(anchor)
		m.binding = m.binding[:mark]
		return err
	}
	for _, id := range cands {
		if err := tryAnchor(id); err != nil {
			return err
		}
	}
	return nil
}

// expandStep matches path.Rels[relIdx] between the already-bound node at
// position fromIdx and the node at the other end (toIdx = fromIdx±1...).
// fromIdx is the bound side: when toIdx == relIdx+1 we move rightward; when
// toIdx == relIdx we move leftward (and fromIdx is relIdx+1).
func (m *matcher) expandStep(path *resolvedPath, relIdx, toIdx int, nodeIDs []graph.NodeID, relVals []Val, cont func() error) error {
	rightward := toIdx == relIdx+1
	var fromIdx int
	if rightward {
		fromIdx = relIdx
	} else {
		fromIdx = relIdx + 1
	}
	cur := nodeIDs[fromIdx]
	rp := &path.rels[relIdx]
	np := &path.nodes[toIdx]
	dir := stepDir(rp.Dir, rightward)

	if rp.VarLen {
		return m.expandVarLen(rp, np, cur, dir, toIdx, nodeIDs, relVals, relIdx, cont)
	}

	// Bound relationship variable: verify instead of scanning.
	if rp.Var != "" {
		if bv, ok := m.binding.get(rp.Var); ok {
			rid, isRel := bv.AsRel()
			if !isRel {
				return nil
			}
			return m.tryRel(rp, np, cur, dir, rid, toIdx, nodeIDs, relVals, relIdx, true, cont)
		}
	}

	rels := m.scanRels(cur, dir, rp)
	defer m.release()
	for _, rid := range rels {
		if err := m.tryRel(rp, np, cur, dir, rid, toIdx, nodeIDs, relVals, relIdx, false, cont); err != nil {
			return err
		}
	}
	return nil
}

// stepDir is the graph direction of a hop with pattern direction d,
// followed from its left node (rightward) or from its right node.
func stepDir(d RelDir, rightward bool) graph.Dir {
	switch {
	case d == DirAny:
		return graph.DirBoth
	case (d == DirRight) == rightward: // the arrow leaves the bound node
		return graph.DirOut
	}
	return graph.DirIn
}

// tryRel attempts to use relationship rid for pattern position relIdx.
func (m *matcher) tryRel(rp *resolvedRel, np *resolvedNode, cur graph.NodeID, dir graph.Dir, rid graph.RelID, toIdx int, nodeIDs []graph.NodeID, relVals []Val, relIdx int, preBound bool, cont func() error) error {
	if m.relUsed(rid) {
		return nil
	}
	from, to := m.g.RelEndpoints(rid)
	if from == 0 {
		return nil
	}
	// Verify incidence & direction for pre-bound rels (scanned rels
	// already satisfy them).
	var other graph.NodeID
	switch {
	case from == cur:
		other = to
		if dir == graph.DirIn && to != cur {
			return nil
		}
	case to == cur:
		other = from
		if dir == graph.DirOut {
			return nil
		}
	default:
		return nil
	}
	if preBound {
		// Type check for pre-bound rels.
		if t, _ := m.g.RelTypeID(rid); rp.none || len(rp.types) > 0 && !slices.Contains(rp.types, t) {
			return nil
		}
	}
	e := cand{v: rp.Var, rel: rid}
	ok, err := m.cellsHold(rp.preds[:rp.inline], e)
	if err != nil || !ok {
		return err
	}

	mark, ok, err := m.bindNode(np, other)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if rp.Var != "" && !preBound {
		m.binding = append(m.binding, binding{rp.Var, RelVal(rid)})
	}
	if ok, err := m.cellsHold(rp.preds[rp.inline:], e); err != nil || !ok {
		m.binding = m.binding[:mark]
		return err
	}
	m.used.push(rid)
	nodeIDs[toIdx] = other
	relVals[relIdx] = RelVal(rid)

	err = cont()

	m.used.pop()
	m.binding = m.binding[:mark]
	return err
}

// expandVarLen handles -[:T*min..max]- steps. The relationship variable (if
// any) binds to the list of traversed relationships.
func (m *matcher) expandVarLen(rp *resolvedRel, np *resolvedNode, cur graph.NodeID, dir graph.Dir, toIdx int, nodeIDs []graph.NodeID, relVals []Val, relIdx int, cont func() error) error {
	maxHops := rp.MaxHops
	if maxHops < 0 {
		maxHops = 1 << 30 // bounded by relationship uniqueness
	}
	var pathRels []graph.RelID

	attempt := func(at graph.NodeID) error {
		mark, ok, err := m.bindNode(np, at)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		vs := make([]Val, len(pathRels))
		for i, r := range pathRels {
			vs[i] = RelVal(r)
		}
		rels := ListVal(vs) // immutable, so the binding and relVals share it
		if rp.Var != "" {
			if _, exists := m.binding.get(rp.Var); !exists {
				m.binding = append(m.binding, binding{rp.Var, rels})
			}
		}
		nodeIDs[toIdx] = at
		relVals[relIdx] = rels

		err = cont()

		m.binding = m.binding[:mark]
		return err
	}

	var dfs func(at graph.NodeID, depth int) error
	dfs = func(at graph.NodeID, depth int) error {
		if depth >= rp.MinHops {
			if err := attempt(at); err != nil {
				return err
			}
		}
		if depth >= maxHops {
			return nil
		}
		rels := m.scanRels(at, dir, rp)
		defer m.release()
		for _, rid := range rels {
			if err := m.tick(); err != nil {
				return err
			}
			if m.relUsed(rid) {
				continue
			}
			ok, err := m.cellsHold(rp.preds, cand{v: rp.Var, rel: rid})
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			from, to := m.g.RelEndpoints(rid)
			other := to
			if to == at && from != at {
				other = from
			}
			m.used.push(rid)
			pathRels = append(pathRels, rid)
			err = dfs(other, depth+1)
			pathRels = pathRels[:len(pathRels)-1]
			m.used.pop()
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(cur, 0)
}

// bindNode checks node pattern np against node id given the current
// binding, binds np.Var if new, and returns the binding mark to truncate
// back to on backtrack. ok is false when the node does not satisfy the
// pattern.
func (m *matcher) bindNode(np *resolvedNode, id graph.NodeID) (mark int, ok bool, err error) {
	mark = len(m.binding)
	if err := m.tick(); err != nil {
		return mark, false, err
	}
	if np.Var != "" {
		if bv, exists := m.binding.get(np.Var); exists {
			if bn, isNode := bv.AsNode(); !isNode || bn != id {
				return mark, false, nil
			}
			ok, err := m.nodeSatisfies(np, id)
			return mark, ok, err
		}
	}
	if ok, err := m.nodeSatisfies(np, id); !ok || err != nil {
		return mark, false, err
	}
	if np.Var != "" {
		m.binding = append(m.binding, binding{np.Var, NodeVal(id)})
	}
	return mark, true, nil
}

// nodeSatisfies checks the node's labels and property tests. An inline
// value that fails to evaluate is an error, as it is for a relationship.
func (m *matcher) nodeSatisfies(np *resolvedNode, id graph.NodeID) (bool, error) {
	for _, l := range np.labels {
		if !m.g.NodeHasLabelID(id, l) {
			return false, nil
		}
	}
	return m.cellsHold(np.preds, cand{v: np.Var, node: id})
}

func (m *matcher) buildPath(nodeIDs []graph.NodeID, relVals []Val) Val {
	var rels []graph.RelID
	for _, rv := range relVals {
		if rid, ok := rv.AsRel(); ok {
			rels = append(rels, rid)
			continue
		}
		if list, ok := rv.AsList(); ok {
			for _, e := range list {
				if rid, ok := e.AsRel(); ok {
					rels = append(rels, rid)
				}
			}
		}
	}
	// Reconstruct the full node sequence by walking the relationships:
	// variable-length steps traverse nodes that have no pattern position
	// of their own, but nodes(p) must still report them.
	nodes := make([]graph.NodeID, 0, len(rels)+1)
	if len(nodeIDs) > 0 {
		cur := nodeIDs[0]
		nodes = append(nodes, cur)
		for _, rid := range rels {
			from, to := m.g.RelEndpoints(rid)
			if from == cur {
				cur = to
			} else {
				cur = from
			}
			nodes = append(nodes, cur)
		}
	}
	return PathVal(nodes, rels)
}
