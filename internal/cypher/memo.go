package cypher

import (
	"fmt"
	"slices"
	"strings"

	"iyp/internal/graph"
)

// The suffix-state memo. Under a RETURN DISTINCT evaluated at emit, a chain
// that reaches the same node at some position along many paths would
// expand the same remaining pattern from it each time, only for the
// worker's projector to drop every row as a duplicate. At a memo point the
// rows the rest of the search can produce depend on nothing but the node
// bound there, so the matcher records each state it expands and returns at
// once when it binds one it has expanded before.
//
// A worker's matcher and projector live for the same window and the worker
// claims its items in ascending order, so every row a skipped subtree could
// emit was already emitted, or dropped as a duplicate, by the same worker
// earlier. Skipping it changes no worker's output, hence neither the
// merged rows nor their order at any worker count. (A RETURN DISTINCT
// sets no row cap, so no item stops before its subtrees are expanded.)

// memoPlan holds a single-path clause's memo points per node position.
// right applies while expanding rightward from an anchor at node 0, left
// while expanding leftward from an anchor right of the position. Both are
// nil when the clause has none.
type memoPlan struct {
	right, left []bool
}

// newMemoPlan picks spec's memo points. in binds the variables of the
// clause's input rows (every row a clause outputs binds the same names, so
// any input row serves; nil stands for none). A position p qualifies when,
// once p is bound, what is left to match — the remaining hops and nodes
// with their inline properties, the WHERE and the RETURN items — reads no
// variable the path bound before p other than p's own, and no variable of
// the input row; when every hop on either side of p is typed and the two
// sides share no type, so the relationships used before p never collide
// with those after it; when no variable-length hop remains; and when p is
// neither the anchor nor the last node on its side. The clause must be a
// single path with no path variable, not OPTIONAL, not shortestPath,
// feeding a RETURN DISTINCT at emit.
func newMemoPlan(spec matchSpec, in row) memoPlan {
	if spec.ret == nil || !spec.ret.Distinct || spec.optional || len(spec.patterns) != 1 {
		return memoPlan{}
	}
	path := spec.patterns[0]
	if path.Var != "" || path.Shortest || len(path.Nodes) < 3 {
		return memoPlan{}
	}
	var reads []string
	read := func(name string) { reads = append(reads, name) }
	freeVars(spec.where, read)
	for _, it := range spec.ret.Items {
		freeVars(it.Expr, read)
	}
	var plan memoPlan
	for p := 1; p < len(path.Nodes)-1; p++ {
		for _, rightward := range []bool{true, false} {
			if !isMemoPoint(path, p, rightward, reads, in) {
				continue
			}
			if plan.right == nil {
				pts := make([]bool, 2*len(path.Nodes))
				plan.right, plan.left = pts[:len(path.Nodes)], pts[len(path.Nodes):]
			}
			if rightward {
				plan.right[p] = true
			} else {
				plan.left[p] = true
			}
		}
	}
	return plan
}

// isMemoPoint decides node position p of path with the search moving
// rightward (what is left to match, "after" p, lies right of it) or
// leftward. reads are the variables the WHERE and the RETURN items read;
// in binds the input row's variables.
func isMemoPoint(path PatternPath, p int, rightward bool, reads []string, in row) bool {
	nodeAfter := func(k int) bool { return rightward && k > p || !rightward && k < p }
	// Relationship j joins nodes j and j+1.
	relAfter := func(j int) bool { return rightward && j >= p || !rightward && j < p }
	for j, r := range path.Rels {
		if len(r.Types) == 0 || relAfter(j) && r.VarLen {
			return false
		}
		for k, s := range path.Rels {
			if relAfter(j) && !relAfter(k) && slices.ContainsFunc(r.Types, func(t string) bool { return slices.Contains(s.Types, t) }) {
				return false
			}
		}
	}
	// boundBefore reports whether the path binds name before p.
	boundBefore := func(name string) bool {
		for k, np := range path.Nodes {
			if np.Var == name && k != p && !nodeAfter(k) {
				return true
			}
		}
		for j, r := range path.Rels {
			if r.Var == name && !relAfter(j) {
				return true
			}
		}
		return false
	}
	on := true
	// A name the rest of the path binds, or that nothing binds, reads the
	// same from every visit of p's node; a back-reference into the path
	// bound before p, or a variable of the input row, may not.
	check := func(name string) {
		if name == "" || name == path.Nodes[p].Var || !on {
			return
		}
		if _, input := in.get(name); input || boundBefore(name) {
			on = false
		}
	}
	for _, name := range reads {
		check(name)
	}
	for k, np := range path.Nodes {
		if nodeAfter(k) {
			check(np.Var)
			for _, e := range np.Props {
				freeVars(e, check)
			}
		}
	}
	for j, r := range path.Rels {
		if relAfter(j) {
			check(r.Var)
			for _, e := range r.Props {
				freeVars(e, check)
			}
		}
	}
	return on
}

// memoKey identifies a suffix state a matcher has expanded.
type memoKey struct {
	pos int // node position, negated for a leftward memo point
	id  graph.NodeID
}

// maxMemoStates caps the states one matcher records. The state set is
// not charged against the query's memory budget; past the cap a state is
// simply expanded again, which costs time, never a row.
const maxMemoStates = 1 << 15

// expanded reports whether the matcher has already searched on from node
// id at memo point |pos| of pts (pos negated on the left side), recording
// the state when it has not. A position of pts that is no memo point, or
// nil pts, always reports false.
func (m *matcher) expanded(pts []bool, pos int, id graph.NodeID) bool {
	i := max(pos, -pos)
	if i >= len(pts) || !pts[i] {
		return false
	}
	k := memoKey{pos: pos, id: id}
	if m.states.has(k) {
		return true
	}
	if m.states.len() < maxMemoStates {
		m.states.add(k)
	}
	return false
}

// describe renders the memo points in effect under anchor for EXPLAIN, or
// "" when there are none.
func (plan memoPlan) describe(anchor, nodes int) string {
	var at []string
	for p := range plan.right {
		if anchor == 0 && plan.right[p] || p < anchor && plan.left[p] {
			at = append(at, fmt.Sprint(p+1))
		}
	}
	if len(at) == 0 {
		return ""
	}
	word := "node"
	if len(at) > 1 {
		word = "nodes"
	}
	return fmt.Sprintf("DISTINCT memo at %s %s of %d", word, strings.Join(at, ", "), nodes)
}
