package cypher

import (
	"fmt"
	"sort"
	"strings"

	"iyp/internal/graph"
)

// Statistics-driven access planning for MATCH patterns. planPath decides,
// per pattern path, which node position anchors the search and how its
// candidates are produced — a bound variable, a (label,property) index
// lookup seeded by one of the position's =/IN predicates (an inline
// property or a WHERE conjunct, cellpred.go), a label scan filtered on an
// inline property, a plain label scan, or a full node scan — using the
// graph's maintained cardinality counters (graph.PropCardinality,
// CountByLabel, NumNodes) to estimate each option. planPath is the only
// place an anchor is chosen: the MATCH driver (parallel.go) calls it once
// per input row, and EXPLAIN and the cost estimator reach it through the
// one clause walk they share (walkBranch, explain.go), so what EXPLAIN
// prints and what admission control costs is what runs.

// accessKind enumerates anchor candidate sources, cheapest first.
type accessKind int

const (
	accessBound     accessKind = iota // variable already bound to a node
	accessIndex                       // (label,key) index lookup on resolved value(s)
	accessPropScan                    // label scan filtered on an inline property
	accessLabelScan                   // scan of the rarest label
	accessFullScan                    // every node
)

// freeVars calls visit for every variable e reads. A variable a list
// comprehension binds is not read within its scope. Every variable an EXISTS
// {} or COUNT {} subquery's patterns name is read: a name the enclosing row
// binds ties the subquery's match to that binding.
func freeVars(e Expr, visit func(name string)) {
	var walk func(e Expr, shadow map[string]bool)
	subquery := func(patterns []PatternPath, where Expr, shadow map[string]bool) {
		walk(where, shadow)
		walkPatternProps(patterns, func(e Expr) { walk(e, shadow) })
		for _, name := range patternVars(patterns) {
			if !shadow[name] {
				visit(name)
			}
		}
	}
	walk = func(e Expr, shadow map[string]bool) {
		if e == nil {
			return
		}
		switch x := e.(type) {
		case *Variable:
			if !shadow[x.Name] {
				visit(x.Name)
			}
		case *PropAccess:
			walk(x.Target, shadow)
		case *FnCall:
			for _, a := range x.Args {
				walk(a, shadow)
			}
		case *ListExpr:
			for _, el := range x.Elems {
				walk(el, shadow)
			}
		case *MapExpr:
			for _, el := range x.Exprs {
				walk(el, shadow)
			}
		case *IndexExpr:
			walk(x.Target, shadow)
			walk(x.Index, shadow)
			walk(x.SliceLo, shadow)
			walk(x.SliceHi, shadow)
		case *BinaryExpr:
			walk(x.Left, shadow)
			walk(x.Right, shadow)
		case *UnaryExpr:
			walk(x.X, shadow)
		case *IsNullExpr:
			walk(x.X, shadow)
		case *CaseExpr:
			walk(x.Operand, shadow)
			walk(x.Else, shadow)
			for i := range x.Whens {
				walk(x.Whens[i], shadow)
				walk(x.Thens[i], shadow)
			}
		case *ListComprehension:
			walk(x.Source, shadow)
			inner := make(map[string]bool, len(shadow)+1)
			for k := range shadow {
				inner[k] = true
			}
			inner[x.Var] = true
			walk(x.Where, inner)
			walk(x.Proj, inner)
		case *ExistsExpr:
			subquery(x.Patterns, x.Where, shadow)
		case *CountExpr:
			subquery(x.Patterns, x.Where, shadow)
		}
	}
	walk(e, nil)
}

func walkPatternProps(paths []PatternPath, visit func(Expr)) {
	for _, p := range paths {
		for _, n := range p.Nodes {
			for _, e := range n.Props {
				visit(e)
			}
		}
		for _, r := range p.Rels {
			for _, e := range r.Props {
				visit(e)
			}
		}
	}
}

// anchorAccess is the planned candidate source for one node position.
type anchorAccess struct {
	kind  accessKind
	label string    // accessIndex / accessPropScan / accessLabelScan
	pred  *cellPred // accessIndex / accessPropScan: the predicate whose key and value are looked up
	// vals are the resolved lookup values for accessIndex, already
	// deduplicated. Empty with kind accessIndex means the predicate is
	// statically unsatisfiable (e.g. `= null`): zero candidates.
	vals []graph.Value
	est  float64 // estimated candidate count after the access filter
	cost float64 // anchor-selection cost; lower wins
}

// planAccess decides how to enumerate candidates for node position np
// given the current binding.
func (m *matcher) planAccess(np *resolvedNode) anchorAccess {
	if np.Var != "" {
		if v, ok := m.binding.get(np.Var); ok {
			if _, isNode := v.AsNode(); isNode {
				return anchorAccess{kind: accessBound, est: 1, cost: 0}
			}
		}
	}
	if len(np.Labels) > 0 {
		if acc, ok := m.planIndexAccess(np); ok {
			return acc
		}
		minCount := m.g.CountByLabel(np.Labels[0])
		label := np.Labels[0]
		for _, l := range np.Labels[1:] {
			if c := m.g.CountByLabel(l); c < minCount {
				label, minCount = l, c
			}
		}
		if len(np.Props) > 0 {
			// Unindexed inline props: NodesByProp scans the label but the
			// equality filter usually discards most of it.
			p := np.preds[0] // the first inline property in key order
			return anchorAccess{kind: accessPropScan, label: label, pred: p,
				est: float64(minCount), cost: 1 + float64(minCount)/2}
		}
		return anchorAccess{kind: accessLabelScan, label: label,
			est: float64(minCount), cost: 2 + float64(minCount)}
	}
	n := float64(m.g.NumNodes())
	return anchorAccess{kind: accessFullScan, est: n, cost: 3 + n}
}

// planIndexAccess tries every (label, key) pair of a label of np and a
// predicate that seeds it, resolves the predicate's lookup values against
// the current binding, and returns the indexed access with the smallest
// estimated candidate count. ok is false when no pair has an index or
// resolvable values.
func (m *matcher) planIndexAccess(np *resolvedNode) (best anchorAccess, ok bool) {
	for _, label := range np.Labels {
		for _, p := range np.seeds {
			if !m.g.HasIndex(label, p.l.name) {
				continue
			}
			vals, resolved := m.lookupVals(p)
			if !resolved {
				continue
			}
			est := m.g.PropCardinality(label, p.l.name).Selectivity() * float64(len(vals))
			if !ok || est < best.est {
				best, ok = anchorAccess{kind: accessIndex, label: label, pred: p,
					vals: vals, est: est, cost: 1 + est}, true
			}
		}
	}
	return best, ok
}

// lookupVals evaluates p's value under the current binding to concrete
// lookup values. ok is false when the value cannot be resolved into index
// lookups without changing semantics — evaluation errors (which must
// surface when the predicate is tested), non-list IN operands, or values
// no stored cell can hold.
func (m *matcher) lookupVals(p *cellPred) ([]graph.Value, bool) {
	v := p.c
	if p.val != nil {
		var err error
		if v, err = m.ec.eval(p.val, m.binding); err != nil {
			return nil, false
		}
	}
	if v.IsNull() {
		// `= null` and `IN null` evaluate to null: the predicate never
		// holds, so the candidate set is empty.
		return nil, true
	}
	if p.op != OpIn {
		c, ok := cellValue(v)
		if !ok {
			return nil, false
		}
		return []graph.Value{c}, true
	}
	elems, err := listElems(v)
	if err != nil {
		return nil, false // IN over a non-list errors at eval time; keep that
	}
	out := make([]graph.Value, 0, len(elems))
	for _, e := range elems {
		if e.IsNull() {
			continue // null never equals a stored value
		}
		c, ok := cellValue(e)
		if !ok {
			return nil, false
		}
		out = append(out, c)
	}
	return dedupeVals(out), true
}

func dedupeVals(vals []graph.Value) []graph.Value {
	seen := make(map[string]bool, len(vals))
	out := vals[:0]
	for _, v := range vals {
		k := v.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// pathPlan is the chosen start strategy for one pattern path.
type pathPlan struct {
	anchor int
	acc    anchorAccess
}

// testPlannerHook, when non-nil, observes planner work: every planPath
// decision (op "plan") and every candidate enumeration (op "enumerate",
// zero path and plan). It exists so tests can count how often the driver
// plans and prove that EXPLAIN, the estimator and execution choose the
// same plan; production code never sets it.
var testPlannerHook func(op string, path PatternPath, plan pathPlan)

// planPath picks the anchor position with the cheapest access. For a
// shortestPath (always two nodes) that is the endpoint the BFS roots at.
// A bound variable costs 0, which no access undercuts, so the first one
// ends the search: a second MATCH anchored on a bound variable plans each
// input row without costing its other positions.
func (m *matcher) planPath(path *resolvedPath) pathPlan {
	plan := pathPlan{acc: m.planAccess(&path.nodes[0])}
	for i := 1; i < len(path.nodes) && plan.acc.cost > 0; i++ {
		if acc := m.planAccess(&path.nodes[i]); acc.cost < plan.acc.cost {
			plan = pathPlan{anchor: i, acc: acc}
		}
	}
	if testPlannerHook != nil {
		testPlannerHook("plan", *path.PatternPath, plan)
	}
	return plan
}

// candidates enumerates the access's candidate node IDs in ascending
// order — the order every access path already produces, which keeps
// planned execution row-for-row identical across access choices. A bound
// anchor's one candidate is appended to *ids when ids is non-nil, and the
// result is that last element — the MATCH driver plans a window of rows
// into one buffer, not a slice per row; with ids nil it gets a slice of
// its own.
func (m *matcher) candidates(np NodePattern, acc anchorAccess, ids *[]graph.NodeID) []graph.NodeID {
	if testPlannerHook != nil {
		testPlannerHook("enumerate", PatternPath{}, pathPlan{})
	}
	switch acc.kind {
	case accessBound:
		if v, ok := m.binding.get(np.Var); ok {
			if id, isNode := v.AsNode(); isNode {
				if ids == nil {
					return []graph.NodeID{id}
				}
				*ids = append(*ids, id)
				return (*ids)[len(*ids)-1:]
			}
		}
		return nil // bound to a non-node: cannot match
	case accessIndex:
		return m.plannedIndexIDs(acc)
	case accessPropScan:
		// NodesByProp falls back to a filtered label scan when no index
		// exists; remaining constraints are verified by nodeSatisfies.
		if vals, ok := m.lookupVals(acc.pred); ok {
			if len(vals) == 0 {
				return nil
			}
			return m.g.NodesByProp(acc.label, acc.pred.l.name, vals[0])
		}
		// Unresolvable inline value: scan the label and let nodeSatisfies
		// re-evaluate it per candidate, returning its error.
		fallthrough
	case accessLabelScan:
		return m.g.NodesByLabel(acc.label)
	default: // accessFullScan
		ids := make([]graph.NodeID, 0, m.g.NumNodes())
		m.g.EachNode(func(id graph.NodeID) bool {
			ids = append(ids, id)
			return true
		})
		return ids
	}
}

// plannedIndexIDs returns the union of index buckets for the access's
// values, deduplicated and sorted ascending.
func (m *matcher) plannedIndexIDs(acc anchorAccess) []graph.NodeID {
	if len(acc.vals) == 0 {
		return nil
	}
	if len(acc.vals) == 1 {
		return m.g.NodesByProp(acc.label, acc.pred.l.name, acc.vals[0])
	}
	var ids []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, v := range acc.vals {
		for _, id := range m.g.NodesByProp(acc.label, acc.pred.l.name, v) {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// describe renders the access for EXPLAIN.
func (acc anchorAccess) describe(np NodePattern) string {
	switch acc.kind {
	case accessBound:
		return fmt.Sprintf("bound variable `%s`", np.Var)
	case accessIndex:
		src := "inline property"
		if acc.pred.origin != fromInline {
			src = "WHERE pushdown " + cellOps[acc.pred.op]
		}
		return fmt.Sprintf("index lookup %s.%s (%s, est. %s rows)",
			acc.label, acc.pred.l.name, src, fmtEst(acc.est))
	case accessPropScan:
		return fmt.Sprintf("label scan :%s filtered on properties (%d nodes)",
			acc.label, int(acc.est))
	case accessLabelScan:
		return fmt.Sprintf("label scan :%s (%d nodes)", acc.label, int(acc.est))
	default:
		return fmt.Sprintf("full node scan (%d nodes)", int(acc.est))
	}
}

func fmtEst(f float64) string {
	s := fmt.Sprintf("%.1f", f)
	return strings.TrimSuffix(s, ".0")
}
