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
// lookup seeded by inline props or WHERE pushdowns, a filtered label scan,
// a plain label scan, or a full node scan — using the graph's maintained
// cardinality counters (graph.PropCardinality, CountByLabel, NumNodes) to
// estimate each option. planPath is the only place an anchor is chosen: the
// MATCH driver (parallel.go) calls it once per input row, and EXPLAIN and
// the cost estimator reach it through the one clause walk they share
// (walkBranch, explain.go), so what EXPLAIN prints and what admission
// control costs is what runs.

// accessKind enumerates anchor candidate sources, cheapest first.
type accessKind int

const (
	accessBound     accessKind = iota // variable already bound to a node
	accessIndex                       // (label,key) index lookup on resolved value(s)
	accessPropScan                    // label scan filtered on an inline property
	accessLabelScan                   // scan of the rarest label
	accessFullScan                    // every node
)

// pushdown is one WHERE conjunct of the form `var.key = expr` or `var.key
// IN expr` whose value expression does not depend on variables introduced
// by the clause's own patterns. Such a conjunct can seed the anchor's
// candidate enumeration through a (label,key) index before expansion
// starts; every conjunct is still checked on every binding (as a cell
// predicate or at emit), so a pushdown only ever restricts the candidate
// set.
type pushdown struct {
	Var string
	Key string
	In  bool // `IN expr` rather than `= expr`
	Val Expr // the value expression (for IN, the list expression)
}

// collectPushdowns splits where into top-level AND conjuncts and keeps the
// index-serviceable ones. patVars is the set of variables the clause's own
// patterns introduce: a value expression referencing any of them cannot be
// resolved before enumeration and is not collected.
func collectPushdowns(where Expr, patVars map[string]bool) []pushdown {
	var out []pushdown
	var walk func(e Expr)
	walk = func(e Expr) {
		b, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		switch b.Op {
		case OpAnd:
			walk(b.Left)
			walk(b.Right)
		case OpEq:
			if pd, ok := eqPushdown(b.Left, b.Right, patVars); ok {
				out = append(out, pd)
			} else if pd, ok := eqPushdown(b.Right, b.Left, patVars); ok {
				out = append(out, pd)
			}
		case OpIn:
			if pa, ok := propOfPatternVar(b.Left, patVars); ok && !refsAny(b.Right, patVars) {
				out = append(out, pushdown{Var: pa.Target.(*Variable).Name, Key: pa.Key, In: true, Val: b.Right})
			}
		}
	}
	walk(where)
	return out
}

func eqPushdown(lhs, rhs Expr, patVars map[string]bool) (pushdown, bool) {
	pa, ok := propOfPatternVar(lhs, patVars)
	if !ok || refsAny(rhs, patVars) {
		return pushdown{}, false
	}
	return pushdown{Var: pa.Target.(*Variable).Name, Key: pa.Key, Val: rhs}, true
}

// propOfPatternVar matches `v.key` where v is one of the clause's pattern
// variables.
func propOfPatternVar(e Expr, patVars map[string]bool) (*PropAccess, bool) {
	pa, ok := e.(*PropAccess)
	if !ok {
		return nil, false
	}
	v, ok := pa.Target.(*Variable)
	if !ok || !patVars[v.Name] {
		return nil, false
	}
	return pa, true
}

// refsAny reports whether e references any variable in vars.
func refsAny(e Expr, vars map[string]bool) bool {
	found := false
	freeVars(e, func(name string) { found = found || vars[name] })
	return found
}

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
	label string // accessIndex / accessPropScan / accessLabelScan
	key   string // accessIndex / accessPropScan
	// vals are the resolved lookup values for accessIndex, already
	// deduplicated. Empty with kind accessIndex means the predicate is
	// statically unsatisfiable (e.g. `= null`): zero candidates.
	vals     []graph.Value
	fromPush bool    // accessIndex seeded by a WHERE pushdown, not an inline prop
	in       bool    // pushdown used IN rather than equality
	est      float64 // estimated candidate count after the access filter
	cost     float64 // anchor-selection cost; lower wins
}

// planAccess decides how to enumerate candidates for node pattern np given
// the current binding and the clause's pushdowns (m.push).
func (m *matcher) planAccess(np NodePattern) anchorAccess {
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
			key := sortedPropKeys(np.Props)[0]
			return anchorAccess{kind: accessPropScan, label: label, key: key,
				est: float64(minCount), cost: 1 + float64(minCount)/2}
		}
		return anchorAccess{kind: accessLabelScan, label: label,
			est: float64(minCount), cost: 2 + float64(minCount)}
	}
	n := float64(m.g.NumNodes())
	return anchorAccess{kind: accessFullScan, est: n, cost: 3 + n}
}

// planIndexAccess tries every (label, key) pair available from inline
// properties and WHERE pushdowns, resolves the lookup values against the
// current binding, and returns the indexed access with the smallest
// estimated candidate count. ok is false when no pair has an index or
// resolvable values.
func (m *matcher) planIndexAccess(np NodePattern) (anchorAccess, bool) {
	best := anchorAccess{}
	found := false
	consider := func(acc anchorAccess) {
		if !found || acc.est < best.est {
			best, found = acc, true
		}
	}
	for _, label := range np.Labels {
		for _, key := range sortedPropKeys(np.Props) {
			if !m.g.HasIndex(label, key) {
				continue
			}
			v, err := m.ec.eval(np.Props[key], m.binding)
			if err != nil {
				continue
			}
			sv, ok := v.Scalar()
			if !ok {
				continue
			}
			sel := m.g.PropCardinality(label, key).Selectivity()
			consider(anchorAccess{kind: accessIndex, label: label, key: key,
				vals: []graph.Value{sv}, est: sel, cost: 1 + sel})
		}
		for _, pd := range m.push {
			if pd.Var == "" || pd.Var != np.Var || !m.g.HasIndex(label, pd.Key) {
				continue
			}
			vals, ok := m.resolvePushdownVals(pd)
			if !ok {
				continue
			}
			sel := m.g.PropCardinality(label, pd.Key).Selectivity()
			consider(anchorAccess{kind: accessIndex, label: label, key: pd.Key,
				vals: vals, fromPush: true, in: pd.In,
				est: sel * float64(len(vals)), cost: 1 + sel*float64(len(vals))})
		}
	}
	return best, found
}

// resolvePushdownVals evaluates a pushdown's value expression to concrete
// lookup values. ok is false when the expression cannot be resolved into
// index lookups without changing semantics — evaluation errors (which must
// surface at WHERE time), non-list IN operands, or list elements that are
// not graph scalars.
func (m *matcher) resolvePushdownVals(pd pushdown) ([]graph.Value, bool) {
	v, err := m.ec.eval(pd.Val, m.binding)
	if err != nil {
		return nil, false
	}
	if v.IsNull() {
		// `= null` and `IN null` evaluate to null: the conjunct — and with
		// it the whole AND — never holds, so the candidate set is empty.
		return nil, true
	}
	if !pd.In {
		sv, ok := v.Scalar()
		if !ok {
			return nil, false
		}
		return []graph.Value{sv}, true
	}
	elems, ok := v.AsList()
	if !ok {
		if sv, isScalar := v.Scalar(); isScalar {
			if gl, isList := sv.AsList(); isList {
				out := make([]graph.Value, 0, len(gl))
				for _, e := range gl {
					if !e.IsNull() {
						out = append(out, e)
					}
				}
				return dedupeVals(out), true
			}
		}
		return nil, false // IN over a non-list errors at eval time; keep that
	}
	out := make([]graph.Value, 0, len(elems))
	for _, e := range elems {
		if e.IsNull() {
			continue // null never equals a stored value
		}
		sv, isScalar := e.Scalar()
		if !isScalar {
			return nil, false
		}
		out = append(out, sv)
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

func sortedPropKeys(props map[string]Expr) []string {
	ks := make([]string, 0, len(props))
	for k := range props {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
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
func (m *matcher) planPath(path PatternPath) pathPlan {
	plan := pathPlan{acc: m.planAccess(path.Nodes[0])}
	for i := 1; i < len(path.Nodes) && plan.acc.cost > 0; i++ {
		if acc := m.planAccess(path.Nodes[i]); acc.cost < plan.acc.cost {
			plan = pathPlan{anchor: i, acc: acc}
		}
	}
	if testPlannerHook != nil {
		testPlannerHook("plan", path, plan)
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
		if v, err := m.ec.eval(np.Props[acc.key], m.binding); err == nil {
			if sv, ok := v.Scalar(); ok {
				return m.g.NodesByProp(acc.label, acc.key, sv)
			}
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
		return m.g.NodesByProp(acc.label, acc.key, acc.vals[0])
	}
	var ids []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, v := range acc.vals {
		for _, id := range m.g.NodesByProp(acc.label, acc.key, v) {
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
		if acc.fromPush {
			src = "WHERE pushdown ="
			if acc.in {
				src = "WHERE pushdown IN"
			}
		}
		return fmt.Sprintf("index lookup %s.%s (%s, est. %s rows)",
			acc.label, acc.key, src, fmtEst(acc.est))
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

// patternVarSet collects the variables a clause's patterns introduce.
func patternVarSet(patterns []PatternPath) map[string]bool {
	set := map[string]bool{}
	for _, name := range patternVars(patterns) {
		set[name] = true
	}
	return set
}
