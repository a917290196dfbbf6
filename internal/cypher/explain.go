package cypher

import (
	"fmt"
	"strings"

	"iyp/internal/graph"
)

// clausePlan is what the planner decides for one MATCH clause before any
// row is matched: the clause's matchSpec and one pathPlan per pattern path.
type clausePlan struct {
	matchSpec
	paths []pathPlan
	in    row // the variables the walk has bound before the clause
}

// planCtx is the evaluation context plans are made in without executing:
// the caller's parameters, with a parameter that is not supplied standing
// for one unknown scalar, so an index lookup on it still plans as an index
// lookup (at the index's selectivity) rather than as a scan.
func planCtx(g *graph.Graph, params map[string]Val) *evalCtx {
	return &evalCtx{g: g, params: params, unknownParams: true}
}

// walkBranch is the clause walk EXPLAIN and the cost estimator share. It
// visits the clauses of one UNION branch in order; a MATCH clause is first
// planned the way the driver will plan it — same matchSpec, same planPath,
// real parameters — against the variables bound so far, and each path's
// node variables are then marked bound for later paths and clauses, which
// is how the driver finds them. plan is nil for every other clause, and
// only valid until visit returns.
func walkBranch(ec *evalCtx, q *Query, visit func(cl Clause, plan *clausePlan)) {
	m := &matcher{ec: ec, g: ec.g, binding: row{}}
	cp := &clausePlan{}
	for i, cl := range q.Clauses {
		mc, ok := cl.(*MatchClause)
		if !ok {
			visit(cl, nil)
			continue
		}
		cp.matchSpec, cp.paths = newMatchSpec(ec, q, mc.Patterns, mc.Where, mc.Optional), cp.paths[:0]
		cp.ret = returnAtEmit(ec, q, i)
		cp.in = m.binding
		for i := range cp.matchSpec.paths {
			cp.paths = append(cp.paths, m.planPath(&cp.matchSpec.paths[i]))
			for _, np := range mc.Patterns[i].Nodes {
				if _, bound := m.binding.get(np.Var); np.Var != "" && !bound {
					m.binding = append(m.binding, binding{np.Var, NodeVal(0)})
				}
			}
		}
		visit(cl, cp)
	}
}

// Explain describes, without executing, how the engine would run each
// MATCH pattern of a query against g: which node position anchors the
// search, how its candidates are produced (bound variable, index lookup,
// label scan, full scan) with the statistics-estimated cardinality, which
// WHERE predicates are pushed into index lookups, whether the clause is
// eligible for morsel-parallel execution, and whether it evaluates the
// final RETURN at emit (returnAtEmit). The plan printed here comes
// from the clause walk the cost estimator uses and the planner the driver
// calls (walkBranch, planPath), so what EXPLAIN says is what runs. It is
// the reproduction's counterpart of Cypher's EXPLAIN, useful when a query
// against a large snapshot is unexpectedly slow.
func Explain(g *graph.Graph, src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	return ExplainQuery(g, q, nil), nil
}

// ExplainQuery is Explain for an already-parsed query with its $parameter
// values, so a parameterized lookup is explained the way it will execute.
func ExplainQuery(g *graph.Graph, q *Query, params map[string]Val) string {
	var sb strings.Builder
	clauseNo := 0
	// Every UNION branch is walked on its own: variables do not carry
	// across branches, and a write clause anywhere in a branch keeps that
	// branch's matches unsplit.
	for cur := q; cur != nil; cur = cur.Next {
		walkBranch(planCtx(g, params), cur, func(cl Clause, plan *clausePlan) {
			switch c := cl.(type) {
			case *CallClause:
				clauseNo++
				fmt.Fprintf(&sb, "CALL #%d\n", clauseNo)
				if spec, ok := LookupProc(c.Proc); ok {
					fmt.Fprintf(&sb, "  procedure %s streaming columns [%s]; plan not cacheable\n",
						spec.Name, strings.Join(spec.Cols, ", "))
				} else {
					fmt.Fprintf(&sb, "  procedure %s is not registered — execution would fail\n", c.Proc)
				}
			case *MatchClause:
				clauseNo++
				kind := "MATCH"
				if c.Optional {
					kind = "OPTIONAL MATCH"
				}
				fmt.Fprintf(&sb, "%s #%d\n", kind, clauseNo)
				explainMatch(&sb, plan)
			}
		})
	}
	if clauseNo == 0 {
		return "(no MATCH or CALL clauses)\n"
	}
	return sb.String()
}

func explainMatch(sb *strings.Builder, plan *clausePlan) {
	for i, path := range plan.patterns {
		pp := plan.paths[i]
		access := pp.acc.describe(path.Nodes[pp.anchor])
		if path.Shortest {
			fmt.Fprintf(sb, "  path %d: shortestPath BFS, %s\n", i+1, access)
		} else {
			fmt.Fprintf(sb, "  path %d: anchor at node %d of %d — %s; expand %d hop(s)\n",
				i+1, pp.anchor+1, len(path.Nodes), access, len(path.Rels))
		}
	}
	if plan.never != "" {
		fmt.Fprintf(sb, "  never matches: %s\n", plan.never)
	}
	var seeds []string
	for i := range plan.preds {
		if p := &plan.preds[i]; p.origin != fromInline && p.seeds() {
			seeds = append(seeds, fmt.Sprintf("%s.%s %s …", p.l.v, p.l.name, cellOps[p.op]))
		}
	}
	if len(seeds) > 0 {
		fmt.Fprintf(sb, "  index-serviceable WHERE predicates: %s\n", strings.Join(seeds, ", "))
	}
	tested := false
	for i, site := range predicateSites(plan) {
		p := &plan.preds[i]
		switch {
		case p.origin != fromWhere:
			continue
		case p.never != "":
			fmt.Fprintf(sb, "  cell predicate at %s: %s — never holds: %s\n", site, p.describe(), p.never)
		default:
			fmt.Fprintf(sb, "  cell predicate at %s: %s\n", site, p.describe())
		}
		tested = true
	}
	if tested && plan.filter != nil {
		sb.WriteString("  rest of WHERE evaluated at match emit\n")
	}
	spec := plan.matchSpec
	spec.memo = newMemoPlan(spec, plan.in)
	if plan.reason != "" {
		fmt.Fprintf(sb, "  execution: serial — %s\n", plan.reason)
	} else {
		fmt.Fprintf(sb, "  execution: morsel-parallel eligible (morsels of %d; serial below %d anchor candidates)\n",
			morselSize, minParallelCandidates)
		anchor := plan.paths[0]
		if _, _, ok := spec.cutHop(plan.in, anchor.anchor); ok && (anchor.acc.kind == accessBound || anchor.acc.kind == accessIndex) {
			fmt.Fprintf(sb, "  a single anchor candidate's first hop runs in morsels of %d adjacency entries (from %d)\n",
				morselSize, minParallelCandidates)
		}
	}
	if plan.ret != nil && plan.ret.Distinct {
		sb.WriteString("  RETURN evaluated at match emit (DISTINCT per work item)\n")
	} else if plan.ret != nil {
		sb.WriteString("  RETURN evaluated at match emit\n")
	}
	if memo := spec.memo.describe(plan.paths[0].anchor, len(plan.patterns[0].Nodes)); memo != "" {
		fmt.Fprintf(sb, "  %s\n", memo)
	}
}

// predicateSites names, for each of plan's compiled WHERE conjuncts, the
// pattern position the matcher runs it at: the first position, in the
// order the plan binds them, that binds one of its variables once all of
// them are bound.
func predicateSites(plan *clausePlan) []string {
	sites := make([]string, len(plan.preds))
	bound := map[string]bool{}
	for _, b := range plan.in {
		bound[b.name] = true
	}
	visit := func(name, site string) {
		if name == "" {
			return
		}
		bound[name] = true
		for i := range plan.preds {
			p := &plan.preds[i]
			if p.origin == fromWhere && sites[i] == "" && (name == p.l.v || name == p.r.v) && bound[p.l.v] && (p.r.v == "" || bound[p.r.v]) {
				sites[i] = site
			}
		}
	}
	for i, path := range plan.patterns {
		at := func(kind string, k, n int) string {
			s := fmt.Sprintf("%s %d of %d", kind, k+1, n)
			if len(plan.patterns) > 1 {
				s = fmt.Sprintf("path %d %s", i+1, s)
			}
			return s
		}
		node := func(k int) { visit(path.Nodes[k].Var, at("node", k, len(path.Nodes))) }
		hop := func(k int) { visit(path.Rels[k].Var, at("hop", k, len(path.Rels))) }
		a := plan.paths[i].anchor
		node(a)
		if path.Shortest {
			node(1 - a)
			continue
		}
		for k := a; k < len(path.Rels); k++ {
			node(k + 1)
			hop(k)
		}
		for k := a; k > 0; k-- {
			node(k - 1)
			hop(k - 1)
		}
	}
	return sites
}
