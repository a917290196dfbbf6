package cypher

import (
	"strings"

	"iyp/internal/graph"
)

// Pre-execution cost estimation. EstimateQuery walks a parsed query with
// the clause walk Explain prints (walkBranch) — per UNION branch, per
// clause, per pattern path — and folds the planner's anchorAccess
// estimates (planner.go) with per-hop fan-out
// from the graph's maintained relationship statistics into a single figure
// the serving layer can compare against a shedding threshold before a
// single row is produced. The estimates deliberately err high: under
// overload the server uses them to decide which queries to refuse, and a
// cheap query misjudged expensive costs one retry while an expensive query
// misjudged cheap costs everyone's latency.

// QueryEstimate is the planner's pre-execution forecast for a query.
type QueryEstimate struct {
	// Rows estimates the pattern-match cardinality feeding the final
	// projection (before DISTINCT/aggregation/LIMIT reductions).
	Rows float64
	// Cost estimates total work in candidate-access + expansion units;
	// comparable across queries against the same graph.
	Cost float64
	// Analytics reports a CALL algo.* clause: whole-graph kernel work
	// whose cost is proportional to the full graph regardless of the
	// pattern estimates. These are shed first under load.
	Analytics bool
	// IndexOnly reports that every MATCH anchor is a bound variable or a
	// (label,key) index lookup — the query cannot scan a whole label or
	// the node table. These are the last queries a degraded server keeps
	// serving.
	IndexOnly bool
}

// estimateCeiling clamps Rows/Cost so hop products cannot overflow into
// +Inf and break comparisons.
const estimateCeiling = 1e15

// EstimateQuery forecasts rows and cost for an already-parsed query against
// g. params supplies $parameter values so parameterized index lookups plan
// the same way they will execute (an absent parameter is costed as one
// unknown scalar). The walk never executes the query and is safe on any
// parse result.
func EstimateQuery(g *graph.Graph, q *Query, params map[string]Val) QueryEstimate {
	if g == nil || q == nil {
		return QueryEstimate{Rows: 0, Cost: 0, IndexOnly: true}
	}
	total := QueryEstimate{IndexOnly: true}
	for cur := q; cur != nil; cur = cur.Next {
		b := estimateBranch(g, cur, params)
		total.Rows = clampEst(total.Rows + b.Rows)
		total.Cost = clampEst(total.Cost + b.Cost)
		total.Analytics = total.Analytics || b.Analytics
		total.IndexOnly = total.IndexOnly && b.IndexOnly
	}
	return total
}

func estimateBranch(g *graph.Graph, q *Query, params map[string]Val) QueryEstimate {
	ec := planCtx(g, params)
	est := QueryEstimate{IndexOnly: true}
	rows := 1.0 // current pipeline cardinality

	walkBranch(ec, q, func(cl Clause, plan *clausePlan) {
		switch c := cl.(type) {
		case *MatchClause:
			clauseRows := 1.0
			for i, path := range c.Patterns {
				anchor, acc := plan.paths[i].anchor, plan.paths[i].acc
				est.Cost = clampEst(est.Cost + acc.cost)
				if path.Shortest {
					// Cost is dominated by the BFS frontier, bounded by the
					// reachable edge set.
					est.Cost = clampEst(est.Cost + acc.est*avgDegree(g))
					clauseRows = clampEst(clauseRows * max(acc.est, 1))
				} else {
					pathRows := acc.est
					// Expansion proceeds outward from the anchor; each hop's
					// frontier is charged as materialized work, because it is.
					for h := range path.Rels {
						pathRows = clampEst(pathRows * hopFanout(g, path.Rels[h], hopSource(path, anchor, h)))
						est.Cost = clampEst(est.Cost + pathRows)
					}
					clauseRows = clampEst(clauseRows * pathRows)
				}
				if acc.kind != accessBound && acc.kind != accessIndex {
					est.IndexOnly = false
				}
			}
			if c.Optional && clauseRows < 1 {
				clauseRows = 1 // OPTIONAL MATCH never shrinks the pipeline below its input
			}
			rows = clampEst(rows * clauseRows)

		case *UnwindClause:
			// List sizes are usually runtime values; a literal list is exact,
			// anything else assumes a modest expansion factor.
			fan := 8.0
			if le, ok := c.Expr.(*ListExpr); ok {
				fan = max(float64(len(le.Elems)), 1)
			}
			rows = clampEst(rows * fan)
			est.Cost = clampEst(est.Cost + rows)

		case *CallClause:
			if strings.HasPrefix(c.Proc, "algo.") {
				est.Analytics = true
				est.IndexOnly = false
				whole := float64(g.NumNodes() + g.NumRels())
				est.Cost = clampEst(est.Cost + 4*whole) // kernels iterate the full graph
				rows = clampEst(max(rows, float64(g.NumNodes())))
			} else {
				est.Cost = clampEst(est.Cost + 64) // registry/introspection procs are tiny
				rows = clampEst(rows * 8)
			}

		case *WithClause:
			est.Cost = clampEst(est.Cost + rows) // projection pass
			if n, ok := staticLimit(ec, c.Limit); ok && float64(n) < rows {
				rows = float64(n)
			}

		case *ReturnClause:
			est.Cost = clampEst(est.Cost + rows)
			if n, ok := staticLimit(ec, c.Limit); ok && float64(n) < rows {
				rows = float64(n)
			}

		case *CreateClause, *MergeClause, *SetClause, *DeleteClause, *RemoveClause:
			// Writes are rejected by the public server before estimation
			// matters; cost them as one pass so embedded callers still get a
			// sane figure.
			est.Cost = clampEst(est.Cost + rows)
			est.IndexOnly = false
		}
	})
	est.Rows = rows
	return est
}

// hopSource is the node pattern the i-th relationship expands from.
// Expansion walks outward from the anchor, so relationships right of the
// anchor are entered from their left endpoint and vice versa.
func hopSource(path PatternPath, anchor, i int) NodePattern {
	if i >= anchor {
		return path.Nodes[i]
	}
	return path.Nodes[i+1]
}

// hopFanout estimates how many relationships one traversal step expands per
// frontier node. When the source pattern carries a label, the fan-out is
// class-based — all relationships of the type divided by the label's node
// count — which stays honest when the planner anchors on a small hub class
// (e.g. 2 Tag nodes absorbing hundreds of CATEGORIZED edges; the global
// mean degree would estimate that expansion at well under one row). The
// class-based figure deliberately errs high when the type's edges only
// partly touch the class: over-estimates shed a retryable query,
// under-estimates melt the server. Without a label it falls back to the
// global mean degree, doubled for undirected steps since both endpoints
// enumerate the edge. Variable-length steps sum the geometric series over
// the hop range, capped at a few levels — beyond that the estimate is
// saturated anyway.
func hopFanout(g *graph.Graph, rp RelPattern, src NodePattern) float64 {
	classN := 0
	for _, l := range src.Labels {
		if c := g.CountByLabel(l); classN == 0 || c < classN {
			classN = c
		}
	}
	var deg float64
	if len(rp.Types) == 0 {
		if classN > 0 {
			deg = float64(g.NumRels()) / float64(classN)
		} else {
			deg = avgDegree(g)
		}
	} else {
		for _, t := range rp.Types {
			if classN > 0 {
				deg += float64(g.RelTypeCardinality(t)) / float64(classN)
			} else {
				deg += g.RelTypeDegree(t)
			}
		}
	}
	if classN == 0 && rp.Dir == DirAny {
		deg *= 2
	}
	if !rp.VarLen {
		return deg
	}
	lo := rp.MinHops
	if lo < 1 {
		lo = 1
	}
	hi := rp.MaxHops
	if hi < 0 || hi > lo+4 {
		hi = lo + 4
	}
	total := 0.0
	step := 1.0
	for d := 1; d <= hi; d++ {
		step = clampEst(step * max(deg, 1e-9))
		if d >= lo {
			total = clampEst(total + step)
		}
	}
	return total
}

// avgDegree is the untyped per-node relationship count.
func avgDegree(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(g.NumRels()) / float64(n)
}

// staticLimit resolves a LIMIT expression that does not depend on row
// bindings (literals, parameters, arithmetic over them).
func staticLimit(ec *evalCtx, e Expr) (int, bool) {
	if e == nil {
		return 0, false
	}
	v, err := ec.eval(e, row{})
	if err != nil {
		return 0, false
	}
	n, ok := v.AsInt()
	if !ok || n < 0 {
		return 0, false
	}
	return int(n), true
}

func clampEst(f float64) float64 {
	if f > estimateCeiling {
		return estimateCeiling
	}
	if f < 0 || f != f { // negative or NaN: saturate safe-side
		return 0
	}
	return f
}
