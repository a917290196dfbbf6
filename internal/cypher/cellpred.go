package cypher

import (
	"fmt"
	"slices"
	"strings"

	"iyp/internal/graph"
)

// Cell predicates. A top-level AND conjunct of a MATCH clause's WHERE of
// the form `v.key op c` — op one of =, <>, <, <=, >, >=, STARTS WITH and IN;
// c a literal, a $parameter, or for IN a list of them — or `v.key op w.key`,
// where v and w are variables the clause's patterns bind to nodes or single
// relationships, is compiled once per clause execution (newMatchSpec) into
// a test of the stored cells: the key is resolved to its id, the constant
// evaluated once, and `=` against a string compares dictionary ids. The
// matcher runs each one as soon as all its variables are bound (bindNode,
// tryRel), so a binding that fails it is never extended, and the driver's
// emit evaluates only what is left of the WHERE.
//
// Rows do not change. A WHERE keeps a binding only when every conjunct is
// true, and a compiled conjunct fails exactly when the evaluator's would be
// false or null: both read the cell the same way and compare with the same
// Value.Equal and Value.Compare. Errors could change: failing a binding
// early skips the conjuncts after the failing one, and the evaluator's AND
// goes on to the next conjunct after a null. So a WHERE is compiled only
// when no conjunct left in it can fail (cannotFail), and a conjunct only
// when it cannot fail itself (an IN whose constant is no list stays).

// cellOps are the operators a cell predicate compiles, as EXPLAIN prints
// them.
var cellOps = map[BinOp]string{
	OpEq: "=", OpNeq: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpStartsWith: "STARTS WITH", OpIn: "IN",
}

// cellRef is the cell `v.key` of a pattern variable, its key resolved.
type cellRef struct {
	v     string
	key   uint32
	known bool // the graph stores key; an unknown key reads null
}

// read returns the cell of entity e (null when e stores none).
func (c cellRef) read(g *graph.Graph, e Val) graph.Value {
	if !c.known {
		return graph.Null()
	}
	if id, ok := e.AsNode(); ok {
		return g.NodePropByID(id, c.key)
	}
	if id, ok := e.AsRel(); ok {
		return g.RelPropByID(id, c.key)
	}
	return graph.Null()
}

// cellPred is one compiled conjunct: the cell l compared by op with the
// cell r, or with the constant c when r.v is "".
type cellPred struct {
	conj  *BinaryExpr // the conjunct
	op    BinOp
	l, r  cellRef
	c     Val           // the constant, evaluated
	in    []graph.Value // IN: the constant list's non-null scalars
	str   uint32        // = on a string the dictionary holds: its id
	isStr bool
	never string // non-empty: why no binding satisfies the conjunct
}

// holds runs p on binding b. ready is false while a variable of p is
// unbound; otherwise held reports whether the conjunct is true.
func (p *cellPred) holds(g *graph.Graph, b row) (held, ready bool) {
	le, ok := b.get(p.l.v)
	if !ok {
		return false, false
	}
	rv := p.c.scalar // null for a list
	if p.r.v != "" {
		re, ok := b.get(p.r.v)
		if !ok {
			return false, false
		}
		rv = p.r.read(g, re)
	}
	switch {
	case p.never != "":
		return false, true
	case p.isStr:
		if id, ok := le.AsNode(); ok {
			return g.NodePropIsString(id, p.l.key, p.str), true
		}
		id, ok := le.AsRel()
		return ok && g.RelPropIsString(id, p.l.key, p.str), true
	}
	return p.test(p.l.read(g, le), rv), true
}

// test applies p's operator to the cell lv and the right-hand value rv as
// the evaluator does, a null result counting as false.
func (p *cellPred) test(lv, rv graph.Value) bool {
	if lv.IsNull() {
		return false
	}
	if p.op == OpIn {
		return slices.ContainsFunc(p.in, lv.Equal)
	}
	if rv.IsNull() {
		return false
	}
	switch p.op {
	case OpEq:
		return lv.Equal(rv)
	case OpNeq:
		return !lv.Equal(rv)
	case OpStartsWith:
		ls, lok := lv.AsString()
		rs, rok := rv.AsString()
		return lok && rok && strings.HasPrefix(ls, rs)
	}
	c, ok := lv.Compare(rv)
	if !ok {
		return false
	}
	switch p.op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	}
	return c >= 0
}

// cellsHold runs the predicates of a pattern position whose variable is
// bound on the current binding, and reports whether none that is ready
// fails.
func (m *matcher) cellsHold(preds []*cellPred) bool {
	for _, p := range preds {
		if held, ready := p.holds(m.g, m.binding); ready && !held {
			return false
		}
	}
	return true
}

// compileWhere compiles where's conjuncts against the clause's resolved
// paths: it returns the cell predicates, each also listed on every pattern
// position that binds one of its variables, and the rest of where that emit
// still evaluates (nil when nothing is left). It compiles nothing unless
// every conjunct it leaves cannot fail.
func compileWhere(ec *evalCtx, paths []resolvedPath, patterns []PatternPath, where Expr) (preds []cellPred, rest Expr) {
	if where == nil {
		return nil, nil
	}
	var others []Expr
	var split func(e Expr)
	split = func(e Expr) {
		if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
			split(b.Left)
			split(b.Right)
		} else if p, ok := compileConjunct(ec, patterns, e); ok {
			preds = append(preds, p)
		} else {
			others = append(others, e)
		}
	}
	split(where)
	if len(preds) == 0 || slices.ContainsFunc(others, func(e Expr) bool { return !cannotFail(ec, patterns, e) }) {
		return nil, where
	}
	for _, e := range others {
		if rest == nil {
			rest = e
		} else {
			rest = &BinaryExpr{Op: OpAnd, Left: rest, Right: e}
		}
	}
	for i := range preds {
		p := &preds[i]
		for j := range paths {
			for k := range paths[j].nodes {
				if v := paths[j].nodes[k].Var; v != "" && (v == p.l.v || v == p.r.v) {
					paths[j].nodes[k].preds = append(paths[j].nodes[k].preds, p)
				}
			}
			for k := range paths[j].rels {
				if v := paths[j].rels[k].Var; v != "" && (v == p.l.v || v == p.r.v) {
					paths[j].rels[k].preds = append(paths[j].rels[k].preds, p)
				}
			}
		}
	}
	return preds, rest
}

// compileConjunct compiles e when it has a cell predicate's shape.
func compileConjunct(ec *evalCtx, patterns []PatternPath, e Expr) (cellPred, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || cellOps[b.Op] == "" {
		return cellPred{}, false
	}
	l, ok := cellOf(ec.g, patterns, b.Left)
	if !ok {
		return cellPred{}, false
	}
	p := cellPred{conj: b, op: b.Op, l: l}
	if !l.known {
		p.never = fmt.Sprintf("unknown property key `%s`", b.Left.(*PropAccess).Key)
	}
	if r, ok := cellOf(ec.g, patterns, b.Right); ok && b.Op != OpIn {
		p.r = r
		if !r.known && p.never == "" {
			p.never = fmt.Sprintf("unknown property key `%s`", b.Right.(*PropAccess).Key)
		}
		return p, true
	}
	if !isConstant(b.Right) {
		return cellPred{}, false
	}
	v, err := ec.eval(b.Right, nil)
	if err != nil {
		return cellPred{}, false
	}
	p.c = v
	if b.Op == OpIn {
		elems, err := listElems(v)
		if v.IsNull() {
			p.never = "IN null"
		} else if err != nil {
			return cellPred{}, false // the evaluator's error stays in the WHERE
		}
		for _, e := range elems {
			if s, ok := e.Scalar(); ok && !s.IsNull() {
				p.in = append(p.in, s)
			}
		}
		return p, true
	}
	c, ok := v.Scalar()
	if !ok {
		return cellPred{}, false
	}
	if s, isStr := c.AsString(); c.IsNull() {
		p.never = "compared with null"
	} else if isStr && b.Op == OpEq {
		if x, param := b.Right.(*Param); param {
			if _, supplied := ec.params[x.Name]; !supplied {
				return p, true // planned (EXPLAIN) without its value
			}
		}
		if p.str, p.isStr = ec.g.Interner().Lookup(s); !p.isStr {
			p.never = fmt.Sprintf("unknown string %q", s)
		}
	}
	return p, true
}

// cellOf matches `v.key` where v is a variable patterns bind to nodes or
// single relationships only, and resolves key against g.
func cellOf(g *graph.Graph, patterns []PatternPath, e Expr) (cellRef, bool) {
	pa, ok := e.(*PropAccess)
	if !ok {
		return cellRef{}, false
	}
	v, ok := pa.Target.(*Variable)
	if !ok {
		return cellRef{}, false
	}
	if _, entity := patternVarKind(patterns, v.Name); !entity {
		return cellRef{}, false
	}
	key, known := g.KeyID(pa.Key)
	return cellRef{v: v.Name, key: key, known: known}, true
}

// isConstant reports whether e is a literal, a $parameter or a list of
// them.
func isConstant(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *Param:
		return true
	case *ListExpr:
		return !slices.ContainsFunc(x.Elems, func(e Expr) bool { return !isConstant(e) })
	}
	return false
}

// describe renders the conjunct for EXPLAIN, a parameter by name and a
// string constant quoted.
func (p *cellPred) describe() string {
	l := fmt.Sprintf("%s.%s %s ", p.l.v, p.conj.Left.(*PropAccess).Key, cellOps[p.op])
	switch r := p.conj.Right.(type) {
	case *PropAccess:
		return l + p.r.v + "." + r.Key
	case *Param:
		return l + "$" + r.Name
	}
	if s, ok := p.c.AsString(); ok {
		return l + fmt.Sprintf("%q", s)
	}
	return l + p.c.String()
}

// cannotFail reports whether evaluating e on a binding of the clause's
// patterns never returns an error: literals, supplied parameters, the
// patterns' variables and properties of their node and single-relationship
// variables, combined by comparisons, string matching, IS NULL, NOT, AND,
// OR, XOR and IN over a list literal. Anything else (arithmetic, function
// calls, subqueries) is taken to be able to fail.
func cannotFail(ec *evalCtx, patterns []PatternPath, e Expr) bool {
	switch x := e.(type) {
	case *Literal:
		return true
	case *Param:
		_, ok := ec.params[x.Name]
		return ok || ec.unknownParams
	case *Variable:
		bound, _ := patternVarKind(patterns, x.Name)
		return bound
	case *PropAccess:
		_, ok := cellOf(ec.g, patterns, x)
		return ok
	case *IsNullExpr:
		return cannotFail(ec, patterns, x.X)
	case *UnaryExpr:
		return x.Not && cannotFail(ec, patterns, x.X)
	case *ListExpr:
		return !slices.ContainsFunc(x.Elems, func(e Expr) bool { return !cannotFail(ec, patterns, e) })
	case *BinaryExpr:
		switch x.Op {
		case OpIn:
			if _, list := x.Right.(*ListExpr); !list {
				return false
			}
		case OpAnd, OpOr, OpXor, OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe, OpStartsWith, OpEndsWith, OpContains:
		default:
			return false
		}
		return cannotFail(ec, patterns, x.Left) && cannotFail(ec, patterns, x.Right)
	}
	return false
}
