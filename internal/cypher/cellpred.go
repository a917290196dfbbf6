package cypher

import (
	"fmt"
	"slices"
	"strings"

	"iyp/internal/graph"
)

// Property tests. Every "this entity's property compares with that value"
// of a MATCH clause is one cellPred at the pattern positions that read the
// entity, compiled once per clause execution (newMatchSpec): an inline
// property `{key: value}` is an `=` predicate on its node or relationship
// (resolvePaths); a top-level AND conjunct of the WHERE of the form `v.key
// op c` — op one of =, <>, <, <=, >, >=, STARTS WITH and IN, c a literal, a
// $parameter or a list of them — or `v.key op w.key`, v and w bound by the
// clause's patterns to nodes or single relationships, is one on every
// position that binds v or w (compileWhere). The key is resolved to its
// id, a constant evaluated once, and `=` against a string compares
// dictionary ids; an inline value that is no constant is evaluated on the
// binding, and its error is the match's. The matcher runs a position's
// predicates on each candidate there (cellsHold), reading the candidate
// itself; only `v.key op w.key` reads its other variable from the binding,
// and waits until it is bound. An `=` or IN predicate whose value reads no
// pattern variable also seeds the index lookup of an anchor at its position
// (planIndexAccess), as does a WHERE conjunct of that shape that is not
// tested (seedOnly): one whose value reads the input row, the mirrored `c
// = v.key`, or any conjunct of a WHERE that does not compile.
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

// predOrigin says where a cellPred comes from, which decides how EXPLAIN
// names it.
type predOrigin uint8

const (
	fromInline predOrigin = iota // an inline property {key: value}
	fromWhere                    // a WHERE conjunct the matcher tests
	seedOnly                     // a WHERE conjunct that only seeds index lookups
)

// cellRef is the cell `v.key` of a pattern variable, its key resolved.
type cellRef struct {
	v     string // "" for an anonymous position's inline property
	name  string // the key
	key   uint32
	known bool // the graph stores key; an unknown key reads null
}

// cand is the candidate a pattern position tests: node, or relationship
// rel when node is 0, for the position's variable v.
type cand struct {
	v    string
	node graph.NodeID
	rel  graph.RelID
}

// read returns the cell of e (null when e stores none).
func (c cellRef) read(g *graph.Graph, e cand) graph.Value {
	switch {
	case !c.known:
	case e.node != 0:
		return g.NodePropByID(e.node, c.key)
	case e.rel != 0:
		return g.RelPropByID(e.rel, c.key)
	}
	return graph.Null()
}

// side is the entity c reads at candidate e: e itself when c is e's
// variable, otherwise what binding b binds c's variable to (ok false when
// it binds nothing; neither a node nor a relationship reads null).
func (c cellRef) side(b row, e cand) (cand, bool) {
	if c.v == e.v {
		return e, true
	}
	val, ok := b.get(c.v)
	id, _ := val.AsNode()
	rid, _ := val.AsRel()
	return cand{v: c.v, node: id, rel: rid}, ok
}

// cellPred is one compiled property test: the cell l compared by op with
// the cell r, when r.v is set, or else with a value — the constant c, or
// val evaluated on the binding.
type cellPred struct {
	conj   *BinaryExpr // the WHERE conjunct (nil for an inline property)
	op     BinOp
	l, r   cellRef
	val    Expr          // the value when it is no constant, evaluated per binding
	c      Val           // the constant; a list a cell can hold as a scalar list
	in     []graph.Value // IN: c's elements a cell can hold, nulls left out
	never  string        // non-empty: why no candidate satisfies p
	str    uint32        // = on a string the dictionary holds: its id
	isStr  bool
	pair   bool // l and r read different variables
	origin predOrigin
}

// holds runs p on e, the candidate at the position it runs at, under
// binding b. ready is false while b does not bind the other variable of
// a two-variable predicate. err is the error of an inline value that
// fails to evaluate.
func (p *cellPred) holds(ec *evalCtx, b row, e cand) (held, ready bool, err error) {
	rv := p.c.scalar // null for a value no cell holds
	if p.val != nil {
		v, err := ec.eval(p.val, b)
		if err != nil {
			return false, true, err
		}
		rv, _ = cellValue(v) // null for a value no cell holds: equals nothing
	}
	le, re := e, e
	if p.pair {
		if le, ready = p.l.side(b, e); !ready {
			return false, false, nil
		}
		if re, ready = p.r.side(b, e); !ready {
			return false, false, nil
		}
	}
	switch {
	case p.never != "":
		return false, true, nil
	case p.isStr && le.node != 0:
		return ec.g.NodePropIsString(le.node, p.l.key, p.str), true, nil
	case p.isStr:
		return le.rel != 0 && ec.g.RelPropIsString(le.rel, p.l.key, p.str), true, nil
	case p.r.v != "":
		rv = p.r.read(ec.g, re)
	}
	return p.test(p.l.read(ec.g, le), rv), true, nil
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

// seeds reports whether p can seed an index lookup at its position: an =
// or IN with a value, not a second cell.
func (p *cellPred) seeds() bool { return (p.op == OpEq || p.op == OpIn) && p.r.v == "" }

// cellsHold runs a position's property tests on its candidate e, and
// reports whether none that is ready fails. err is an inline value's
// evaluation error.
func (m *matcher) cellsHold(preds []*cellPred, e cand) (bool, error) {
	for _, p := range preds {
		if held, ready, err := p.holds(m.ec, m.binding, e); err != nil || ready && !held {
			return false, err
		}
	}
	return true, nil
}

// cellValue is v as a stored cell would hold it: a scalar, or a list of
// them. ok is false for a value no cell holds: an entity, a map, a path,
// or a list holding one.
func cellValue(v Val) (graph.Value, bool) {
	if s, ok := v.Scalar(); ok {
		return s, true
	}
	l, ok := v.AsList()
	if !ok {
		return graph.Null(), false
	}
	elems := make([]graph.Value, len(l))
	for i, e := range l {
		if elems[i], ok = cellValue(e); !ok {
			return graph.Null(), false
		}
	}
	return graph.List(elems...), true
}

// inlinePred compiles the inline property `key: e` of the position that
// binds v (an `=` predicate).
func inlinePred(ec *evalCtx, v, key string, e Expr) cellPred {
	p := cellPred{origin: fromInline, op: OpEq, l: keyRef(ec.g, v, key)}
	if !p.l.known {
		p.never = fmt.Sprintf("unknown property key `%s`", key)
	}
	if !p.setConst(ec, e) {
		p.val = e
	}
	return p
}

// compileWhere compiles the clause's WHERE: a conjunct of a cell
// predicate's shape is a fromWhere predicate, one that can only seed an
// index lookup a seedOnly one, and filter is the rest that emit still
// evaluates (nil when nothing is left). Nothing is tested during the match
// unless every conjunct left cannot fail: then the whole WHERE stays at
// emit, and of its compiled conjuncts those that seed stay seeds. Each
// predicate is then listed on the node and relationship positions that
// bind one of its variables.
func (s *matchSpec) compileWhere(ec *evalCtx) {
	s.filter = s.where
	first, compiles := len(s.preds), true
	var rest Expr
	eachConjunct(s.where, func(e Expr) {
		if p, ok := compileConjunct(ec, s.patterns, e); ok {
			s.preds = append(s.preds, p)
			return
		}
		if p, ok := seedOf(s.patterns, e); ok {
			s.preds = append(s.preds, p)
		}
		if compiles = compiles && cannotFail(ec, s.patterns, e); rest == nil {
			rest = e
		} else {
			rest = &BinaryExpr{Op: OpAnd, Left: rest, Right: e}
		}
	})
	tested := func(p cellPred) bool { return p.origin == fromWhere }
	if compiles && slices.ContainsFunc(s.preds[first:], tested) {
		s.filter = rest
	} else {
		s.preds = slices.DeleteFunc(s.preds, func(p cellPred) bool { return tested(p) && !p.seeds() })
		for i := first; i < len(s.preds); i++ {
			s.preds[i].origin = seedOnly
		}
	}
	for i := first; i < len(s.preds); i++ {
		p := &s.preds[i]
		reads := func(v string) bool { return v != "" && (v == p.l.v || v == p.r.v) }
		for j := range s.paths {
			for k := range s.paths[j].nodes {
				if n := &s.paths[j].nodes[k]; reads(n.Var) && tested(*p) {
					n.preds = append(n.preds, p)
				}
				if n := &s.paths[j].nodes[k]; reads(n.Var) && p.seeds() {
					n.seeds = append(n.seeds, p)
				}
			}
			for k := range s.paths[j].rels {
				if r := &s.paths[j].rels[k]; reads(r.Var) && tested(*p) {
					r.preds = append(r.preds, p)
				}
			}
		}
	}
}

// eachConjunct calls visit for every top-level AND conjunct of e, left to
// right.
func eachConjunct(e Expr, visit func(Expr)) {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		eachConjunct(b.Left, visit)
		eachConjunct(b.Right, visit)
	} else if e != nil {
		visit(e)
	}
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
	p := cellPred{origin: fromWhere, conj: b, op: b.Op, l: l}
	if !l.known {
		p.never = fmt.Sprintf("unknown property key `%s`", l.name)
	}
	if r, ok := cellOf(ec.g, patterns, b.Right); ok && b.Op != OpIn {
		p.r, p.pair = r, r.v != l.v
		if !r.known && p.never == "" {
			p.never = fmt.Sprintf("unknown property key `%s`", r.name)
		}
		return p, true
	}
	return p, p.setConst(ec, b.Right)
}

// seedOf matches a WHERE conjunct that can seed an index lookup: `v.key =
// e`, `e = v.key` or `v.key IN e`, v a variable of the clause's patterns
// and e reading none of them, not even in a subquery's pattern.
func seedOf(patterns []PatternPath, e Expr) (cellPred, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != OpEq && b.Op != OpIn {
		return cellPred{}, false
	}
	bound := func(name string) bool { bound, _ := patternVarKind(patterns, name); return bound }
	for i, side := range [2][2]Expr{{b.Left, b.Right}, {b.Right, b.Left}} {
		pa, ok := side[0].(*PropAccess)
		if !ok || i > 0 && b.Op == OpIn {
			continue
		}
		reads := false
		freeVars(side[1], func(name string) { reads = reads || bound(name) })
		if v, ok := pa.Target.(*Variable); ok && bound(v.Name) && !reads {
			return cellPred{origin: seedOnly, conj: b, op: b.Op, l: cellRef{v: v.Name, name: pa.Key}, val: side[1]}, true
		}
	}
	return cellPred{}, false
}

// setConst compiles p's value from e, evaluated once, when e is a
// constant: a literal, a $parameter or a list of them that evaluates
// without error. It reports false when e is none, or when the conjunct
// must stay with the evaluator: an IN whose constant is no list, or an
// ordering against a value no cell holds (never for an `=`).
func (p *cellPred) setConst(ec *evalCtx, e Expr) bool {
	if !isConstant(e) {
		return false
	}
	c, err := ec.eval(e, nil)
	if err != nil {
		return false
	}
	p.c = c
	if p.op == OpIn {
		elems, err := listElems(c)
		if c.IsNull() {
			p.never = "IN null"
		} else if err != nil {
			return false // the evaluator's error stays in the WHERE
		}
		for _, e := range elems {
			if s, ok := cellValue(e); ok && !s.IsNull() {
				p.in = append(p.in, s)
			}
		}
		return true
	}
	cell, ok := cellValue(c)
	if _, scalar := c.Scalar(); !scalar && p.op != OpEq && p.op != OpNeq {
		return false
	} else if !scalar && ok {
		p.c = ScalarVal(cell)
	}
	switch s, isStr := cell.AsString(); {
	case c.IsNull():
		p.never = "compared with null"
	case !ok && p.op == OpEq:
		p.never = "compared with a value no property holds"
	case !ok:
		return false
	case isStr && p.op == OpEq:
		if x, param := e.(*Param); param {
			if _, supplied := ec.params[x.Name]; !supplied {
				break // planned (EXPLAIN) without its value
			}
		}
		if p.str, p.isStr = ec.g.Interner().Lookup(s); !p.isStr {
			p.never = fmt.Sprintf("unknown string %q", s)
		}
	}
	return true
}

// keyRef resolves v.key against g.
func keyRef(g *graph.Graph, v, key string) cellRef {
	id, known := g.KeyID(key)
	return cellRef{v: v, name: key, key: id, known: known}
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
	return keyRef(g, v.Name, pa.Key), true
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

// describe renders a WHERE conjunct for EXPLAIN, a parameter by name and
// a string constant quoted.
func (p *cellPred) describe() string {
	l := fmt.Sprintf("%s.%s %s ", p.l.v, p.l.name, cellOps[p.op])
	if p.r.v != "" {
		return l + p.r.v + "." + p.r.name
	}
	if x, ok := p.conj.Right.(*Param); ok {
		return l + "$" + x.Name
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
