package cypher

import (
	"math"
	"strings"

	"iyp/internal/graph"
)

// evalCtx carries everything expression evaluation needs.
type evalCtx struct {
	g      *graph.Graph
	params map[string]Val
	keys   []uint32  // the statement's PropAccess keys resolved against g (resolveKeys)
	ex     *executor // for EXISTS/COUNT subqueries; may be nil in tests
	// unknownParams makes a $parameter that was not supplied evaluate to a
	// placeholder scalar instead of failing: plans are made (EXPLAIN, cost
	// estimation) before anyone has to supply it.
	unknownParams bool
}

// eval evaluates e against bindings r.
func (c *evalCtx) eval(e Expr, r row) (Val, error) {
	switch x := e.(type) {
	case *Literal:
		switch x.Kind {
		case LitNull:
			return NullVal(), nil
		case LitBool:
			return ScalarVal(graph.Bool(x.B)), nil
		case LitInt:
			return ScalarVal(graph.Int(x.I)), nil
		case LitFloat:
			return ScalarVal(graph.Float(x.F)), nil
		case LitString:
			return ScalarVal(graph.String(x.S)), nil
		}
	case *Variable:
		v, ok := r.get(x.Name)
		if !ok {
			return NullVal(), &Error{Msg: "variable `" + x.Name + "` not defined"}
		}
		return v, nil
	case *Param:
		v, ok := c.params[x.Name]
		if !ok && c.unknownParams {
			return ScalarVal(graph.String("$" + x.Name)), nil
		}
		if !ok {
			return NullVal(), &Error{Msg: "parameter $" + x.Name + " not provided"}
		}
		return v, nil
	case *PropAccess:
		t, err := c.eval(x.Target, r)
		if err != nil {
			return NullVal(), err
		}
		return c.propOf(t, x)
	case *MapExpr:
		m := make(map[string]Val, len(x.Keys))
		for i, k := range x.Keys {
			v, err := c.eval(x.Exprs[i], r)
			if err != nil {
				return NullVal(), err
			}
			m[k] = v
		}
		return MapVal(m), nil
	case *ListExpr:
		vs := make([]Val, len(x.Elems))
		for i, e := range x.Elems {
			v, err := c.eval(e, r)
			if err != nil {
				return NullVal(), err
			}
			vs[i] = v
		}
		return ListVal(vs), nil
	case *IndexExpr:
		return c.evalIndex(x, r)
	case *UnaryExpr:
		v, err := c.eval(x.X, r)
		if err != nil {
			return NullVal(), err
		}
		if x.Not {
			b, null := truth(v)
			if null {
				return NullVal(), nil
			}
			return ScalarVal(graph.Bool(!b)), nil
		}
		if v.IsNull() {
			return NullVal(), nil
		}
		if i, ok := v.AsInt(); ok {
			return ScalarVal(graph.Int(-i)), nil
		}
		if f, ok := v.AsFloat(); ok {
			return ScalarVal(graph.Float(-f)), nil
		}
		return NullVal(), &Error{Msg: "cannot negate non-numeric value"}
	case *IsNullExpr:
		v, err := c.eval(x.X, r)
		if err != nil {
			return NullVal(), err
		}
		isNull := v.IsNull()
		if x.Not {
			isNull = !isNull
		}
		return ScalarVal(graph.Bool(isNull)), nil
	case *BinaryExpr:
		return c.evalBinary(x, r)
	case *CaseExpr:
		return c.evalCase(x, r)
	case *FnCall:
		if isAggregateFn(x.Name) {
			return NullVal(), &Error{Msg: "aggregate function " + x.Name + "() used outside of an aggregating projection"}
		}
		return c.callFn(x, r)
	case *ListComprehension:
		return c.evalListComprehension(x, r)
	case *ExistsExpr:
		if c.ex == nil {
			return NullVal(), &Error{Msg: "EXISTS subquery not supported in this context"}
		}
		rows, err := c.ex.matchOnce(x.Patterns, x.Where, r, 1)
		if err != nil {
			return NullVal(), err
		}
		return ScalarVal(graph.Bool(len(rows) > 0)), nil
	case *CountExpr:
		if c.ex == nil {
			return NullVal(), &Error{Msg: "COUNT subquery not supported in this context"}
		}
		rows, err := c.ex.matchOnce(x.Patterns, x.Where, r, -1)
		if err != nil {
			return NullVal(), err
		}
		return ScalarVal(graph.Int(int64(len(rows)))), nil
	}
	return NullVal(), &Error{Msg: "unsupported expression"}
}

func (c *evalCtx) propOf(t Val, x *PropAccess) (Val, error) {
	var key uint32 // the resolved key id plus one; 0 reads by name
	if x.slot > 0 && x.slot <= len(c.keys) {
		key = c.keys[x.slot-1]
	}
	switch t.Kind() {
	case ValNode:
		id, _ := t.AsNode()
		if key == 0 {
			return ScalarVal(c.g.NodeProp(id, x.Key)), nil
		}
		return ScalarVal(c.g.NodePropByID(id, key-1)), nil
	case ValRel:
		id, _ := t.AsRel()
		if key == 0 {
			return ScalarVal(c.g.RelProp(id, x.Key)), nil
		}
		return ScalarVal(c.g.RelPropByID(id, key-1)), nil
	case ValMap:
		m, _ := t.AsMap()
		if v, ok := m[x.Key]; ok {
			return v, nil
		}
		return NullVal(), nil
	case ValScalar:
		if t.IsNull() {
			return NullVal(), nil
		}
	}
	return NullVal(), &Error{Msg: "property access on non-entity value"}
}

func (c *evalCtx) evalIndex(x *IndexExpr, r row) (Val, error) {
	t, err := c.eval(x.Target, r)
	if err != nil {
		return NullVal(), err
	}
	if t.IsNull() {
		return NullVal(), nil
	}
	elems, err := listElems(t)
	if err != nil {
		// Map subscript m["key"].
		if m, ok := t.AsMap(); ok && !x.IsSlice {
			iv, err := c.eval(x.Index, r)
			if err != nil {
				return NullVal(), err
			}
			if s, ok := iv.AsString(); ok {
				if v, ok := m[s]; ok {
					return v, nil
				}
				return NullVal(), nil
			}
			return NullVal(), &Error{Msg: "map subscript requires a string key"}
		}
		return NullVal(), err
	}
	if x.IsSlice {
		lo, hi := 0, len(elems)
		if x.SliceLo != nil {
			v, err := c.eval(x.SliceLo, r)
			if err != nil {
				return NullVal(), err
			}
			i, ok := v.AsInt()
			if !ok {
				return NullVal(), &Error{Msg: "slice bound must be an integer"}
			}
			lo = normIndex(int(i), len(elems))
		}
		if x.SliceHi != nil {
			v, err := c.eval(x.SliceHi, r)
			if err != nil {
				return NullVal(), err
			}
			i, ok := v.AsInt()
			if !ok {
				return NullVal(), &Error{Msg: "slice bound must be an integer"}
			}
			hi = normIndex(int(i), len(elems))
		}
		lo = clamp(lo, 0, len(elems))
		hi = clamp(hi, 0, len(elems))
		if lo > hi {
			lo = hi
		}
		return ListVal(append([]Val(nil), elems[lo:hi]...)), nil
	}
	iv, err := c.eval(x.Index, r)
	if err != nil {
		return NullVal(), err
	}
	if iv.IsNull() {
		return NullVal(), nil
	}
	i, ok := iv.AsInt()
	if !ok {
		return NullVal(), &Error{Msg: "list subscript must be an integer"}
	}
	idx := normIndex(int(i), len(elems))
	if idx < 0 || idx >= len(elems) {
		return NullVal(), nil
	}
	return elems[idx], nil
}

func normIndex(i, n int) int {
	if i < 0 {
		return n + i
	}
	return i
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// listElems views a ValList or scalar list as []Val.
func listElems(v Val) ([]Val, error) {
	if l, ok := v.AsList(); ok {
		return l, nil
	}
	if sc, ok := v.Scalar(); ok {
		if sl, ok := sc.AsList(); ok {
			out := make([]Val, len(sl))
			for i, e := range sl {
				out[i] = ScalarVal(e)
			}
			return out, nil
		}
	}
	return nil, &Error{Msg: "expected a list value"}
}

// truth evaluates a value as a Cypher boolean: (value, isNull).
func truth(v Val) (bool, bool) {
	if v.IsNull() {
		return false, true
	}
	if b, ok := v.AsBool(); ok {
		return b, false
	}
	// Non-boolean, non-null values are errors in strict Cypher; treat as
	// false to keep filters total.
	return false, false
}

func boolVal(b bool) Val { return ScalarVal(graph.Bool(b)) }

func (c *evalCtx) evalBinary(x *BinaryExpr, r row) (Val, error) {
	// Short-circuit logical operators with three-valued logic.
	switch x.Op {
	case OpAnd:
		lv, err := c.eval(x.Left, r)
		if err != nil {
			return NullVal(), err
		}
		lb, lnull := truth(lv)
		if !lnull && !lb {
			return boolVal(false), nil
		}
		rv, err := c.eval(x.Right, r)
		if err != nil {
			return NullVal(), err
		}
		rb, rnull := truth(rv)
		if !rnull && !rb {
			return boolVal(false), nil
		}
		if lnull || rnull {
			return NullVal(), nil
		}
		return boolVal(true), nil
	case OpOr:
		lv, err := c.eval(x.Left, r)
		if err != nil {
			return NullVal(), err
		}
		lb, lnull := truth(lv)
		if !lnull && lb {
			return boolVal(true), nil
		}
		rv, err := c.eval(x.Right, r)
		if err != nil {
			return NullVal(), err
		}
		rb, rnull := truth(rv)
		if !rnull && rb {
			return boolVal(true), nil
		}
		if lnull || rnull {
			return NullVal(), nil
		}
		return boolVal(false), nil
	case OpXor:
		lv, err := c.eval(x.Left, r)
		if err != nil {
			return NullVal(), err
		}
		rv, err := c.eval(x.Right, r)
		if err != nil {
			return NullVal(), err
		}
		lb, lnull := truth(lv)
		rb, rnull := truth(rv)
		if lnull || rnull {
			return NullVal(), nil
		}
		return boolVal(lb != rb), nil
	}

	lv, err := c.eval(x.Left, r)
	if err != nil {
		return NullVal(), err
	}
	rv, err := c.eval(x.Right, r)
	if err != nil {
		return NullVal(), err
	}

	switch x.Op {
	case OpEq, OpNeq:
		if lv.IsNull() || rv.IsNull() {
			return NullVal(), nil
		}
		eq := lv.Equal(rv)
		if x.Op == OpNeq {
			eq = !eq
		}
		return boolVal(eq), nil
	case OpLt, OpLe, OpGt, OpGe:
		if lv.IsNull() || rv.IsNull() {
			return NullVal(), nil
		}
		ls, lok := lv.Scalar()
		rs, rok := rv.Scalar()
		if !lok || !rok {
			return NullVal(), nil
		}
		cmp, comparable := ls.Compare(rs)
		if !comparable {
			return NullVal(), nil
		}
		var b bool
		switch x.Op {
		case OpLt:
			b = cmp < 0
		case OpLe:
			b = cmp <= 0
		case OpGt:
			b = cmp > 0
		case OpGe:
			b = cmp >= 0
		}
		return boolVal(b), nil
	case OpStartsWith, OpEndsWith, OpContains:
		if lv.IsNull() || rv.IsNull() {
			return NullVal(), nil
		}
		ls, lok := lv.AsString()
		rs, rok := rv.AsString()
		if !lok || !rok {
			return NullVal(), nil
		}
		var b bool
		switch x.Op {
		case OpStartsWith:
			b = strings.HasPrefix(ls, rs)
		case OpEndsWith:
			b = strings.HasSuffix(ls, rs)
		case OpContains:
			b = strings.Contains(ls, rs)
		}
		return boolVal(b), nil
	case OpIn:
		if lv.IsNull() || rv.IsNull() {
			return NullVal(), nil
		}
		elems, err := listElems(rv)
		if err != nil {
			return NullVal(), err
		}
		sawNull := false
		for _, e := range elems {
			if e.IsNull() {
				sawNull = true
				continue
			}
			if lv.Equal(e) {
				return boolVal(true), nil
			}
		}
		if sawNull {
			return NullVal(), nil
		}
		return boolVal(false), nil
	case OpAdd:
		return addVals(lv, rv)
	case OpSub, OpMul, OpDiv, OpMod, OpPow:
		return arith(x.Op, lv, rv)
	}
	return NullVal(), &Error{Msg: "unsupported binary operator"}
}

func addVals(lv, rv Val) (Val, error) {
	if lv.IsNull() || rv.IsNull() {
		return NullVal(), nil
	}
	// String concatenation.
	if ls, ok := lv.AsString(); ok {
		if rs, ok := rv.AsString(); ok {
			return ScalarVal(graph.String(ls + rs)), nil
		}
		if ri, ok := rv.AsInt(); ok {
			_ = ri
			rs, _ := rv.Scalar()
			return ScalarVal(graph.String(ls + rs.String())), nil
		}
	}
	// List concatenation / append.
	if ll, err := listElems(lv); err == nil {
		if rl, err := listElems(rv); err == nil {
			return ListVal(append(append([]Val(nil), ll...), rl...)), nil
		}
		return ListVal(append(append([]Val(nil), ll...), rv)), nil
	}
	return arith(OpAdd, lv, rv)
}

func arith(op BinOp, lv, rv Val) (Val, error) {
	if lv.IsNull() || rv.IsNull() {
		return NullVal(), nil
	}
	li, lInt := lv.AsInt()
	ri, rInt := rv.AsInt()
	if lInt && rInt && op != OpPow {
		switch op {
		case OpAdd:
			return ScalarVal(graph.Int(li + ri)), nil
		case OpSub:
			return ScalarVal(graph.Int(li - ri)), nil
		case OpMul:
			return ScalarVal(graph.Int(li * ri)), nil
		case OpDiv:
			if ri == 0 {
				return NullVal(), &Error{Msg: "division by zero"}
			}
			return ScalarVal(graph.Int(li / ri)), nil
		case OpMod:
			if ri == 0 {
				return NullVal(), &Error{Msg: "division by zero"}
			}
			return ScalarVal(graph.Int(li % ri)), nil
		}
	}
	lf, lok := lv.AsFloat()
	rf, rok := rv.AsFloat()
	if !lok || !rok {
		return NullVal(), &Error{Msg: "arithmetic on non-numeric value"}
	}
	switch op {
	case OpAdd:
		return ScalarVal(graph.Float(lf + rf)), nil
	case OpSub:
		return ScalarVal(graph.Float(lf - rf)), nil
	case OpMul:
		return ScalarVal(graph.Float(lf * rf)), nil
	case OpDiv:
		if rf == 0 {
			return NullVal(), &Error{Msg: "division by zero"}
		}
		return ScalarVal(graph.Float(lf / rf)), nil
	case OpMod:
		return ScalarVal(graph.Float(math.Mod(lf, rf))), nil
	case OpPow:
		return ScalarVal(graph.Float(math.Pow(lf, rf))), nil
	}
	return NullVal(), &Error{Msg: "unsupported arithmetic operator"}
}

func (c *evalCtx) evalCase(x *CaseExpr, r row) (Val, error) {
	if x.Operand != nil {
		op, err := c.eval(x.Operand, r)
		if err != nil {
			return NullVal(), err
		}
		for i, w := range x.Whens {
			wv, err := c.eval(w, r)
			if err != nil {
				return NullVal(), err
			}
			if !op.IsNull() && !wv.IsNull() && op.Equal(wv) {
				return c.eval(x.Thens[i], r)
			}
		}
	} else {
		for i, w := range x.Whens {
			wv, err := c.eval(w, r)
			if err != nil {
				return NullVal(), err
			}
			if b, null := truth(wv); !null && b {
				return c.eval(x.Thens[i], r)
			}
		}
	}
	if x.Else != nil {
		return c.eval(x.Else, r)
	}
	return NullVal(), nil
}

func (c *evalCtx) evalListComprehension(x *ListComprehension, r row) (Val, error) {
	src, err := c.eval(x.Source, r)
	if err != nil {
		return NullVal(), err
	}
	if src.IsNull() {
		return NullVal(), nil
	}
	elems, err := listElems(src)
	if err != nil {
		return NullVal(), err
	}
	inner := r.clone()
	var out []Val
	for _, e := range elems {
		inner.set(x.Var, e)
		if x.Where != nil {
			wv, err := c.eval(x.Where, inner)
			if err != nil {
				return NullVal(), err
			}
			if b, null := truth(wv); null || !b {
				continue
			}
		}
		if x.Proj != nil {
			pv, err := c.eval(x.Proj, inner)
			if err != nil {
				return NullVal(), err
			}
			out = append(out, pv)
		} else {
			out = append(out, e)
		}
	}
	return ListVal(out), nil
}
