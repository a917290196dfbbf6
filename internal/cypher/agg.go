package cypher

import (
	"math"
	"sort"

	"iyp/internal/graph"
)

// aggState accumulates one aggregate function call over one group.
type aggState struct {
	fn *FnCall

	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	vals    []Val // collect / percentile / stdev
	minV    Val
	maxV    Val
	hasMin  bool
	seen    map[string]bool // DISTINCT
	pct     float64         // percentile argument
	pctSet  bool
}

func newAggState(fn *FnCall) *aggState {
	st := &aggState{fn: fn, minV: NullVal(), maxV: NullVal()}
	if fn.Distinct {
		st.seen = map[string]bool{}
	}
	return st
}

// add folds the next input row into the state. key is the caller's scratch
// buffer for DISTINCT keys, reused across states and rows.
func (st *aggState) add(ec *evalCtx, r row, fn *FnCall, key *[]byte) error {
	if fn.Star { // count(*)
		st.count++
		return nil
	}
	if len(fn.Args) == 0 {
		return &Error{Msg: fn.Name + "() requires an argument"}
	}
	v, err := ec.eval(fn.Args[0], r)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip nulls
	}
	if st.seen != nil {
		*key = v.appendKey((*key)[:0])
		if st.seen[string(*key)] {
			return nil
		}
		if err := st.chargeBuf(ec, int64(len(*key))+16); err != nil {
			return err
		}
		st.seen[string(*key)] = true
	}
	switch fn.Name {
	case "count":
		st.count++
	case "collect":
		if err := st.chargeBuf(ec, valBytes(v)); err != nil {
			return err
		}
		st.vals = append(st.vals, v)
	case "sum", "avg":
		st.count++
		if i, ok := v.AsInt(); ok && !st.isFloat {
			st.sumI += i
		} else if f, ok := v.AsFloat(); ok {
			if !st.isFloat {
				st.isFloat = true
				st.sumF = float64(st.sumI)
			}
			st.sumF += f
		} else {
			return &Error{Msg: fn.Name + "() expects numeric input"}
		}
	case "min", "max":
		if !st.hasMin {
			st.minV, st.maxV, st.hasMin = v, v, true
			return nil
		}
		if compareVals(v, st.minV) < 0 {
			st.minV = v
		}
		if compareVals(v, st.maxV) > 0 {
			st.maxV = v
		}
	case "percentilecont", "percentiledisc":
		if !st.pctSet {
			if len(fn.Args) != 2 {
				return &Error{Msg: fn.Name + "() expects (expr, percentile)"}
			}
			pv, err := ec.eval(fn.Args[1], r)
			if err != nil {
				return err
			}
			p, ok := pv.AsFloat()
			if !ok || p < 0 || p > 1 {
				return &Error{Msg: fn.Name + "() percentile must be in [0, 1]"}
			}
			st.pct = p
			st.pctSet = true
		}
		if err := st.chargeBuf(ec, valBytes(v)); err != nil {
			return err
		}
		st.vals = append(st.vals, v)
	case "stdev", "stdevp":
		if err := st.chargeBuf(ec, valBytes(v)); err != nil {
			return err
		}
		st.vals = append(st.vals, v)
	default:
		return &Error{Msg: "unknown aggregate " + fn.Name + "()"}
	}
	return nil
}

// chargeBuf accounts growth of this state's retained buffers (collect /
// percentile / stdev values, DISTINCT keys) against the query's memory
// budget, when one is armed.
func (st *aggState) chargeBuf(ec *evalCtx, n int64) error {
	if ec == nil || ec.ex == nil || ec.ex.mem == nil {
		return nil
	}
	return ec.ex.mem.charge(n)
}

// finish produces the aggregate result.
func (st *aggState) finish() (Val, error) {
	switch st.fn.Name {
	case "count":
		return ScalarVal(graph.Int(st.count)), nil
	case "collect":
		return ListVal(st.vals), nil
	case "sum":
		if st.isFloat {
			return ScalarVal(graph.Float(st.sumF)), nil
		}
		return ScalarVal(graph.Int(st.sumI)), nil
	case "avg":
		if st.count == 0 {
			return NullVal(), nil
		}
		total := st.sumF
		if !st.isFloat {
			total = float64(st.sumI)
		}
		return ScalarVal(graph.Float(total / float64(st.count))), nil
	case "min":
		return st.minV, nil
	case "max":
		return st.maxV, nil
	case "percentilecont", "percentiledisc":
		return st.percentile()
	case "stdev", "stdevp":
		return st.stdev()
	}
	return NullVal(), &Error{Msg: "unknown aggregate " + st.fn.Name + "()"}
}

func (st *aggState) floatVals() ([]float64, error) {
	fs := make([]float64, 0, len(st.vals))
	for _, v := range st.vals {
		f, ok := v.AsFloat()
		if !ok {
			return nil, &Error{Msg: st.fn.Name + "() expects numeric input"}
		}
		fs = append(fs, f)
	}
	sort.Float64s(fs)
	return fs, nil
}

func (st *aggState) percentile() (Val, error) {
	fs, err := st.floatVals()
	if err != nil {
		return NullVal(), err
	}
	if len(fs) == 0 {
		return NullVal(), nil
	}
	if st.fn.Name == "percentiledisc" {
		idx := int(math.Ceil(st.pct*float64(len(fs)))) - 1
		if idx < 0 {
			idx = 0
		}
		return ScalarVal(graph.Float(fs[idx])), nil
	}
	// Linear interpolation (percentileCont).
	pos := st.pct * float64(len(fs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ScalarVal(graph.Float(fs[lo])), nil
	}
	frac := pos - float64(lo)
	return ScalarVal(graph.Float(fs[lo]*(1-frac) + fs[hi]*frac)), nil
}

func (st *aggState) stdev() (Val, error) {
	fs, err := st.floatVals()
	if err != nil {
		return NullVal(), err
	}
	n := float64(len(fs))
	if n == 0 {
		return ScalarVal(graph.Float(0)), nil
	}
	var mean float64
	for _, f := range fs {
		mean += f
	}
	mean /= n
	var ss float64
	for _, f := range fs {
		ss += (f - mean) * (f - mean)
	}
	div := n - 1 // sample stdev
	if st.fn.Name == "stdevp" {
		div = n
	}
	if div <= 0 {
		return ScalarVal(graph.Float(0)), nil
	}
	return ScalarVal(graph.Float(math.Sqrt(ss / div))), nil
}
