package cypher

import "fmt"

// AsOfGeneration resolves a query's trailing `AS OF <gen>` suffix to a
// generation number. ok is false when the query carries no suffix. The
// expression must be an integer literal or a $parameter bound to a
// positive integer — AS OF is resolved before a graph is even acquired,
// so no richer expression context exists yet.
func AsOfGeneration(q *Query, opts ExecOptions) (gen uint64, ok bool, err error) {
	if q == nil || q.AsOf == nil {
		return 0, false, nil
	}
	fail := func(format string, args ...any) (uint64, bool, error) {
		return 0, false, &Error{Msg: "AS OF: " + fmt.Sprintf(format, args...)}
	}
	switch e := q.AsOf.(type) {
	case *Literal:
		if e.Kind != LitInt {
			return fail("generation must be an integer literal")
		}
		if e.I <= 0 {
			return fail("generation must be positive, got %d", e.I)
		}
		return uint64(e.I), true, nil
	case *Param:
		if v, found := opts.ParamVals[e.Name]; found {
			if s, isScalar := v.Scalar(); isScalar {
				if n, isInt := s.AsInt(); isInt {
					if n <= 0 {
						return fail("generation must be positive, got %d", n)
					}
					return uint64(n), true, nil
				}
			}
			return fail("parameter $%s must be a positive integer", e.Name)
		}
		return fail("parameter $%s is not bound", e.Name)
	default:
		return fail("generation must be an integer literal or $parameter")
	}
}
