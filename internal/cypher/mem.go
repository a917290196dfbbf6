package cypher

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Per-query memory governance. A public instance executes arbitrary user
// Cypher, and the materialization points of this engine — match-row
// emission, UNWIND expansion, projection, aggregation-map growth, collect()
// buffers, ORDER BY sort keys, CALL row streams — are where a pathological
// query turns into an OOM kill for every other client. ExecOptions.
// MaxMemBytes arms a per-query tracker charged at each of those points;
// exceeding it aborts the query with a typed error long before the process
// RSS approaches the budget.
//
// The accounting is a deliberate over-approximation: charges are cumulative
// and never refunded (a row counted at match time is counted again if it
// survives into projection and again into a sort buffer), and sizes are
// modelled from the value shapes rather than measured from the allocator.
// Both choices keep the hot path to one atomic add while preserving the
// property that matters: real allocations are bounded by a small constant
// multiple of the configured budget.

// ErrMemoryBudget is the sentinel cause of queries aborted by
// ExecOptions.MaxMemBytes; test with errors.Is.
var ErrMemoryBudget = errors.New("query memory budget exceeded")

// ErrQueryPanic is the sentinel cause of queries that panicked during
// execution. Exec recovers the panic (in the serial path and in every
// morsel/fan-out worker) and returns it as a regular error wrapping this
// sentinel, so a crashing plan cannot take the process down; test with
// errors.Is.
var ErrQueryPanic = errors.New("query execution panicked")

// memTracker is the shared per-query accountant. One tracker is created per
// Exec call and charged from every worker goroutine, so the counter is a
// single atomic.
type memTracker struct {
	limit int64
	used  atomic.Int64
}

func newMemTracker(limit int64) *memTracker {
	if limit <= 0 {
		return nil
	}
	return &memTracker{limit: limit}
}

// charge accounts n bytes and fails once the cumulative total passes the
// budget. A nil tracker (no budget) charges nothing.
func (t *memTracker) charge(n int64) error {
	if t == nil {
		return nil
	}
	if t.used.Add(n) > t.limit {
		return &Error{
			Msg:   fmt.Sprintf("query exceeded its memory budget (%d bytes); narrow the pattern, lower LIMIT, or raise max_query_mem", t.limit),
			Cause: ErrMemoryBudget,
		}
	}
	return nil
}

// chargeRow accounts one materialized row (binding slice clone).
func (ex *executor) chargeRow(r row) error {
	if ex.mem == nil {
		return nil
	}
	return ex.mem.charge(rowBytes(r))
}

// chargeVal accounts one retained value (aggregation buffers, UNWIND
// elements, sort keys).
func (ex *executor) chargeVal(v Val) error {
	if ex.mem == nil {
		return nil
	}
	return ex.mem.charge(valBytes(v))
}

// rowOverheadBytes models the slice header + per-binding struct overhead of
// a materialized row.
const rowOverheadBytes = 48

func rowBytes(r row) int64 {
	n := int64(rowOverheadBytes)
	for i := range r {
		n += int64(len(r[i].name)) + valBytes(r[i].val)
	}
	return n
}

// valBytes approximates the retained size of a value. Node/rel values are
// references into the shared store (the row holds an ID, not the entity),
// so they cost a word, while lists, maps, paths and strings cost what they
// carry.
func valBytes(v Val) int64 {
	switch v.kind {
	case ValScalar:
		n := int64(32) // Value struct
		if s, ok := v.scalar.AsString(); ok {
			n += int64(len(s))
		} else if l, ok := v.scalar.AsList(); ok {
			for _, e := range l {
				n += 32
				if s, ok := e.AsString(); ok {
					n += int64(len(s))
				}
			}
		}
		return n
	case ValList:
		n := int64(24)
		for _, e := range v.ext.list {
			n += valBytes(e)
		}
		return n
	case ValPath:
		return int64(48 + 8*(len(v.ext.nodes)+len(v.ext.rels)))
	case ValMap:
		n := int64(48)
		for k, e := range v.ext.m {
			n += int64(len(k)) + valBytes(e)
		}
		return n
	default: // node, rel, null
		return 16
	}
}

// recoverPanic converts a recovered panic value into the typed error the
// serving layer maps to a 500 and a plan quarantine. The panic value is
// preserved in the message; the stack is intentionally not shipped to
// clients (the server logs it via Logf when configured).
func panicError(p any) error {
	return &Error{Msg: fmt.Sprintf("query panicked: %v", p), Cause: ErrQueryPanic}
}
