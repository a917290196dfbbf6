package cypher

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"iyp/internal/graph"
)

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]Val

	// Truncated reports that rows were dropped because the query hit an
	// ExecOptions.MaxRows budget. Rows trimmed by an explicit LIMIT do
	// not count as truncation.
	Truncated bool

	// Write-summary counters (CREATE/MERGE/SET/DELETE queries).
	NodesCreated int
	RelsCreated  int
	PropsSet     int
	NodesDeleted int
	RelsDeleted  int

	g *graph.Graph
}

type executor struct {
	g       *graph.Graph
	ec      *evalCtx
	res     *Result
	ctx     context.Context
	q       *Query      // the UNION branch being executed (writes in it keep MATCH clauses unsplit)
	budget  int         // max final result rows (0 = unlimited)
	par     int         // resolved worker budget (>= 1)
	ticks   int         // cooperative-cancellation tick counter (single-threaded paths)
	mem     *memTracker // per-query memory accountant (nil = no budget)
	resolve GenResolver // generation pinning for procedures (may be nil)
}

// tickMask controls how often cooperative loops poll ctx.Err(): every
// (tickMask+1) iterations. Cheap enough for the row loops it guards while
// keeping deadline overshoot in the microsecond range.
const tickMask = 255

// tick is called once per row in the executor's single-threaded loops
// (aggregation, projection, UNWIND, sequential MATCH input). It polls the
// context every tickMask+1 calls.
func (ex *executor) tick() error {
	ex.ticks++
	if ex.ticks&tickMask == 0 {
		return ctxErr(ex.ctx)
	}
	return nil
}

// ctxErr converts a context failure into a *Error wrapping the cause, so
// callers can errors.Is against context.DeadlineExceeded / Canceled.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return &Error{Msg: "query interrupted: " + err.Error(), Cause: err}
	}
	return nil
}

// ExecOptions control query execution.
type ExecOptions struct {
	// ParamVals provides $parameter values (may be nil) in the engine's
	// runtime representation, which unlike graph.Value can carry maps and
	// nested lists (use ScalarVal for a graph.Value, ValOf for native Go
	// values). Execution only reads the map.
	ParamVals map[string]Val
	// MaxRows, when > 0, bounds the number of result rows. Where the
	// query shape allows it (final RETURN without aggregation, DISTINCT
	// or ORDER BY), enumeration stops early instead of trimming a fully
	// materialized result. Result.Truncated reports whether rows were
	// dropped.
	MaxRows int
	// Parallelism bounds the worker count for morsel-parallel MATCH
	// execution: 0 uses GOMAXPROCS, 1 forces serial execution, and any
	// larger value caps the pool at that many workers. Results are
	// byte-identical at every setting.
	Parallelism int
	// MaxMemBytes, when > 0, bounds the memory a query may materialize
	// across row emission, UNWIND expansion, projection, aggregation
	// buffers, sort keys and CALL streams. A query passing the budget
	// aborts with an error wrapping ErrMemoryBudget. The accounting is a
	// conservative cumulative over-approximation (see mem.go), so real
	// allocations stay bounded by a small multiple of the budget.
	MaxMemBytes int64
	// GenResolver, when non-nil, lets procedures pin other graph
	// generations than the one the query runs against (temporal.diff
	// compares two). It is passed through to ProcContext.Resolve; the
	// engine itself never calls it.
	GenResolver GenResolver
}

// Run parses and executes src against g with no deadline. params provides
// $parameter values (may be nil).
func Run(g *graph.Graph, src string, params map[string]graph.Value) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]Val, len(params))
	for k, v := range params {
		vals[k] = ScalarVal(v)
	}
	return Exec(context.Background(), g, q, ExecOptions{ParamVals: vals})
}

// Exec executes an already-parsed query under ctx with the given options.
// The same *Query may be executed many times (and concurrently) without
// re-parsing; execution never mutates the parsed tree. Cancellation and
// deadlines are honoured cooperatively inside the match, aggregation and
// projection loops, so a pathological query stops within microseconds of
// the context expiring.
//
// Exec never panics: a panic anywhere in execution (including inside
// registered CALL procedures and parallel match workers) is recovered and
// returned as an error wrapping ErrQueryPanic, so one crashing plan cannot
// terminate a process serving other queries.
func Exec(ctx context.Context, g *graph.Graph, q *Query, opts ExecOptions) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, panicError(p)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// A frozen graph is a published MVCC generation: write clauses must go
	// through a writer transaction against a mutable clone, never a
	// snapshot. Catch it here so the mistake surfaces as a query error
	// instead of a store panic deep in a SET/CREATE handler.
	if g.Frozen() && q.IsWrite() {
		return nil, &Error{Msg: "write query against a read-only snapshot (route writes through DB.Update / DB.Query on the live store)"}
	}
	// With UNION branches the budget cannot be pushed into a branch
	// (dedup across branches may need more input rows than it keeps), so
	// it is applied to the merged result only.
	branchBudget := opts.MaxRows
	if q.Next != nil {
		branchBudget = 0
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// One tracker for the whole statement: UNION branches share the budget.
	mem := newMemTracker(opts.MaxMemBytes)
	keys := resolveKeys(g, q)
	res, err = runSingle(ctx, g, q, keys, opts.ParamVals, branchBudget, par, mem, opts.GenResolver)
	if err != nil {
		return nil, err
	}
	for cur := q; cur.Next != nil; cur = cur.Next {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		next, err := runSingle(ctx, g, cur.Next, keys, opts.ParamVals, 0, par, mem, opts.GenResolver)
		if err != nil {
			return nil, err
		}
		if len(next.Columns) != len(res.Columns) {
			return nil, &Error{Msg: fmt.Sprintf("UNION column counts differ: %d vs %d", len(res.Columns), len(next.Columns))}
		}
		for i := range res.Columns {
			if res.Columns[i] != next.Columns[i] {
				return nil, &Error{Msg: "UNION column names differ: `" + res.Columns[i] + "` vs `" + next.Columns[i] + "`"}
			}
		}
		res.Rows = append(res.Rows, next.Rows...)
		if !cur.UnionAll {
			seen := map[string]bool{}
			dedup := res.Rows[:0]
			var key []byte
			for _, vals := range res.Rows {
				key = appendRowKey(key[:0], vals)
				if !seen[string(key)] {
					seen[string(key)] = true
					dedup = append(dedup, vals)
				}
			}
			res.Rows = dedup
		}
	}
	if opts.MaxRows > 0 && len(res.Rows) > opts.MaxRows {
		res.Rows = res.Rows[:opts.MaxRows]
		res.Truncated = true
	}
	return res, nil
}

// runSingle executes one UNION branch; keys is the statement's resolved
// key table.
func runSingle(ctx context.Context, g *graph.Graph, q *Query, keys []uint32, params map[string]Val, budget, par int, mem *memTracker, resolve GenResolver) (*Result, error) {
	if par < 1 {
		par = 1
	}
	ex := &executor{g: g, res: &Result{g: g}, ctx: ctx, q: q, budget: budget, par: par, mem: mem, resolve: resolve}
	ex.ec = &evalCtx{g: g, params: params, keys: keys, ex: ex}

	rows := []row{{}}
	var err error
	var atEmit *ReturnClause // the final RETURN, once a MATCH has evaluated it at emit
	for i, cl := range q.Clauses {
		last := i == len(q.Clauses)-1
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		switch c := cl.(type) {
		case *MatchClause:
			// When this MATCH directly feeds the final RETURN and the
			// projection is row-per-row (no aggregate, DISTINCT or ORDER
			// BY), an explicit LIMIT and/or the row budget caps how many
			// matches are needed — enumeration stops early.
			cap := -1
			if last2 := i == len(q.Clauses)-2; last2 && !c.Optional {
				if ret, ok := q.Clauses[i+1].(*ReturnClause); ok {
					cap = ex.returnRowCap(ret)
				}
			}
			atEmit = returnAtEmit(ex.ec, q, i)
			rows, err = ex.applyMatch(c, rows, cap, atEmit)
		case *WithClause:
			rows, err = ex.applyWith(c, rows)
		case *UnwindClause:
			rows, err = ex.applyUnwind(c, rows)
		case *CreateClause:
			rows, err = ex.applyCreate(c, rows)
		case *MergeClause:
			rows, err = ex.applyMerge(c, rows)
		case *SetClause:
			rows, err = ex.applySet(c, rows)
		case *DeleteClause:
			rows, err = ex.applyDelete(c, rows)
		case *RemoveClause:
			rows, err = ex.applyRemove(c, rows)
		case *CallClause:
			// Like MATCH, a CALL feeding a row-per-row final RETURN can
			// stop emitting at the row cap; a query-terminal CALL streams
			// straight into the result under the budget.
			cap := -1
			if !last {
				if i == len(q.Clauses)-2 {
					if ret, ok := q.Clauses[i+1].(*ReturnClause); ok {
						cap = ex.returnRowCap(ret)
					}
				}
				rows, err = ex.applyCall(c, rows, cap, false)
			} else {
				if ex.budget > 0 {
					cap = ex.budget + 1 // +1 detects truncation
				}
				if _, err := ex.applyCall(c, rows, cap, true); err != nil {
					return nil, err
				}
				return ex.res, nil
			}
		case *ReturnClause:
			if !last {
				return nil, &Error{Msg: "RETURN must be the final clause"}
			}
			if err := ex.applyReturn(c, rows, atEmit != nil); err != nil {
				return nil, err
			}
			return ex.res, nil
		default:
			return nil, &Error{Msg: fmt.Sprintf("unsupported clause %T", cl)}
		}
		if err != nil {
			return nil, err
		}
	}
	return ex.res, nil
}

// --- MATCH ---

// applyMatch runs one MATCH / OPTIONAL MATCH clause over its input rows
// through the driver (parallel.go), with the query's worker budget.
func (ex *executor) applyMatch(c *MatchClause, in []row, cap int, ret *ReturnClause) ([]row, error) {
	spec := newMatchSpec(ex.ec, ex.q, c.Patterns, c.Where, c.Optional)
	spec.ret = ret
	if len(in) > 0 {
		spec.memo = newMemoPlan(spec, in[0])
	}
	if spec.reason == "" && ex.par < 2 {
		countSerialStatic(reasonDisabled)
	} else {
		countSerialStatic(spec.reason)
	}
	return ex.runMatch(spec, in, cap, ex.par)
}

// matchOnce enumerates extensions of seed satisfying patterns (and where,
// if non-nil) for EXISTS {} / COUNT {} subqueries and MERGE: a one-row call
// into the driver. It stays on the calling goroutine — it is itself called
// from inside work items. limit < 0 means unlimited.
func (ex *executor) matchOnce(patterns []PatternPath, where Expr, seed row, limit int) ([]row, error) {
	return ex.runMatch(newMatchSpec(ex.ec, ex.q, patterns, where, false), []row{seed}, limit, 1)
}

// returnRowCap computes how many input rows the final RETURN clause can
// consume before further matches are provably discarded: skip + limit
// and/or skip + budget + 1 (the +1 detects truncation). It returns -1 when
// the projection is not row-per-row (aggregates, DISTINCT, ORDER BY) or
// when SKIP/LIMIT are not statically evaluable, meaning no cap applies.
func (ex *executor) returnRowCap(c *ReturnClause) int {
	if c.Distinct || len(c.OrderBy) > 0 {
		return -1
	}
	for _, it := range c.Items {
		if containsAggregate(it.Expr) {
			return -1
		}
	}
	evalN := func(e Expr) (int, bool) {
		v, err := ex.ec.eval(e, row{})
		if err != nil {
			return 0, false
		}
		n, ok := v.AsInt()
		if !ok || n < 0 {
			return 0, false
		}
		return int(n), true
	}
	skip := 0
	if c.Skip != nil {
		n, ok := evalN(c.Skip)
		if !ok {
			return -1
		}
		skip = n
	}
	need := -1
	if c.Limit != nil {
		n, ok := evalN(c.Limit)
		if !ok {
			return -1
		}
		need = n
	}
	if ex.budget > 0 {
		if b := ex.budget + 1; need < 0 || b < need {
			need = b
		}
	}
	if need < 0 {
		return -1
	}
	return skip + need
}

// returnAtEmit returns the final RETURN that clause i of q, a MATCH, runs
// at emit, or nil. Its items must not fail on a match, so the first error
// in match order stays the unfused one. Executor and EXPLAIN both ask.
func returnAtEmit(ec *evalCtx, q *Query, i int) *ReturnClause {
	mc, ok := q.Clauses[i].(*MatchClause)
	if !ok || mc.Optional || i != len(q.Clauses)-2 {
		return nil
	}
	ret, ok := q.Clauses[i+1].(*ReturnClause)
	if !ok || ret.Star || len(ret.Items) == 0 {
		return nil
	}
	for j, it := range ret.Items {
		safe := false
		switch x := it.Expr.(type) {
		case *Literal:
			safe = true
		case *Param:
			_, safe = ec.params[x.Name]
			safe = safe || ec.unknownParams
		case *Variable:
			safe, _ = patternVarKind(mc.Patterns, x.Name)
		case *PropAccess:
			if v, ok := x.Target.(*Variable); ok {
				_, safe = patternVarKind(mc.Patterns, v.Name)
			}
		}
		if !safe || slices.ContainsFunc(ret.Items[:j], func(p ReturnItem) bool { return colName(p) == colName(it) }) {
			return nil
		}
	}
	for _, si := range ret.OrderBy { // ORDER BY keys must be output columns
		if v, ok := si.Expr.(*Variable); !ok || !slices.ContainsFunc(ret.Items, func(it ReturnItem) bool { return colName(it) == v.Name }) {
			return nil
		}
	}
	return ret
}

// patternVarKind reports whether patterns bind name, and whether only to
// nodes and single relationships, not a path or a variable-length list.
func patternVarKind(patterns []PatternPath, name string) (bound, entity bool) {
	entity = true
	for _, p := range patterns {
		list := p.Var == name || slices.ContainsFunc(p.Rels, func(r RelPattern) bool { return r.Var == name && r.VarLen })
		bound = bound || list || slices.ContainsFunc(p.Nodes, func(n NodePattern) bool { return n.Var == name }) ||
			slices.ContainsFunc(p.Rels, func(r RelPattern) bool { return r.Var == name })
		entity = entity && !list
	}
	return bound, bound && entity
}

func patternVars(patterns []PatternPath) []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, p := range patterns {
		add(p.Var)
		for _, n := range p.Nodes {
			add(n.Var)
		}
		for _, r := range p.Rels {
			add(r.Var)
		}
	}
	return names
}

// --- UNWIND ---

func (ex *executor) applyUnwind(c *UnwindClause, in []row) ([]row, error) {
	var out []row
	for _, r := range in {
		v, err := ex.ec.eval(c.Expr, r)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		elems, err := listElems(v)
		if err != nil {
			// UNWIND of a non-list treats the value as a singleton.
			elems = []Val{v}
		}
		for _, e := range elems {
			if err := ex.tick(); err != nil {
				return nil, err
			}
			nr := r.clone()
			nr.set(c.Alias, e)
			if err := ex.chargeRow(nr); err != nil {
				return nil, err
			}
			out = append(out, nr)
		}
	}
	return out, nil
}

// --- WITH / RETURN (projection) ---

func (ex *executor) applyWith(c *WithClause, in []row) ([]row, error) {
	items := c.Items
	if c.Star {
		items = append(starItems(in), items...)
	}
	projected, origs, _, err := ex.project(items, c.Distinct, in, false)
	if err != nil {
		return nil, err
	}
	if err := ex.orderRows(projected, origs, c.OrderBy); err != nil {
		return nil, err
	}
	if projected, err = ex.skipLimit(projected, c.Skip, c.Limit); err != nil {
		return nil, err
	}
	if c.Where != nil {
		var filtered []row
		for _, r := range projected {
			v, err := ex.ec.eval(c.Where, r)
			if err != nil {
				return nil, err
			}
			if b, null := truth(v); !null && b {
				filtered = append(filtered, r)
			}
		}
		projected = filtered
	}
	return projected, nil
}

func (ex *executor) applyReturn(c *ReturnClause, in []row, atEmit bool) error {
	items := c.Items
	if c.Star {
		items = append(starItems(in), items...)
	}
	if len(items) == 0 {
		return &Error{Msg: "RETURN requires at least one item"}
	}
	projected, origs, cols, err := ex.project(items, c.Distinct, in, atEmit)
	if err != nil {
		return err
	}
	if err := ex.orderRows(projected, origs, c.OrderBy); err != nil {
		return err
	}
	if projected, err = ex.skipLimit(projected, c.Skip, c.Limit); err != nil {
		return err
	}
	if ex.budget > 0 && len(projected) > ex.budget {
		projected = projected[:ex.budget]
		ex.res.Truncated = true
	}
	ex.res.Columns = cols
	ex.res.Rows = make([][]Val, len(projected))
	for i, r := range projected {
		ex.res.Rows[i] = make([]Val, len(r)) // a projected row holds its columns in order
		for j := range r {
			ex.res.Rows[i][j] = r[j].val
		}
	}
	return nil
}

func starItems(in []row) []ReturnItem {
	seen := map[string]bool{}
	var names []string
	for _, r := range in {
		for _, b := range r {
			if !seen[b.name] {
				seen[b.name] = true
				names = append(names, b.name)
			}
		}
	}
	sort.Strings(names)
	items := make([]ReturnItem, len(names))
	for i, n := range names {
		items[i] = ReturnItem{Expr: &Variable{Name: n}, Text: n}
	}
	return items
}

func colName(it ReturnItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Text
}

// project evaluates items over rows, aggregating if any item contains an
// aggregate function. It returns projected rows keyed by column name plus,
// for non-aggregating projections, the original input row of each
// projected row (for ORDER BY expressions referencing unprojected
// variables). With atEmit a MATCH has projected in already (returnAtEmit).
func (ex *executor) project(items []ReturnItem, distinct bool, in []row, atEmit bool) ([]row, []row, []string, error) {
	cols := make([]string, len(items))
	for i, it := range items {
		if cols[i] = colName(it); slices.Contains(cols[:i], cols[i]) {
			return nil, nil, nil, &Error{Msg: "duplicate column name `" + cols[i] + "` (use AS to disambiguate)"}
		}
	}
	if atEmit {
		return in, nil, cols, nil
	}
	if slices.ContainsFunc(items, func(it ReturnItem) bool { return containsAggregate(it.Expr) }) {
		projected, err := ex.aggregate(items, cols, in) // DISTINCT is moot: groups differ in their grouping columns
		return projected, nil, cols, err
	}
	projected, origs := make([]row, 0, len(in)), make([]row, 0, len(in))
	p := &projector{items: items, distinct: distinct}
	for _, r := range in {
		if err := ex.tick(); err != nil {
			return nil, nil, nil, err
		}
		if keep, err := ex.projectNext(p, r); err != nil {
			return nil, nil, nil, err
		} else if keep {
			projected, origs = append(projected, slices.Clone(p.row)), append(origs, r)
		}
	}
	return projected, origs, cols, nil
}

// projector projects rows one at a time into reused scratch, for project
// and for the MATCH driver's emit (returnAtEmit).
type projector struct {
	items    []ReturnItem
	distinct bool
	seen     map[string]struct{} // keys of the rows kept under DISTINCT
	row      row                 // the row last projected
	key      []byte              // its DISTINCT key
}

// projectNext projects r into p.row, valid until the next call, and charges
// it; under DISTINCT it reports false for a row whose key p has seen.
func (ex *executor) projectNext(p *projector, r row) (bool, error) {
	p.row = p.row[:0]
	for _, it := range p.items {
		v, err := ex.ec.eval(it.Expr, r)
		if err != nil {
			return false, err
		}
		p.row = append(p.row, binding{colName(it), v})
	}
	if err := ex.chargeRow(p.row); err != nil {
		return false, err
	}
	return !p.distinct || p.fresh(p.row), nil
}

// fresh records the DISTINCT key of the projected row r in p.seen and
// reports whether it was new.
func (p *projector) fresh(r row) bool {
	p.key = p.key[:0]
	for i := range r {
		p.key = append(r[i].val.appendKey(p.key), keyRowSep)
	}
	if _, dup := p.seen[string(p.key)]; dup {
		return false
	}
	if p.seen == nil {
		p.seen = map[string]struct{}{}
	}
	p.seen[string(p.key)] = struct{}{}
	return true
}

// aggregate groups rows by the non-aggregate items and folds aggregate
// functions per group.
func (ex *executor) aggregate(items []ReturnItem, cols []string, in []row) ([]row, error) {
	type itemPlan struct {
		isAgg     bool
		rewritten Expr      // with aggregate calls replaced by placeholders
		aggs      []*FnCall // aggregate calls in this item
		aggNames  []string  // placeholder variable names
	}
	plans := make([]itemPlan, len(items))
	nAggs := 0
	for i, it := range items {
		if !containsAggregate(it.Expr) {
			plans[i] = itemPlan{isAgg: false, rewritten: it.Expr}
			continue
		}
		p := itemPlan{isAgg: true}
		p.rewritten = rewriteAggregates(it.Expr, func(fc *FnCall) Expr {
			name := fmt.Sprintf("\x00agg%d", nAggs)
			nAggs++
			p.aggs = append(p.aggs, fc)
			p.aggNames = append(p.aggNames, name)
			return &Variable{Name: name}
		})
		plans[i] = p
	}

	type group struct {
		rep    row // representative input row
		keys   []Val
		states []*aggState
	}
	groups := map[string]*group{}
	var order []*group
	// The key buffers serve every input row; only a new group copies its
	// key and key values.
	var key, distinctKey []byte
	var keyParts []Val

	for _, r := range in {
		if err := ex.tick(); err != nil {
			return nil, err
		}
		keyParts = keyParts[:0]
		for i, p := range plans {
			if p.isAgg {
				continue
			}
			v, err := ex.ec.eval(items[i].Expr, r)
			if err != nil {
				return nil, err
			}
			keyParts = append(keyParts, v)
		}
		key = appendRowKey(key[:0], keyParts)
		grp := groups[string(key)]
		if grp == nil {
			// Aggregation-map growth: each new group retains its key string,
			// key values and a representative input row for the output pass.
			if ex.mem != nil {
				n := int64(len(key)) + rowBytes(r)
				for _, kv := range keyParts {
					n += valBytes(kv)
				}
				if err := ex.mem.charge(n); err != nil {
					return nil, err
				}
			}
			grp = &group{rep: r, keys: slices.Clone(keyParts)}
			for _, p := range plans {
				for _, fc := range p.aggs {
					grp.states = append(grp.states, newAggState(fc))
				}
			}
			groups[string(key)] = grp
			order = append(order, grp)
		}
		si := 0
		for _, p := range plans {
			for _, fc := range p.aggs {
				st := grp.states[si]
				si++
				if err := st.add(ex.ec, r, fc, &distinctKey); err != nil {
					return nil, err
				}
			}
		}
	}

	// Aggregation over zero rows with no grouping keys yields one row of
	// aggregate identities (count(*) = 0 etc.).
	allAgg := true
	for _, p := range plans {
		if !p.isAgg {
			allAgg = false
			break
		}
	}
	if len(order) == 0 && allAgg {
		grp := &group{rep: row{}}
		for _, p := range plans {
			for _, fc := range p.aggs {
				grp.states = append(grp.states, newAggState(fc))
			}
		}
		order = append(order, grp)
	}

	out := make([]row, 0, len(order))
	for _, grp := range order {
		nr := make(row, 0, len(items))
		ki, si := 0, 0
		env := grp.rep.clone()
		for i, p := range plans {
			if !p.isAgg {
				nr = append(nr, binding{cols[i], grp.keys[ki]})
				env.set(cols[i], grp.keys[ki])
				ki++
				continue
			}
			for ai := range p.aggs {
				v, err := grp.states[si].finish()
				if err != nil {
					return nil, err
				}
				env.set(p.aggNames[ai], v)
				si++
			}
			v, err := ex.ec.eval(p.rewritten, env)
			if err != nil {
				return nil, err
			}
			nr = append(nr, binding{cols[i], v})
		}
		out = append(out, nr)
	}
	return out, nil
}

// rewriteAggregates replaces every aggregate FnCall in e with the
// expression produced by repl, returning the rewritten tree (inputs are
// not mutated).
func rewriteAggregates(e Expr, repl func(*FnCall) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *FnCall:
		if isAggregateFn(x.Name) {
			return repl(x)
		}
		nx := *x
		nx.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			nx.Args[i] = rewriteAggregates(a, repl)
		}
		return &nx
	case *BinaryExpr:
		nx := *x
		nx.Left = rewriteAggregates(x.Left, repl)
		nx.Right = rewriteAggregates(x.Right, repl)
		return &nx
	case *UnaryExpr:
		nx := *x
		nx.X = rewriteAggregates(x.X, repl)
		return &nx
	case *IsNullExpr:
		nx := *x
		nx.X = rewriteAggregates(x.X, repl)
		return &nx
	case *PropAccess:
		nx := *x
		nx.Target = rewriteAggregates(x.Target, repl)
		return &nx
	case *ListExpr:
		nx := *x
		nx.Elems = make([]Expr, len(x.Elems))
		for i, el := range x.Elems {
			nx.Elems[i] = rewriteAggregates(el, repl)
		}
		return &nx
	case *MapExpr:
		nx := *x
		nx.Exprs = make([]Expr, len(x.Exprs))
		for i, el := range x.Exprs {
			nx.Exprs[i] = rewriteAggregates(el, repl)
		}
		return &nx
	case *IndexExpr:
		nx := *x
		nx.Target = rewriteAggregates(x.Target, repl)
		nx.Index = rewriteAggregates(x.Index, repl)
		nx.SliceLo = rewriteAggregates(x.SliceLo, repl)
		nx.SliceHi = rewriteAggregates(x.SliceHi, repl)
		return &nx
	case *CaseExpr:
		nx := *x
		nx.Operand = rewriteAggregates(x.Operand, repl)
		nx.Else = rewriteAggregates(x.Else, repl)
		nx.Whens = make([]Expr, len(x.Whens))
		nx.Thens = make([]Expr, len(x.Thens))
		for i := range x.Whens {
			nx.Whens[i] = rewriteAggregates(x.Whens[i], repl)
			nx.Thens[i] = rewriteAggregates(x.Thens[i], repl)
		}
		return &nx
	case *ListComprehension:
		nx := *x
		nx.Source = rewriteAggregates(x.Source, repl)
		nx.Where = rewriteAggregates(x.Where, repl)
		nx.Proj = rewriteAggregates(x.Proj, repl)
		return &nx
	default:
		return e
	}
}

// --- ORDER BY / SKIP / LIMIT ---

func (ex *executor) orderRows(rows []row, origs []row, sortItems []SortItem) error {
	if len(sortItems) == 0 {
		return nil
	}
	keys := make([][]Val, len(rows))
	for i, r := range rows {
		if err := ex.tick(); err != nil {
			return err
		}
		env := r
		if origs != nil {
			// Sort expressions may reference both projected aliases and
			// pre-projection variables; aliases win on collision.
			env = origs[i].clone()
			for _, b := range r {
				env.set(b.name, b.val)
			}
		}
		ks := make([]Val, len(sortItems))
		for j, si := range sortItems {
			v, err := ex.ec.eval(si.Expr, env)
			if err != nil {
				return err
			}
			if err := ex.chargeVal(v); err != nil {
				return err // sort buffers count against the memory budget
			}
			ks[j] = v
		}
		keys[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, si := range sortItems {
			c := compareVals(keys[idx[a]][j], keys[idx[b]][j])
			if c == 0 {
				continue
			}
			if si.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]row, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
	return nil
}

// compareVals orders values for ORDER BY: nulls sort last, scalars by
// Compare, everything else by appendKey for stability.
func compareVals(a, b Val) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	as, aok := a.Scalar()
	bs, bok := b.Scalar()
	if aok && bok {
		c, _ := as.Compare(bs)
		return c
	}
	var ab, bb [64]byte
	return bytes.Compare(a.appendKey(ab[:0]), b.appendKey(bb[:0]))
}

func (ex *executor) skipLimit(rows []row, skipE, limitE Expr) ([]row, error) {
	if skipE != nil {
		v, err := ex.ec.eval(skipE, row{})
		if err != nil {
			return nil, err
		}
		n, ok := v.AsInt()
		if !ok || n < 0 {
			return nil, &Error{Msg: "SKIP requires a non-negative integer"}
		}
		if int(n) >= len(rows) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if limitE != nil {
		v, err := ex.ec.eval(limitE, row{})
		if err != nil {
			return nil, err
		}
		n, ok := v.AsInt()
		if !ok || n < 0 {
			return nil, &Error{Msg: "LIMIT requires a non-negative integer"}
		}
		if int(n) < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
}
