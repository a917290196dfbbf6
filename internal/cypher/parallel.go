package cypher

import (
	"slices"
	"sync"
	"sync/atomic"

	"iyp/internal/graph"
)

// The MATCH driver. Every pattern match in the engine — a MATCH or
// OPTIONAL MATCH clause over any number of input rows, an EXISTS {} or
// COUNT {} subquery, a MERGE probe — is one call to runMatch:
//
//   - What is fixed for the clause (its pattern names resolved to the
//     graph's ids, WHERE pushdowns, the static reason it may not be split)
//     is collected once per clause execution, in newMatchSpec. A clause
//     that names something the graph has never stored matches nothing and
//     plans no work.
//   - For each input row the planner runs once and the anchor's candidates
//     are enumerated once, and the row contributes work items to one
//     ordered list: its candidate list cut into morsels of morselSize (a
//     bound anchor is a one-candidate item), or, for a clause that must not
//     be split (writes in the branch, comma-separated paths sharing one
//     binding, shortestPath), a single whole-row item.
//   - The list runs on the calling goroutine when it holds fewer than two
//     items or minParallelCandidates units of work, or when fewer than two
//     workers are allowed; otherwise on a bounded worker pool. Either way
//     the same loop claims items and the same runMorsel executes them, each
//     worker on a private matcher (binding, used-relationship stack, BFS
//     scratch), so the only shared state is the immutable graph and plan.
//   - The list is built and run in windows of windowItems, so the
//     candidate lists held at once stay bounded however many rows feed the
//     clause.
//
// Item results are merged back in list order, which makes the result table
// byte-identical at any worker count:
//
//   - Input rows are listed in order and a row's candidates in ascending
//     node-ID order, so concatenating per-item rows in list order is the
//     order a single sequential enumeration produces. An OPTIONAL MATCH row
//     whose items produced nothing gets its null row at that position.
//     Under a RETURN DISTINCT at emit a worker drops rows one of its earlier
//     items kept, and the merge rows another worker's earlier item kept.
//   - A row limit (LIMIT / MaxRows pushdown) caps each item locally at
//     what the window still needs — after the in-order merge trims at the
//     limit, no item can contribute more rows than that — and a completion
//     frontier stops workers claiming items past the point where the
//     contiguous completed prefix already satisfies the limit.
//   - Errors replay deterministically: the merge walks items in order,
//     stops successfully once the limit is reached, and otherwise returns
//     the first error in list order — the error sequential execution hits
//     first (candidates within an item run in order, and sequential
//     execution stops at the limit before reaching later errors).

const (
	// morselSize is the number of anchor candidates per work item: large
	// enough to amortize scheduling, small enough to balance skewed
	// expansion costs across workers.
	morselSize = 64
	// minParallelCandidates is the amount of work (anchor candidates, a
	// whole-row item counting as one) below which fan-out costs more than
	// it buys: fewer than two full morsels.
	minParallelCandidates = 2 * morselSize
	// windowItems bounds how many work items are planned ahead of
	// execution. A window always ends on an input-row boundary.
	windowItems = 1024
)

// serialReason explains why a clause with these patterns in branch q is
// not split into candidate morsels (it runs as whole-row work items), or
// "" when it is.
func serialReason(q *Query, patterns []PatternPath) string {
	for _, cl := range q.Clauses {
		switch cl.(type) {
		case *CreateClause, *MergeClause, *SetClause, *DeleteClause, *RemoveClause:
			return reasonWrites
		}
	}
	if len(patterns) > 1 {
		return reasonMultiPath
	}
	if patterns[0].Shortest {
		return reasonShortest
	}
	return ""
}

// matchSpec is what is fixed for a pattern-matching clause whatever row
// feeds it. The driver, EXPLAIN and the estimator all start from it.
type matchSpec struct {
	patterns []PatternPath
	paths    []resolvedPath // patterns resolved against the executing graph
	never    string         // non-empty: why the clause matches nothing (resolvePaths)
	where    Expr
	optional bool
	push     []pushdown    // WHERE conjuncts usable for anchor index lookups
	reason   string        // serialReason: "" = the anchor's candidates are split into morsels
	ret      *ReturnClause // the final RETURN evaluated at emit; nil keeps whole bindings
	memo     memoPlan      // where the matcher skips suffix states it has expanded (newMemoPlan)
}

// newMatchSpec builds the spec of one execution of a clause against g.
// It runs per execution, not per parse, because the ids it resolves are
// those of g.
func newMatchSpec(g *graph.Graph, q *Query, patterns []PatternPath, where Expr, optional bool) matchSpec {
	paths, never := resolvePaths(g, patterns)
	return matchSpec{
		patterns: patterns,
		paths:    paths,
		never:    never,
		where:    where,
		optional: optional,
		push:     collectPushdowns(where, patternVarSet(patterns)),
		reason:   serialReason(q, patterns),
	}
}

// workItem is one entry of the driver's ordered work list: input row `row`
// restricted to the anchor candidates cands of its plan. A whole-row item
// (spec.reason != "") carries neither and enumerates every path of the
// clause. rows and err are the item's outcome.
type workItem struct {
	row   int
	plan  pathPlan
	cands []graph.NodeID

	rows []row
	err  error
}

// matchRun is the state of one runMatch call: what it matches, and the
// window of the work list it is currently executing — the items, the row
// limit they share, and the claim counter and completion frontier the
// window's workers coordinate through.
type matchRun struct {
	ex   *executor
	spec matchSpec
	in   []row

	items []workItem
	limit int
	next  atomic.Int64
	front *frontier
	dedup projector // the rows merged so far, under a RETURN DISTINCT at emit
}

// runMatch extends every row of in by the matches of spec, in input order.
// cap < 0 means unlimited; otherwise at most cap rows are produced and
// enumeration stops as soon as they are. workers bounds the pool.
func (ex *executor) runMatch(spec matchSpec, in []row, cap, workers int) ([]row, error) {
	run := &matchRun{ex: ex, spec: spec, in: in}
	planner := ex.newMatcher(spec)
	var nullVars []string
	if spec.optional {
		nullVars = patternVars(spec.patterns)
	}
	var out []row
	// Under a RETURN DISTINCT at emit a lone worker dedups against run.dedup.
	distinct := spec.ret != nil && spec.ret.Distinct
	if distinct {
		run.dedup.seen = map[string]struct{}{}
	}
	pooled := false
	for next := 0; next < len(in) && (cap < 0 || len(out) < cap); {
		if err := ctxErr(ex.ctx); err != nil {
			return nil, err
		}
		run.limit = -1
		if cap >= 0 {
			run.limit = cap - len(out)
		}

		// Plan one window. A limit also closes it once it holds that many
		// candidates, so a small LIMIT over many input rows plans few of
		// them.
		first := next
		items := run.items[:0]
		weight := 0
		for ; next < len(in) && len(items) < windowItems && (run.limit < 0 || weight < run.limit); next++ {
			if spec.never != "" {
				continue // the row gets no items, and under OPTIONAL its null row
			}
			if spec.reason != "" {
				items = append(items, workItem{row: next})
				weight++
				continue
			}
			planner.binding = in[next]
			path := spec.patterns[0]
			plan := planner.planPath(path)
			cands := planner.candidates(path.Nodes[plan.anchor], plan.acc)
			weight += len(cands)
			for len(cands) > 0 {
				n := min(len(cands), morselSize)
				items = append(items, workItem{row: next, plan: plan, cands: cands[:n]})
				cands = cands[n:]
			}
		}
		run.items = items

		pool := 1
		if workers >= 2 && len(items) >= 2 && weight >= minParallelCandidates {
			pool = min(workers, len(items))
			pooled = true
		}
		if len(items) > 0 {
			run.execute(pool)
		}

		// In-order merge: concatenate, trim at the limit, and surface the
		// first error in list order only if sequential execution would have
		// reached it before satisfying the limit.
		it := 0
		for r := first; r < next; r++ {
			before := len(out)
			for ; it < len(items) && items[it].row == r; it++ {
				out = slices.Grow(out, len(items[it].rows))
				for _, nr := range items[it].rows {
					if !distinct || pool < 2 || run.dedup.fresh(nr) {
						out = append(out, nr)
					}
				}
				if cap >= 0 && len(out) >= cap {
					return out[:cap], nil
				}
				if items[it].err != nil {
					return nil, items[it].err
				}
			}
			if spec.optional && len(out) == before {
				// Bind all new pattern variables to null.
				nr := in[r].clone()
				for _, name := range nullVars {
					if _, bound := nr.get(name); !bound {
						nr = append(nr, binding{name, NullVal()})
					}
				}
				out = append(out, nr)
			}
		}
	}
	if workers >= 2 && spec.reason == "" && !pooled {
		metricMatchSerialFewCandidates.Add(1)
	}
	return out, nil
}

func (ex *executor) newMatcher(spec matchSpec) *matcher {
	return &matcher{ec: ex.ec, g: ex.g, ctx: ex.ctx, push: spec.push, paths: spec.paths, memo: spec.memo}
}

// execute runs the current window with `workers` workers: one runs on the
// calling goroutine, more as a pool it waits for.
func (r *matchRun) execute(workers int) {
	r.next.Store(0)
	r.front = newFrontier(len(r.items), r.limit)
	if workers < 2 {
		r.work(r.dedup.seen)
		return
	}
	metricMatchParallel.Add(1)
	metricMatchMorsels.Add(uint64(len(r.items)))
	metricMatchWorkers.Add(uint64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(nil)
		}()
	}
	wg.Wait()
}

// work is one worker of the current window, on the calling goroutine or in
// the pool: it claims items in list order and fills in their rows and err
// until the list or the frontier's cutoff is reached. Items past the
// cutoff are left untouched: the in-order merge never reaches them.
func (r *matchRun) work(seen map[string]struct{}) {
	// A panic escaping a pool goroutine would kill the process; recover per
	// worker and let the in-order merge surface it as this item's error
	// (claimed is the item being run when the panic fired).
	claimed := -1
	defer func() {
		if p := recover(); p != nil && claimed >= 0 {
			r.items[claimed].err = panicError(p)
			r.front.errorAt(claimed)
		}
	}()
	m := r.ex.newMatcher(r.spec)
	var p *projector
	if ret := r.spec.ret; ret != nil {
		p = &projector{items: ret.Items, distinct: ret.Distinct, seen: seen}
	}
	for {
		i := int(r.next.Add(1) - 1)
		// Items are claimed in ascending order and the cutoff only ever
		// drops, so the first skipped item ends this worker.
		if i >= len(r.items) || r.front.skip(i) {
			return
		}
		claimed = i
		if testMorselHook != nil {
			testMorselHook(i)
		}
		it := &r.items[i]
		it.rows, it.err = r.runMorsel(m, p, it)
		if it.err != nil {
			r.front.errorAt(i)
			continue
		}
		r.front.complete(i, len(it.rows))
	}
}

// testMorselHook, when non-nil, runs at the start of every work item. It
// exists so tests can inject a worker-goroutine panic and prove the
// per-worker recovery path; production code never sets it.
var testMorselHook func(itemIndex int)

// runMorsel executes one work item on the worker's private matcher and
// projector (nil: keep bindings), starting from the item's input row. The
// binding and used stacks are push/pop balanced, so the same matcher is
// reused for the worker's next item without reallocation.
func (r *matchRun) runMorsel(m *matcher, p *projector, it *workItem) ([]row, error) {
	ex, where, limit := r.ex, r.spec.where, r.limit
	m.binding = append(m.binding[:0], r.in[it.row]...)
	var out []row
	m.emit = func() error {
		if where != nil {
			v, err := ex.ec.eval(where, m.binding)
			if err != nil {
				return err
			}
			if b, null := truth(v); null || !b {
				return nil
			}
		}
		// The tracker is shared by every worker of this query (one atomic),
		// so the budget holds across the whole fan-out.
		if err := ex.chargeRow(m.binding); err != nil {
			return err
		}
		if p == nil {
			out = append(out, m.binding.clone())
		} else if keep, err := ex.projectNext(p, m.binding); err != nil || !keep {
			return err
		} else {
			out = append(out, slices.Clone(p.row))
		}
		if limit >= 0 && len(out) >= limit {
			return errStop
		}
		return nil
	}
	var err error
	if r.spec.reason != "" {
		err = m.solvePaths(0)
	} else {
		err = m.solvePathPlanned(&m.paths[0], it.plan, it.cands, m.emit)
	}
	if err == errStop {
		err = nil
	}
	return out, err
}

// frontier tracks per-item completion so workers can stop claiming items
// that are provably unnecessary: once the contiguous completed prefix holds
// enough rows to satisfy the limit (or an earlier item errored), every
// later item's output would be trimmed away by the in-order merge.
type frontier struct {
	mu    sync.Mutex
	done  []int // per item: 0 = still running, else its row count + 1
	next  int   // first item index not yet in the completed prefix
	acc   int   // rows accumulated over the completed prefix
	limit int   // -1 = unlimited (frontier inactive except for errors)

	cutoff atomic.Int64 // items at index >= cutoff need not run
}

func newFrontier(n, limit int) *frontier {
	f := &frontier{limit: limit}
	if limit >= 0 {
		f.done = make([]int, n)
	}
	f.cutoff.Store(int64(n))
	return f
}

func (f *frontier) skip(i int) bool { return int64(i) >= f.cutoff.Load() }

func (f *frontier) lower(c int) {
	for {
		cur := f.cutoff.Load()
		if int64(c) >= cur || f.cutoff.CompareAndSwap(cur, int64(c)) {
			return
		}
	}
}

// complete records item i finishing with n emitted rows and advances the
// frontier; errorAt marks item i failed, so later items are moot.
func (f *frontier) complete(i, n int) {
	if f.limit < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[i] = n + 1
	for f.next < len(f.done) && f.done[f.next] > 0 {
		f.acc += f.done[f.next] - 1
		f.next++
		if f.acc >= f.limit {
			f.lower(f.next)
			return
		}
	}
}

func (f *frontier) errorAt(i int) { f.lower(i + 1) }
