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
//     graph's ids, its inline properties and WHERE conjuncts compiled into
//     the property tests and index seeds of its pattern positions, the
//     static reason it may not be split) is collected once per clause
//     execution, in newMatchSpec. A clause that names something the graph
//     has never stored matches nothing and plans no work.
//   - For each input row the planner runs once and the anchor's candidates
//     are enumerated once. The clause's work is one ordered sequence of
//     (input row, anchor candidate) pairs, cut into work items of up to
//     morselSize pairs: a row with many candidates spans several items,
//     and consecutive rows with one candidate each (a bound anchor) share
//     one. An item holds one segment per input row it touches. With two or
//     more workers, a row whose one candidate's first expansion step has
//     minParallelCandidates or more adjacency entries is cut inside that
//     step instead (cut, cutHop): the planner walks the adjacency once, and
//     each of the row's items reads only its own stretch of morselSize
//     entries (Graph.RelsAt). A clause that must not be split (writes in
//     the branch, comma-separated paths sharing one binding, shortestPath)
//     makes each row a whole-row item.
//   - The list runs on the calling goroutine when it holds fewer than two
//     items or minParallelCandidates units of work, or when fewer than two
//     workers are allowed; otherwise on a bounded worker pool. Either way
//     the same loop claims items and the same runItem executes them, each
//     worker with private state for the window (matcher, projector, the
//     buffer its items' rows are cut from), so the only shared state is
//     the immutable graph and plan.
//   - The list is built and run in windows of windowItems, so the
//     candidate lists held at once stay bounded however many rows feed the
//     clause.
//
// Item results are merged back in list order, which makes the result table
// byte-identical at any worker count:
//
//   - Input rows are listed in order, a row's candidates in ascending
//     node-ID order and a cut step's stretches in adjacency order, so
//     concatenating per-segment rows in list order is the order a single
//     sequential enumeration produces. Each segment records
//     where its rows end in its item's rows, so an OPTIONAL MATCH row whose
//     segments produced nothing gets its null row at that position.
//     Under a RETURN DISTINCT at emit a worker drops rows one of its earlier
//     items kept, and the merge rows another worker's earlier item kept.
//   - A row limit (LIMIT / MaxRows pushdown) caps each item locally at
//     what the window still needs — after the in-order merge trims at the
//     limit, no item can contribute more rows than that — and a completion
//     frontier stops workers claiming items past the point where the
//     contiguous completed prefix already satisfies the limit.
//   - Errors replay deterministically: the merge walks segments in order,
//     stops successfully once the limit is reached, and otherwise returns
//     the first error in list order — the error sequential execution hits
//     first (an item runs its segments, and each its candidates, in order,
//     and sequential execution stops at the limit before reaching later
//     errors).

const (
	// morselSize is the number of (input row, anchor candidate) pairs, or
	// of a cut step's adjacency entries, per work item: large enough to
	// amortize scheduling, small enough to balance skewed expansion costs
	// across workers.
	morselSize = 64
	// minParallelCandidates is the amount of work (anchor candidates and
	// cut adjacency entries, a whole-row item counting as one) below which
	// fan-out costs more than it buys: fewer than two full morsels.
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
	preds    []cellPred // the property tests and index seeds: inline properties, then WHERE conjuncts
	filter   Expr       // the rest of where, evaluated at emit (compileWhere)
	optional bool
	reason   string        // serialReason: "" = the anchor's candidates are split into morsels
	ret      *ReturnClause // the final RETURN evaluated at emit; nil keeps whole bindings
	memo     memoPlan      // where the matcher skips suffix states it has expanded (newMemoPlan)
}

// newMatchSpec builds the spec of one execution of a clause against ec's
// graph and parameters. It runs per execution, not per parse, because the
// ids it resolves are those of the graph.
func newMatchSpec(ec *evalCtx, q *Query, patterns []PatternPath, where Expr, optional bool) matchSpec {
	s := matchSpec{patterns: patterns, where: where, optional: optional, reason: serialReason(q, patterns)}
	// Every inline property and WHERE conjunct compiles to at most one
	// predicate, and positions point into preds: it never grows.
	n := 0
	eachConjunct(where, func(Expr) { n++ })
	walkPatternProps(patterns, func(Expr) { n++ })
	s.preds = make([]cellPred, 0, n)
	s.resolvePaths(ec)
	s.compileWhere(ec)
	return s
}

// segment is one input row's share of a work item: input row `row`
// restricted to the anchor candidates cands, at pattern position anchor,
// and when span is set to that stretch of its one candidate's first
// expansion step. A whole-row segment (spec.reason != "") carries none of
// them and enumerates every path of the clause. end and err are its
// outcome: where its rows end in its item's rows, and the error it
// stopped on.
type segment struct {
	row    int
	anchor int
	cands  []graph.NodeID
	span   adjSpan

	end int
	err error
}

// workItem is one entry of the driver's ordered work list: the segments
// segs[lo:hi] of its window, and the rows they produced, in order.
type workItem struct {
	lo, hi int
	rows   []row
}

// matchRun is the state of one runMatch call: what it matches, and the
// window of the work list it is currently executing — the items and their
// segments, the row limit they share, and the claim counter and completion
// frontier the window's workers coordinate through.
type matchRun struct {
	ex   *executor
	spec matchSpec
	in   []row

	items []workItem
	segs  []segment
	ids   []graph.NodeID // the window's bound-anchor candidates, one per row
	spans []adjSpan      // the stretches cut reported last
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
	if len(in) > 1 {
		// A window holds about one segment and at most one bound-anchor
		// candidate per input row: size both buffers once, as append's
		// growth of a big slice copies it about four times over.
		n := min(len(in), windowItems*morselSize)
		run.segs, run.ids = make([]segment, 0, n), make([]graph.NodeID, 0, n)
	}
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
		items, segs, ids := run.items[:0], run.segs[:0], run.ids[:0]
		fill := morselSize // pairs in the last item; morselSize: start a new one
		weight := 0
		for ; next < len(in) && len(items) < windowItems && (run.limit < 0 || weight < run.limit); next++ {
			if spec.never != "" {
				continue // the row gets no items, and under OPTIONAL its null row
			}
			if spec.reason != "" {
				segs = append(segs, segment{row: next})
				items = append(items, workItem{lo: len(segs) - 1, hi: len(segs)})
				weight++
				continue
			}
			planner.binding = in[next]
			plan := planner.planPath(&spec.paths[0])
			cands := planner.candidates(spec.patterns[0].Nodes[plan.anchor], plan.acc, &ids)
			if len(cands) == 1 && workers >= 2 {
				if n := run.cut(in[next], plan.anchor, cands[0]); n > 0 {
					for _, sp := range run.spans {
						segs = append(segs, segment{row: next, anchor: plan.anchor, cands: cands, span: sp})
						items = append(items, workItem{lo: len(segs) - 1, hi: len(segs)})
					}
					weight += n
					fill = morselSize
					continue
				}
			}
			weight += len(cands)
			for len(cands) > 0 {
				if fill == morselSize {
					items = append(items, workItem{lo: len(segs)})
					fill = 0
				}
				n := min(len(cands), morselSize-fill)
				segs = append(segs, segment{row: next, anchor: plan.anchor, cands: cands[:n]})
				items[len(items)-1].hi = len(segs)
				fill += n
				cands = cands[n:]
			}
		}
		run.items, run.segs, run.ids = items, segs, ids

		pool := 1
		if workers >= 2 && len(items) >= 2 && weight >= minParallelCandidates {
			pool = min(workers, len(items))
			pooled = true
		}
		if len(items) > 0 {
			run.execute(pool)
		}

		// In-order merge: concatenate each row's segments, trim at the
		// limit, and surface the first error in list order only if
		// sequential execution would have reached it before satisfying the
		// limit.
		n := 0
		for i := range items {
			n += len(items[i].rows)
		}
		out = slices.Grow(out, n)
		s, it := 0, 0
		for r := first; r < next; r++ {
			before := len(out)
			for ; s < len(segs) && segs[s].row == r; s++ {
				if s == items[it].hi {
					it++
				}
				from := 0
				if s > items[it].lo {
					from = segs[s-1].end
				}
				for _, nr := range items[it].rows[from:segs[s].end] {
					if !distinct || pool < 2 || run.dedup.fresh(nr) {
						out = append(out, nr)
					}
				}
				if cap >= 0 && len(out) >= cap {
					return out[:cap], nil
				}
				if segs[s].err != nil {
					return nil, segs[s].err
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

// cut cuts the first expansion step of input row b's one anchor candidate
// id, at pattern position anchor, into run.spans: stretches of morselSize
// adjacency entries, which it finds by walking the adjacency once. It
// returns the entries they cover, or 0 when it cuts nothing: the step has
// fewer than minParallelCandidates entries, or spec.cutHop declines it.
// A step it does not cut costs it no allocation.
func (r *matchRun) cut(b row, anchor int, id graph.NodeID) int {
	rp, dir, ok := r.spec.cutHop(b, anchor)
	if !ok {
		return 0
	}
	var buf [morselSize]graph.RelID
	rels, mid := r.ex.g.RelsAt(id, dir, rp.types, 0, morselSize, buf[:0])
	if len(rels) < morselSize {
		return 0
	}
	rels, pos := r.ex.g.RelsAt(id, dir, rp.types, mid, morselSize, buf[:0])
	if len(rels) < morselSize {
		return 0
	}
	r.spans = append(r.spans[:0], adjSpan{0, morselSize}, adjSpan{mid, morselSize})
	total := minParallelCandidates // two full stretches
	for n := morselSize; n == morselSize; {
		rels, next := r.ex.g.RelsAt(id, dir, rp.types, pos, morselSize, buf[:0])
		if n = len(rels); n > 0 {
			r.spans = append(r.spans, adjSpan{pos, n})
			total += n
		}
		pos = next
	}
	return total
}

// cutHop returns the first expansion step of the clause's path from
// anchor, and its direction from there, when the driver may cut it into
// stretches under input row b: a single-path clause the driver splits
// (spec.reason is ""), with no memo points (a worker skips only the suffix
// states it expanded itself, so spreading one anchor's states over workers
// would expand each once per worker), whose step is neither
// variable-length nor over a relationship variable b binds.
func (spec *matchSpec) cutHop(b row, anchor int) (*resolvedRel, graph.Dir, bool) {
	if spec.reason != "" || spec.memo.right != nil {
		return nil, 0, false
	}
	path := &spec.paths[0]
	hop, rightward := anchor, anchor < len(path.rels)
	if !rightward {
		hop--
	}
	if hop < 0 {
		return nil, 0, false
	}
	rp := &path.rels[hop]
	if _, bound := b.get(rp.Var); rp.VarLen || rp.none || rp.Var != "" && bound {
		return nil, 0, false
	}
	return rp, stepDir(rp.Dir, rightward), true
}

func (ex *executor) newMatcher(spec matchSpec) matcher {
	return matcher{ec: ex.ec, g: ex.g, ctx: ex.ctx, paths: spec.paths, memo: spec.memo}
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

// worker is one worker's state for a window: a private matcher (binding,
// used-relationship stack, BFS scratch, memo states) and projector, and
// the buffer every row its items emit is appended to. An item's rows are
// a sub-slice of that buffer, so the worker allocates per window, not per
// item or input row.
type worker struct {
	r     *matchRun
	m     matcher
	p     projector // the RETURN at emit, if the spec has one
	rows  []row
	start int // where the running item's rows begin in rows
	seg   int // the segment running, for panic attribution
}

// work is one worker of the current window, on the calling goroutine or in
// the pool: it claims items in list order and fills in their rows and
// segment outcomes until the list or the frontier's cutoff is reached.
// Items past the cutoff are left untouched: the in-order merge never
// reaches them.
func (r *matchRun) work(seen map[string]struct{}) {
	w := &worker{r: r, m: r.ex.newMatcher(r.spec)}
	if ret := r.spec.ret; ret != nil {
		w.p = projector{items: ret.Items, distinct: ret.Distinct, seen: seen}
	}
	w.m.emit = w.emit
	// A panic escaping a pool goroutine would kill the process; recover per
	// worker and let the in-order merge surface it as the running
	// segment's error (claimed is the item being run when the panic fired).
	claimed := -1
	defer func() {
		if p := recover(); p != nil && claimed >= 0 {
			seg := &r.segs[w.seg]
			seg.err, seg.end = panicError(p), len(w.rows)-w.start
			r.items[claimed].rows = w.rows[w.start:]
			r.front.errorAt(claimed)
		}
	}()
	for {
		i := int(r.next.Add(1) - 1)
		// Items are claimed in ascending order and the cutoff only ever
		// drops, so the first skipped item ends this worker.
		if i >= len(r.items) || r.front.skip(i) {
			return
		}
		claimed, w.start, w.seg = i, len(w.rows), r.items[i].lo
		if testMorselHook != nil {
			testMorselHook(i)
		}
		it := &r.items[i]
		if err := w.runItem(it); err != nil {
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

// runItem executes item it's segments in order, each from its input row,
// and returns the error it stopped on. The binding and used stacks are
// push/pop balanced, so the worker's matcher is reused for every segment
// without reallocation. A segment after a stop or an error records no
// rows: the merge never reaches it.
func (w *worker) runItem(it *workItem) error {
	r, m := w.r, &w.m
	var err error
	for w.seg = it.lo; w.seg < it.hi; w.seg++ {
		seg := &r.segs[w.seg]
		if err == nil {
			m.binding = append(m.binding[:0], r.in[seg.row]...)
			m.span = seg.span
			if r.spec.reason != "" {
				err = m.solvePaths(0)
			} else {
				err = m.solvePathPlanned(&m.paths[0], seg.anchor, seg.cands, m.emit)
			}
			if err != errStop {
				seg.err = err
			}
		}
		seg.end = len(w.rows) - w.start
	}
	it.rows = w.rows[w.start:len(w.rows):len(w.rows)]
	if err == errStop {
		return nil
	}
	return err
}

// emit is the worker's matcher's emit: it filters the complete binding by
// what the cell predicates left of the clause's WHERE, charges it, and
// appends it — or its projection — as an exact-size row. It stops the item
// once the item holds what the window still needs.
func (w *worker) emit() error {
	ex, m := w.r.ex, &w.m
	if where := w.r.spec.filter; where != nil {
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
	if len(w.rows) == cap(w.rows) {
		w.rows = slices.Grow(w.rows, len(w.rows)) // double, not append's quarter
	}
	if w.r.spec.ret == nil {
		w.rows = append(w.rows, slices.Clone(m.binding))
	} else if keep, err := ex.projectNext(&w.p, m.binding); err != nil || !keep {
		return err
	} else {
		w.rows = append(w.rows, slices.Clone(w.p.row))
	}
	if limit := w.r.limit; limit >= 0 && len(w.rows)-w.start >= limit {
		return errStop
	}
	return nil
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
