package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iyp"
	"iyp/internal/algo"
	"iyp/internal/core"
	"iyp/internal/crawlers"
	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/netutil"
	"iyp/internal/ontology"
	"iyp/internal/postproc"
	"iyp/internal/replica"
	"iyp/internal/server"
	"iyp/internal/simnet"
	"iyp/internal/source"
	"iyp/internal/studies"
	"iyp/internal/temporal"
)

// A traced run walks the whole stack once on the workload's graph, with a
// span around every call into a layer's public function, and reads the
// per-layer metrics off those spans and off the counts taken at the same
// boundaries. The walk is the same for every workload; what differs is the
// graph's scale, the traffic the child is sent, and which operations the
// trace file counts as the workload's own (workloadOps).
const (
	replayLookups   = 5000 // prefix of the lookup stream replayed in process
	replayRounds    = 3    // analytics rounds replayed in process
	pipelineWorkers = 4    // ingest.Pipeline's default Concurrency
	probeLoops      = 200_000
	openFastRate    = 6000 // requests per second of the second open-loop phase
	openRate        = 2000 // requests per second of the first
)

// workloadOps names, per workload, the operation kinds of the walk that
// the workload itself consists of.
var workloadOps = map[string][]string{
	"lookup_zipf":         {"lookup"},
	"analytics_scan":      {"analytics"},
	"build_publish":       {"build", "publish", "studies", "delta", "diff", "burst"},
	"serve_during_ingest": {"lookup", "reload"},
}

// walk is the state of one traced run.
type walk struct {
	b   *bench
	tr  *tracer
	res *result
	cfg simnet.Config

	plain   *iyp.DB       // built by iyp.Build: the untraced reference
	g       *graph.Graph  // built stage by stage, with spans
	db      *iyp.DB       // g, wrapped
	report  ingest.Report // of the staged build
	fetched time.Time
	dir     string
	store   *graph.Store
	gen1    graph.Generation
	lookups *stream
	rounds  *stream
	written *iyp.DB // generation 1 as loaded from disk, then written to
}

func (w *walk) set(name string, v float64) { w.res.set(name, v) }

// traced is the --trace 1 run of any workload.
func (b *bench) traced(ctx context.Context, workload string) (*result, error) {
	w := &walk{b: b, tr: newTracer(), res: newResult(b.spec)}
	scale := servingScale
	if workload == "build_publish" {
		scale = publishScale
	}
	w.cfg = simnet.DefaultConfig().Scale(b.scale(scale))
	w.cfg.Seed = b.seed
	var err error
	if w.dir, err = os.MkdirTemp(b.workDir, workload+"-walk-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(w.dir)

	steps := []struct {
		name string
		run  func(context.Context) error
	}{
		{"build", w.build},
		{"live", func(ctx context.Context) error { return w.live(ctx, workload) }},
		{"publish", w.publish}, {"storage", w.storage}, {"queries", w.queries},
		{"studies", w.studies}, {"delta and diff", w.deltaAndDiff}, {"follower", w.follower},
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := step.run(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
		b.logf("%s: traced %s took %v", workload, step.name, time.Since(t0))
	}
	share, err := w.tr.write(b.outDir, workload, b.seed, workloadOps[workload])
	if err != nil {
		return nil, err
	}
	b.logf("%s: self-time shares of %v: %v", workload, workloadOps[workload], share)
	return w.res, nil
}

// tracedCrawler puts a span around one dataset's crawl. The pipeline runs
// crawlers side by side, so these spans overlap under the pipeline's.
type tracedCrawler struct {
	ingest.Crawler
	tr         *tracer
	op, parent int
}

func (c tracedCrawler) Run(ctx context.Context, s *ingest.Session) error {
	_, err := c.tr.call(c.op, c.parent, "crawlers", c.Reference().Name, func(int) error {
		return c.Crawler.Run(ctx, s)
	})
	return err
}

// build runs the build twice: once through iyp.Build, as the untraced
// workloads do, and once as the explicit stages core.Build is made of.
func (w *walk) build(ctx context.Context) error {
	t0 := time.Now()
	plain, err := iyp.Build(ctx, iyp.Options{Config: w.cfg})
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	plainWall := time.Since(t0)
	w.plain = plain
	w.set("core.build_s", plainWall.Seconds())

	tr, op := w.tr, w.tr.op("build")
	root, endRoot := tr.start(op, 0, "core", "build")
	t0 = time.Now()
	var in *simnet.Internet
	d, err := tr.call(op, root, "simnet", "generate", func(int) (err error) {
		in, err = simnet.Generate(w.cfg)
		return err
	})
	if err != nil {
		return err
	}
	staged := d
	w.set("simnet.generate_s", d.Seconds())

	var catalog *source.Catalog
	d, _ = tr.call(op, root, "source", "render", func(int) error {
		catalog = source.Render(in)
		return nil
	})
	staged += d
	w.set("source.render_s", d.Seconds())
	w.set("source.catalog_bytes", float64(catalog.Size()))

	g := graph.New()
	d, _ = tr.call(op, root, "graph", "ensure_indexes", func(int) error {
		for _, e := range ontology.Entities() {
			if e.IdentityKey != "" {
				g.EnsureIndex(e.Name, e.IdentityKey)
			}
		}
		return nil
	})
	staged += d

	w.fetched = time.Now().UTC()
	d, err = tr.call(op, root, "ingest", "pipeline", func(id int) (err error) {
		var cs []ingest.Crawler
		for _, c := range crawlers.All() {
			cs = append(cs, tracedCrawler{c, tr, op, id})
		}
		pipe := &ingest.Pipeline{Graph: g, Fetcher: catalog, Crawlers: cs, FetchTime: w.fetched}
		w.report, err = pipe.Run(ctx)
		return err
	})
	if err != nil {
		return err
	}
	staged += d
	var busy, slowest time.Duration
	nodes, links := 0, 0
	for _, c := range w.report.Crawls {
		busy += c.Duration
		slowest = max(slowest, c.Duration)
		nodes += c.NodesCreated
		links += c.LinksCreated
	}
	w.set("ingest.pipeline_s", d.Seconds())
	w.set("ingest.nodes_created", float64(nodes))
	w.set("ingest.links_created", float64(links))
	w.set("ingest.datasets_failed", float64(len(w.report.Failed())))
	w.set("crawlers.busy_s", busy.Seconds())
	w.set("crawlers.slowest_s", slowest.Seconds())
	w.set("crawlers.parallel_efficiency", busy.Seconds()/(d.Seconds()*pipelineWorkers))
	w.res.Attempted += len(w.report.Crawls)
	for _, c := range w.report.Failed() {
		w.res.Failed++
		w.res.note(fmt.Errorf("dataset %s: %w", c.Dataset, c.Err))
	}

	var refine time.Duration
	for _, p := range postproc.Passes() {
		ref := ontology.Reference{Organization: "Internet Yellow Pages", Name: p.Name, FetchTime: w.fetched}
		d, err := tr.call(op, root, "postproc", p.Name, func(int) error { return p.Run(g, ref) })
		if err != nil {
			return fmt.Errorf("postproc %s: %w", p.Name, err)
		}
		refine += d
		w.set("postproc."+strings.TrimPrefix(p.Name, "iyp.")+"_s", d.Seconds())
	}
	staged += refine
	w.set("postproc.run_s", refine.Seconds())
	endRoot()
	stagedWall := time.Since(t0)
	w.set("core.build_overhead_s", (stagedWall - staged).Seconds())
	w.set("loadgen.trace_overhead_ratio", stagedWall.Seconds()/plainWall.Seconds())

	// The stages must build what iyp.Build builds.
	w.res.Attempted++
	if g.NumNodes() != plain.Graph().NumNodes() || g.NumRels() != plain.Graph().NumRels() {
		w.res.Failed++
		w.res.note(fmt.Errorf("staged build: %d nodes / %d rels, iyp.Build has %d / %d",
			g.NumNodes(), g.NumRels(), plain.Graph().NumNodes(), plain.Graph().NumRels()))
	}
	w.g, w.db = g, iyp.Wrap(g)
	return nil
}

// live serves the staged graph from a child and sends it two open-loop
// lookup phases, whose from-due-time latencies and generator lateness say
// whether the generator can be trusted at these rates, and then the
// workload's own traffic, around which the child's /metrics are scraped.
func (w *walk) live(ctx context.Context, workload string) error {
	f, err := w.b.serve(ctx, workload, w.db)
	if err != nil {
		return err
	}
	defer f.tearDown()
	w.lookups, w.rounds = f.lookups, newAnalyticsStream()
	if err := w.rounds.answer(ctx, w.db); err != nil {
		return err
	}
	third := w.b.window / 3

	slow := phase{ctx: ctx, conns: f.conns, stream: f.lookups, rate: openRate, window: third, rowsEvery: fullRowsEvery}.run()
	fast := phase{ctx: ctx, conns: f.conns, stream: f.lookups, first: slow.attempted, rate: openFastRate, window: third, rowsEvery: fullRowsEvery}.run()
	open := newTrial()
	open.count(slow)
	open.count(fast)
	w.res.add(open)
	late := sampleMS(slow.samples, func(s sample) time.Duration { return s.lateness })
	w.set("loadgen.lateness_p50_ms", quantile(late, 0.5))
	w.set("loadgen.lateness_p99_ms", quantile(late, 0.99))
	w.set("loadgen.open_p50_ms", quantile(latencies(slow.samples), 0.5))
	w.set("loadgen.open_p99_ms", quantile(latencies(slow.samples), 0.99))
	busy := sampleMS(fast.samples, func(s sample) time.Duration { return s.busy })
	w.set("loadgen.busy_p50_ms", quantile(busy, 0.5))
	w.set("loadgen.busy_p99_ms", quantile(busy, 0.99))
	w.set("loadgen.stream_sha", f.lookups.shaNumber())

	before, err := f.child.scrape()
	if err != nil {
		return err
	}
	t0 := time.Now()
	own := measures[workload](ctx, f, w.b.window-2*third)
	ownWall := time.Since(t0)
	after, err := f.child.scrape()
	if err != nil {
		return err
	}
	w.res.add(own)
	delta := func(name string) float64 { return after[name] - before[name] }
	sheds := 0.0
	for name := range after {
		if strings.HasPrefix(name, "iyp_sheds_total") {
			sheds += delta(name)
		}
	}
	hits, misses := delta("iyp_plan_cache_hits_total"), delta("iyp_plan_cache_misses_total")
	execSum := delta("iyp_query_duration_seconds_sum")
	w.set("server.queries", delta("iyp_queries_total"))
	w.set("server.sheds", sheds)
	w.set("server.errors", delta("iyp_query_errors_total"))
	w.set("server.plan_cache_hit_ratio", ratio(hits, hits+misses))
	w.set("server.exec_seconds_sum", execSum)
	// Clients of a closed loop wait for the whole window between them;
	// what the server did not spend executing, they spent on everything
	// else: the network stack, JSON, admission, the generator itself.
	clients := float64(len(f.conns))
	if workload == "analytics_scan" {
		clients = 1
	}
	w.set("server.wait_share", 1-execSum/(ownWall.Seconds()*clients))
	w.set("replica.reloads_ok", delta(`iyp_replica_reloads_total{result="ok"}`))
	w.set("replica.dict_reused_ratio", ratio(delta("iyp_replica_dict_reused_total"), delta("iyp_replica_dict_strings_total")))
	return nil
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// publish saves the staged graph as generation 1 of the walk's own store,
// with the DATASETS manifest a delta build needs.
func (w *walk) publish(context.Context) (err error) {
	tr, op := w.tr, w.tr.op("publish")
	if w.store, err = graph.OpenStore(filepath.Join(w.dir, "store"), graph.StoreOptions{Keep: 4}); err != nil {
		return err
	}
	d, err := tr.call(op, 0, "graph", "save", func(int) (err error) {
		w.gen1, err = w.store.Save(w.g)
		return err
	})
	if err != nil {
		return err
	}
	w.set("graph.save_s", d.Seconds())
	size, err := fileSize(w.gen1.Path)
	if err != nil {
		return err
	}
	w.set("graph.snapshot_bytes_per_rel", float64(size)/float64(w.g.NumRels()))
	_, err = tr.call(op, 0, "core", "datasets_manifest", func(int) error {
		// The fingerprint is of the configuration and the dataset list,
		// which the staged build shares with iyp.Build's.
		man := core.ManifestFromReport(w.plain.BuildFingerprint, w.gen1.Seq, w.fetched, w.report)
		return core.WriteDatasetsManifest(w.store.Dir(), man)
	})
	return err
}

// storage times the graph layer's load, verify, pin, index, scan and
// write-publish paths, and the prefix trie the refinement passes lean on.
func (w *walk) storage(context.Context) error {
	tr, op := w.tr, w.tr.op("storage")
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var loaded *graph.Graph
	d, err := tr.call(op, 0, "graph", "load", func(int) (err error) {
		loaded, err = graph.LoadFile(w.gen1.Path)
		return err
	})
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	w.set("graph.load_s", d.Seconds())
	w.set("graph.heap_bytes_per_node", (float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc))/float64(loaded.NumNodes()))
	w.set("graph.dict_strings", float64(loaded.Interner().Len()))

	var rep graph.LoadReport
	d, err = tr.call(op, 0, "graph", "load_seeded", func(int) (err error) {
		_, rep, err = graph.LoadFileWith(w.gen1.Path, graph.LoadOptions{Dict: loaded.Interner()})
		return err
	})
	if err != nil {
		return err
	}
	w.set("graph.load_seeded_s", d.Seconds())
	w.set("graph.dict_reused_ratio", ratio(float64(rep.DictReused), float64(rep.DictStrings)))

	d, err = tr.call(op, 0, "graph", "verify", func(int) error { return w.store.VerifyGen(w.gen1) })
	if err != nil {
		return err
	}
	w.set("graph.verify_s", d.Seconds())

	mv := graph.NewMVStore(w.g)
	d, _ = tr.call(op, 0, "graph", "acquire", func(int) error {
		for i := 0; i < probeLoops; i++ {
			_, _, release := mv.Acquire()
			release()
		}
		return nil
	})
	w.set("graph.acquire_ns", float64(d.Nanoseconds())/probeLoops)

	found := 0
	d, _ = tr.call(op, 0, "graph", "index_lookup", func(int) error {
		for i := 0; i < probeLoops; i++ {
			req := &w.lookups.reqs[w.lookups.order[i%len(w.lookups.order)]]
			t := lookupTemplates[req.class]
			found += len(w.g.NodesByProp(t.label, t.key, req.key))
		}
		return nil
	})
	w.set("graph.index_lookup_ns", float64(d.Nanoseconds())/probeLoops)
	w.res.Attempted++
	if found < probeLoops {
		w.res.Failed++
		w.res.note(fmt.Errorf("index lookups found %d nodes for %d keys of the stream", found, probeLoops))
	}

	// A label scan with a property-reference aggregate: how many distinct
	// host names there are, without materializing one.
	distinct := map[uint64]struct{}{}
	d, _ = tr.call(op, 0, "graph", "bulk_scan", func(int) error {
		w.g.BulkRead(func(br *graph.BulkReader) {
			lid, _ := br.LabelID("HostName")
			br.EachNode(func(id graph.NodeID) bool {
				if br.NodeHasLabelID(id, lid) {
					if _, ref, ok := br.NodePropRef(id, "name"); ok {
						distinct[ref] = struct{}{}
					}
				}
				return true
			})
		})
		return nil
	})
	w.set("graph.bulk_scan_s", d.Seconds())

	trie := netutil.NewPrefixTrie[graph.NodeID]()
	for _, id := range w.g.NodesByLabel("Prefix") {
		if s, ok := w.g.NodeProp(id, "prefix").AsString(); ok {
			if err := trie.InsertString(s, id); err != nil {
				return fmt.Errorf("lpm: %w", err)
			}
		}
	}
	var addrs []netip.Addr
	for _, id := range w.g.NodesByLabel("IP") {
		if s, ok := w.g.NodeProp(id, "ip").AsString(); ok {
			if a, err := netip.ParseAddr(s); err == nil {
				addrs = append(addrs, a)
			}
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("lpm: the graph has no IP nodes")
	}
	matched := 0
	d, _ = tr.call(op, 0, "netutil", "lpm", func(int) error {
		for i := 0; i < probeLoops; i++ {
			if _, _, ok := trie.Lookup(addrs[i%len(addrs)]); ok {
				matched++
			}
		}
		return nil
	})
	w.set("netutil.lpm_ns", float64(d.Nanoseconds())/probeLoops)
	w.res.Attempted++
	if matched == 0 || len(distinct) == 0 {
		w.res.Failed++
		w.res.note(fmt.Errorf("probes: %d addresses matched a prefix, %d distinct host names scanned", matched, len(distinct)))
	}

	// Back-to-back write publishes, as in build_publish's burst, on the
	// graph just loaded: the staged one keeps answering as the oracle does.
	w.written = iyp.Wrap(loaded)
	burst := w.tr.op("burst")
	var each []time.Duration
	total, err := tr.call(burst, 0, "graph", "apply_batches", func(id int) error {
		for i := 0; i < burstBatches; i++ {
			d, err := tr.call(burst, id, "graph", "apply_batch", func(int) error {
				_, _, err := w.written.ApplyBatch(ingestBatch(int64(ingestFirstAS+i*burstUpserts), burstUpserts))
				return err
			})
			if err != nil {
				return err
			}
			each = append(each, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.res.Attempted += burstBatches
	w.set("graph.apply_batch_p50_ms", quantile(millis(each), 0.5))
	w.set("graph.apply_batch_p99_ms", quantile(millis(each), 0.99))
	w.set("graph.apply_batches_per_s", burstBatches/total.Seconds())
	return nil
}

// cypherParams are the request's parameters as the executor takes them.
func (r *request) cypherParams() map[string]cypher.Val {
	params := make(map[string]cypher.Val, len(r.params))
	for k, v := range r.params {
		params[k] = cypher.ScalarVal(v)
	}
	return params
}

// replayed is one request sent through the HTTP handler in process and
// then re-enacted as the calls the handler makes into cypher and graph.
type replayed struct {
	handler, get, estimate, acquire, exec, index, encode time.Duration
	bytes, rows                                          int
}

// replay runs req both ways. The handler call is the operation's root
// span; the re-enacted calls are recorded as its children, laid end to end
// from its start (see span.Reenacted), so that the root's self time is what
// the server layer adds around them.
func (w *walk) replay(ctx context.Context, kind string, srv http.Handler, mv *graph.MVStore, cache *cypher.PlanCache, req *request, parallelism int) (replayed, error) {
	var r replayed
	tr, op := w.tr, w.tr.op(kind)
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req.body))
	root, endRoot := tr.start(op, 0, "server", "handler")
	t0 := time.Now()
	srv.ServeHTTP(rec, hreq)
	r.handler = time.Since(t0)
	endRoot()
	w.res.Attempted++
	if _, err := checkAnswer(req, rec.Code, rec.Body.Bytes(), true); err != nil {
		w.res.Failed++
		w.res.note(err)
	}
	r.bytes = rec.Body.Len()

	params := req.cypherParams()
	at := int64(0) // offset of the next re-enacted child inside the root
	child := func(parent int, layer, name string, fn func() error) (time.Duration, int, error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		id := tr.reenact(op, parent, layer, name, at, d)
		at += int64(d)
		return d, id, err
	}
	var plan *cypher.Query
	var err error
	if r.get, _, err = child(root, "cypher", "plan_cache_get", func() (err error) {
		plan, err = cache.Get(req.query)
		return err
	}); err != nil {
		return r, err
	}
	var g *graph.Graph
	var release func()
	r.acquire, _, _ = child(root, "graph", "acquire", func() error {
		g, _, release = mv.Acquire()
		return nil
	})
	defer release()
	var res *cypher.Result
	var execID int
	if r.exec, execID, err = child(root, "cypher", "exec", func() (err error) {
		res, err = cypher.Exec(ctx, g, plan, cypher.ExecOptions{ParamVals: params, MaxRows: 100000, Parallelism: parallelism, MaxMemBytes: 256 << 20})
		return err
	}); err != nil {
		return r, err
	}
	r.rows = res.Len()
	r.estimate, _, _ = child(root, "cypher", "estimate", func() error {
		cypher.EstimateQuery(g, plan, params)
		return nil
	})
	if kind == "lookup" {
		// The index probe the executor starts a lookup with, placed
		// inside the exec span it is part of.
		t := lookupTemplates[req.class]
		t0 := time.Now()
		w.g.NodesByProp(t.label, t.key, req.key)
		r.index = time.Since(t0)
		tr.reenact(op, execID, "graph", "index_lookup", 0, r.index)
	}
	t0 = time.Now()
	if _, err := json.Marshal(res.Native()); err != nil {
		return r, err
	}
	r.encode = time.Since(t0)
	return r, nil
}

// queries replays a prefix of the lookup stream and a few analytics
// rounds in process, and times the parser, the planner's estimator and the
// analytics kernels on their own.
func (w *walk) queries(ctx context.Context) error {
	// A store of its own over the staged graph: the live step may have
	// published into w.db, and the oracle answered for generation 1.
	mv := graph.NewMVStore(w.g)
	cache := cypher.NewPlanCache(0)
	srv := server.New(mv, server.Config{Cache: cypher.NewPlanCache(0)})

	// Lookups. Both plan caches see the same texts in the same order.
	perTemplate := make([][]float64, len(lookupTemplates))
	var overhead, sizes []float64
	for i := 0; i < replayLookups; i++ {
		req := &w.lookups.reqs[w.lookups.order[i%len(w.lookups.order)]]
		r, err := w.replay(ctx, "lookup", srv, mv, cache, req, 0)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", req.query, err)
		}
		perTemplate[req.class] = append(perTemplate[req.class], float64(r.exec.Nanoseconds())/1e3)
		overhead = append(overhead, float64((r.handler-r.get-r.acquire-r.exec-r.estimate).Nanoseconds())/1e3)
		sizes = append(sizes, float64(r.bytes))
	}
	for k, t := range lookupTemplates {
		w.set("cypher.exec_"+t.name+"_us", median(perTemplate[k]))
	}
	stats := cache.Stats()
	w.set("cypher.plan_cache_hit_ratio", ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)))
	w.set("server.overhead_lookup_us", median(overhead))
	w.set("server.response_bytes_p50", median(sizes))

	// The parser and the estimator on the distinct texts of that prefix.
	var parse, estimate []float64
	for i := range w.lookups.reqs[:min(2000, len(w.lookups.reqs))] {
		req := &w.lookups.reqs[i]
		t0 := time.Now()
		plan, err := cypher.Parse(req.query)
		if err != nil {
			return fmt.Errorf("parse: %s: %w", req.query, err)
		}
		parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
		params := req.cypherParams()
		t0 = time.Now()
		cypher.EstimateQuery(w.g, plan, params)
		estimate = append(estimate, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	w.set("cypher.parse_us", median(parse))
	w.set("cypher.estimate_us", median(estimate))

	// Analytics rounds, then each class once more serially.
	var mem0, mem1 runtime.MemStats
	var roundOverhead []float64
	perClass := make([][]replayed, len(analyticsClasses))
	allocs := make([]float64, len(analyticsClasses))
	bytesPer := make([]float64, len(analyticsClasses))
	for round := 0; round <= replayRounds; round++ {
		over := 0.0
		for k := range w.rounds.reqs {
			runtime.ReadMemStats(&mem0)
			r, err := w.replay(ctx, "analytics", srv, mv, cache, &w.rounds.reqs[k], 0)
			if err != nil {
				return fmt.Errorf("replay: %s: %w", analyticsClasses[k].name, err)
			}
			runtime.ReadMemStats(&mem1)
			if round == 0 {
				continue // warm-up: plan caches, the CSR view behind pagerank
			}
			perClass[k] = append(perClass[k], r)
			// Handler and re-enactment both ran the query.
			allocs[k] += float64(mem1.Mallocs-mem0.Mallocs) / 2 / replayRounds
			bytesPer[k] += float64(mem1.TotalAlloc-mem0.TotalAlloc) / 2 / replayRounds
			over += ms(r.handler - r.get - r.acquire - r.exec - r.estimate)
		}
		if round > 0 {
			roundOverhead = append(roundOverhead, over)
		}
	}
	w.set("server.overhead_analytics_ms", median(roundOverhead))
	for k, c := range analyticsClasses {
		var exec []float64
		for _, r := range perClass[k] {
			exec = append(exec, ms(r.exec))
		}
		serial, err := w.replay(ctx, "analytics_serial", srv, mv, cache, &w.rounds.reqs[k], 1)
		if err != nil {
			return err
		}
		w.set("cypher.exec_"+c.name+"_ms", median(exec))
		w.set("cypher.allocs_"+c.name, allocs[k])
		w.set("cypher.bytes_"+c.name, bytesPer[k])
		w.set("cypher.rows_"+c.name, float64(perClass[k][0].rows))
		w.set("cypher.par_speedup_"+c.name, ms(serial.exec)/median(exec))
		if c.name == "rpki_tag_coverage" {
			var enc []float64
			for _, r := range perClass[k] {
				enc = append(enc, ms(r.encode))
			}
			w.set("server.encode_rpki_ms", median(enc))
		}
	}

	op := w.tr.op("algo")
	var view *algo.View
	d, _ := w.tr.call(op, 0, "algo", "view_build", func(int) error {
		view = algo.NewView(w.g, algo.ViewOptions{Labels: []string{"AS"}, RelTypes: []string{"PEERS_WITH"}})
		return nil
	})
	w.set("algo.view_build_ms", ms(d))
	d, err := w.tr.call(op, 0, "algo", "pagerank", func(int) error {
		_, _, err := algo.PageRank(ctx, view, algo.PageRankOptions{})
		return err
	})
	if err != nil {
		return err
	}
	w.set("algo.pagerank_ms", ms(d))
	return nil
}

// studies runs the paper's evaluation study by study, as studies.RunAll
// does, on the staged graph.
func (w *walk) studies(context.Context) error {
	g, op := w.g, w.tr.op("studies")
	groups := []struct {
		name string
		run  func() error
	}{
		{"rpki", func() error {
			if _, err := studies.RPKI(g); err != nil {
				return err
			}
			if _, err := studies.RPKIByCategory(g, []string{"Academic", "Government", "DDoS Mitigation", "Content Delivery Network"}); err != nil {
				return err
			}
			if _, err := studies.NameserverRPKI(g); err != nil {
				return err
			}
			_, err := studies.DomainWeightedRPKI(g)
			return err
		}},
		{"dns_best_practice", func() error { _, err := studies.DNSBestPractice(g); return err }},
		{"shared_infra", func() error { _, err := studies.SharedInfrastructure(g); return err }},
		{"spof", func() error {
			if _, err := studies.SPoF(g, studies.TrancoRankingName, "country", 10); err != nil {
				return err
			}
			_, err := studies.SPoF(g, studies.TrancoRankingName, "AS", 10)
			return err
		}},
		{"comparison", func() error { _, err := studies.CompareOriginDatasets(g); return err }},
	}
	var total time.Duration
	for _, s := range groups {
		d, err := w.tr.call(op, 0, "studies", s.name, func(int) error { return s.run() })
		if err != nil {
			return fmt.Errorf("studies: %s: %w", s.name, err)
		}
		total += d
		w.set("studies."+s.name+"_s", d.Seconds())
	}
	w.set("studies.run_s", total.Seconds())
	return nil
}

// deltaAndDiff publishes generation 2 by delta build, diffs it against
// generation 1, and reads generation 1 back through AS OF.
func (w *walk) deltaAndDiff(ctx context.Context) error {
	tr := w.tr
	var delta *core.DeltaResult
	d, err := tr.call(tr.op("delta"), 0, "core", "build_delta", func(int) (err error) {
		delta, err = core.BuildDelta(ctx, core.DeltaOptions{
			Build:    core.BuildOptions{Config: w.cfg},
			StoreDir: w.store.Dir(),
			Keep:     4,
			Datasets: []string{deltaDataset},
		})
		return err
	})
	if err != nil {
		return err
	}
	w.set("core.delta_s", d.Seconds())
	w.set("core.delta_rels_deleted", float64(delta.RelsDeleted))
	w.set("core.delta_dict_carried_ratio", ratio(float64(delta.DictCarried), float64(delta.DictTotal)))
	w.res.Attempted++
	if delta.Graph.NumNodes() != w.g.NumNodes() || delta.Graph.NumRels() != w.g.NumRels() {
		w.res.Failed++
		w.res.note(fmt.Errorf("delta build: %d nodes / %d rels, the full build had %d / %d",
			delta.Graph.NumNodes(), delta.Graph.NumRels(), w.g.NumNodes(), w.g.NumRels()))
	}

	// The kernel on the two graphs at hand, at all workers as CALL
	// temporal.diff runs it and at one.
	op := tr.op("diff")
	from, to := w.g, delta.Graph.Freeze()
	var one, all *temporal.DiffResult
	d, err = tr.call(op, 0, "temporal", "diff_wmax", func(int) (err error) {
		all, err = temporal.Diff(ctx, from, to, temporal.DiffOptions{})
		return err
	})
	if err != nil {
		return err
	}
	w.set("temporal.diff_wmax_s", d.Seconds())
	w.set("temporal.diff_changed", float64(all.Nodes.Changed+all.Rels.Changed))
	d, err = tr.call(tr.op("diff_serial"), 0, "temporal", "diff_w1", func(int) (err error) {
		one, err = temporal.Diff(ctx, from, to, temporal.DiffOptions{Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	w.set("temporal.diff_w1_s", d.Seconds())
	w.res.Attempted++
	if one.String() != all.String() {
		w.res.Failed++
		w.res.note(fmt.Errorf("temporal.Diff differs between 1 worker and all"))
	}

	// Generation 1 read back through AS OF from a freshly opened store:
	// first from disk, then from the history cache.
	var opened *iyp.DB
	if _, err = tr.call(op, 0, "graph", "open_store", func(int) (err error) {
		opened, _, err = iyp.OpenStore(w.store.Dir())
		return err
	}); err != nil {
		return err
	}
	const asOf = `MATCH (a:AS) RETURN count(a) AS n AS OF 1`
	for _, name := range []string{"asof_cold", "asof_warm"} {
		d, err := tr.call(tr.op("asof"), 0, "temporal", name, func(int) error {
			_, err := opened.Query(ctx, asOf)
			return err
		})
		if err != nil {
			return err
		}
		w.set("temporal."+name+"_ms", ms(d))
	}
	return nil
}

// follower lets an in-process replica.Follower pick up the store: a cold
// load of the head, then a reload of one more published generation, then
// polls that find nothing new.
func (w *walk) follower(context.Context) error {
	tr, op := w.tr, w.tr.op("reload")
	mv := graph.NewMVStore(graph.New())
	f := replica.New(w.store, mv, replica.Config{})
	poll := func(name string) (time.Duration, error) {
		return tr.call(op, 0, "replica", name, func(int) error {
			if out := f.Poll(); !out.Loaded {
				return fmt.Errorf("replica: %s: nothing loaded: %v", name, out.Err)
			}
			return nil
		})
	}
	d, err := poll("cold_load")
	if err != nil {
		return err
	}
	w.set("replica.cold_load_s", d.Seconds())

	// What the storage step's burst wrote is the next generation.
	if _, err := w.store.Save(w.written.Graph()); err != nil {
		return err
	}
	if d, err = poll("reload"); err != nil {
		return err
	}
	w.set("replica.reload_s", d.Seconds())

	const idlePolls = 200
	d, _ = tr.call(op, 0, "replica", "poll_idle", func(int) error {
		for i := 0; i < idlePolls; i++ {
			f.Poll()
		}
		return nil
	})
	w.set("replica.poll_idle_us", float64(d.Nanoseconds())/1e3/idlePolls)
	return nil
}
