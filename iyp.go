// Package iyp is the public API of the Internet Yellow Pages reproduction:
// a knowledge graph for Internet resources (Fontugne et al., IMC 2024),
// rebuilt in pure Go. It bundles a labeled property-graph database, a
// Cypher query engine, the IYP ontology, 47 dataset crawlers fed by a
// deterministic synthetic-Internet simulator, and the refinement passes
// that fuse everything into one harmonized database.
//
// Quick start:
//
//	db, err := iyp.Build(ctx, iyp.Options{})
//	res, err := db.Query(ctx, `MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn`)
//
// Queries accept a context for cancellation and functional options for
// parameters, deadlines and row budgets:
//
//	res, err := db.Query(ctx, `MATCH (x:AS {asn: $asn}) RETURN x.name`,
//		iyp.WithParams(map[string]iyp.Value{"asn": iyp.IntValue(2497)}),
//		iyp.WithTimeout(2*time.Second),
//		iyp.WithMaxRows(1000))
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package iyp

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"iyp/internal/algo" // imported for CALL algo.* registration + view cache hooks
	"iyp/internal/core"
	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/server"
	"iyp/internal/simnet"
	"iyp/internal/source"
	"iyp/internal/temporal" // CALL temporal.* registration + AS-OF history
)

// Options configures Build. The zero value builds the default-scale graph
// (3k ASes, 20k ranked domains) with in-process dataset fetching.
type Options struct {
	// Scale multiplies the default dataset sizes (0 = 1.0). 0.1 builds a
	// small graph in well under a second; 5 approaches the scale knee of
	// a laptop build.
	Scale float64
	// Seed fixes the synthetic-Internet seed (0 = default 42).
	Seed int64
	// Config, when non-zero, overrides Scale/Seed entirely.
	Config simnet.Config
	// UseHTTP fetches datasets over a real localhost HTTP server instead
	// of in-process.
	UseHTTP bool
	// Concurrency bounds parallel crawlers (0 = 4).
	Concurrency int
	// CrawlerTimeout bounds each dataset crawler's run (0 = none). A hung
	// feed is abandoned and reported failed; its staged writes are
	// discarded and the rest of the build proceeds.
	CrawlerTimeout time.Duration
	// MinSuccessRate is the fraction of datasets in (0,1] that must ingest
	// successfully, else Build fails. 0 means best-effort: any number of
	// dataset failures still yields a (degraded) snapshot.
	MinSuccessRate float64
	// CriticalDatasets lists dataset names (e.g. "bgpkit.pfx2asn") whose
	// failure always fails the build.
	CriticalDatasets []string
	// CheckpointDir, when set, makes the build resumable: every committed
	// dataset is journaled there, so an interrupted build can be restarted
	// with Resume without re-fetching finished datasets. Remove the
	// directory once the snapshot is saved.
	CheckpointDir string
	// Resume restores progress from CheckpointDir before crawling; a
	// checkpoint from a different configuration is ignored.
	Resume bool
	// Logf receives build progress (nil = silent).
	Logf func(format string, args ...any)
}

// DB is a built (or loaded) IYP knowledge graph.
//
// A DB is versioned: the graph is held as a sequence of immutable
// generations behind an MVCC store. Reads (Query, Snapshot, Stats,
// Explain) pin one generation and run lock-free against it; writes
// (Update, ApplyBatch, and write queries through Query) build the next
// generation from a copy-on-write clone and publish it atomically. Readers
// are never blocked by writers and never observe a half-applied write.
type DB struct {
	store   *graph.MVStore
	cache   *cypher.PlanCache
	history *temporal.History // nil until AttachHistory / OpenStore
	// Report holds the per-dataset import outcome (empty for loaded
	// snapshots).
	Report ingest.Report
	// BuildFingerprint identifies the build's inputs (config + dataset
	// list) and BuildFetchTime its provenance timestamp; both are zero for
	// loaded snapshots. They key the generation store's DATASETS manifest,
	// which is what makes incremental delta builds possible.
	BuildFingerprint string
	BuildFetchTime   time.Time
}

func newDB(g *graph.Graph) *DB { return newDBAt(g, 1) }

// newDBAt is newDB with an explicit starting generation number, used when
// the graph came from a generation store whose on-disk sequence numbers
// should stay meaningful as AS-OF targets.
func newDBAt(g *graph.Graph, gen uint64) *DB {
	st := graph.NewMVStoreAt(g, gen)
	// Drop the analytics CSR views of a generation when the store reclaims
	// it, so superseded generations don't linger in the view cache.
	st.OnRetire(algo.InvalidateViews)
	return &DB{store: st, cache: cypher.NewPlanCache(0)}
}

// Build constructs the knowledge graph: simulate the Internet, render the
// 47 datasets, crawl them all, refine, index.
func Build(ctx context.Context, opts Options) (*DB, error) {
	cfg := opts.Config
	if cfg.NumASes == 0 {
		cfg = simnet.DefaultConfig()
		if opts.Scale > 0 {
			cfg = cfg.Scale(opts.Scale)
		}
		if opts.Seed != 0 {
			cfg.Seed = opts.Seed
		}
	}
	res, err := core.Build(ctx, core.BuildOptions{
		Config:           cfg,
		UseHTTP:          opts.UseHTTP,
		Concurrency:      opts.Concurrency,
		CrawlerTimeout:   opts.CrawlerTimeout,
		MinSuccessRate:   opts.MinSuccessRate,
		CriticalDatasets: opts.CriticalDatasets,
		CheckpointDir:    opts.CheckpointDir,
		Resume:           opts.Resume,
		Logf:             opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	db := newDB(res.Graph)
	db.Report = res.Report
	db.BuildFingerprint = res.Fingerprint
	db.BuildFetchTime = res.FetchTime
	return db, nil
}

// Wrap exposes an existing graph as a DB (used by tests and studies that
// build through internal/core directly). The DB takes ownership: the graph
// is frozen as generation 1 and must not be mutated directly afterwards —
// use Update or write queries.
func Wrap(g *graph.Graph) *DB { return newDB(g) }

// Graph returns the current generation's graph. It is immutable (reads
// are lock-free; mutations panic): to change the graph, use Update,
// ApplyBatch, or a write query through Query.
func (db *DB) Graph() *graph.Graph { return db.store.Current() }

// Store exposes the underlying MVCC generation store for callers that
// need pin-level control (the HTTP server, benchmarks).
func (db *DB) Store() *graph.MVStore { return db.store }

// Update runs fn against a private mutable clone of the current
// generation and, when fn succeeds, publishes the result as the next
// generation, returning its number. On error the clone is discarded and
// the DB is untouched — writes are atomic at generation granularity.
// Concurrent readers keep their pinned generation throughout.
func (db *DB) Update(fn func(*graph.Graph) error) (uint64, error) {
	return db.store.Update(fn)
}

// ApplyBatch publishes a staged write-batch (see graph.NewBatch) as one
// new generation and reports what it created plus the generation number.
func (db *DB) ApplyBatch(b *graph.Batch) (graph.BatchResult, uint64, error) {
	return db.store.ApplyBatch(b)
}

// CurrentGeneration returns the number of the generation serving reads.
func (db *DB) CurrentGeneration() uint64 { return db.store.CurrentGen() }

// Generations lists the generations currently available to SnapshotAt /
// WithGeneration, newest last.
func (db *DB) Generations() []graph.GenInfo { return db.store.Generations() }

// RetainGenerations sets how many superseded generations stay available
// to SnapshotAt / WithGeneration with no reader pinning them (default
// graph.DefaultRetain). Pinned generations always survive until released.
func (db *DB) RetainGenerations(n int) { db.store.SetRetain(n) }

// Snapshot pins the current generation and returns it as a read view plus
// a release function. Until release is called the snapshot's generation
// stays available, unaffected by concurrent writes; every query on it is
// lock-free. release is idempotent; forgetting it keeps the generation
// alive (holding memory) until the process exits.
func (db *DB) Snapshot() (*Snapshot, func()) {
	g, gen, release := db.store.Acquire()
	return &Snapshot{db: db, g: g, gen: gen}, release
}

// SnapshotAt pins a specific retained generation — the AS-OF read path.
// It fails when gen has been reclaimed or never published.
func (db *DB) SnapshotAt(gen uint64) (*Snapshot, func(), error) {
	g, release, err := db.store.AcquireGen(gen)
	if err != nil {
		return nil, nil, err
	}
	return &Snapshot{db: db, g: g, gen: gen}, release, nil
}

// Snapshot is a pinned, immutable read view of one generation. All reads
// on it are lock-free and mutually consistent: two queries on the same
// Snapshot always see the same graph, regardless of concurrent writes to
// the DB. A Snapshot is valid until its release function is called.
type Snapshot struct {
	db  *DB
	g   *graph.Graph
	gen uint64
}

// Generation returns the pinned generation number.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Graph returns the pinned (immutable) graph.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Stats summarizes the pinned generation's contents.
func (s *Snapshot) Stats() graph.Stats { return s.g.Stats() }

// Explain describes how a query would be matched against the pinned
// generation without executing it. Of the options only WithParams matters:
// a parameterized lookup is explained the way it will execute.
func (s *Snapshot) Explain(q string, opts ...QueryOption) (string, error) {
	return explain(s.g, q, opts)
}

func explain(g *graph.Graph, q string, opts []QueryOption) (string, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	plan, err := cypher.Parse(q)
	if err != nil {
		return "", err
	}
	return cypher.ExplainQuery(g, plan, cfg.params), nil
}

// Query runs a read-only Cypher query against the pinned generation,
// mirroring DB.Query. Write queries fail: a snapshot is immutable by
// definition — run writes through DB.Query or DB.Update instead.
func (s *Snapshot) Query(ctx context.Context, q string, opts ...QueryOption) (*cypher.Result, error) {
	cfg, ctx, cancel := buildQueryConfig(ctx, opts)
	defer cancel()
	if cfg.genSet && cfg.generation != s.gen {
		return nil, fmt.Errorf("iyp: WithGeneration(%d) conflicts with snapshot generation %d", cfg.generation, s.gen)
	}
	plan, err := s.db.cache.Get(q)
	if err != nil {
		return nil, err
	}
	execOpts := cfg.execOptions()
	execOpts.GenResolver = s.db.genResolver()
	if gen, ok, err := cypher.AsOfGeneration(plan, execOpts); err != nil {
		return nil, err
	} else if ok && gen != s.gen {
		return nil, fmt.Errorf("iyp: AS OF %d conflicts with snapshot generation %d", gen, s.gen)
	}
	return cypher.Exec(ctx, s.g, plan, execOpts)
}

// QueryOption configures a single Query call.
type QueryOption func(*queryConfig)

type queryConfig struct {
	params      map[string]cypher.Val
	timeout     time.Duration
	maxRows     int
	parallelism int
	maxMem      int64
	generation  uint64
	genSet      bool
}

func (c *queryConfig) execOptions() cypher.ExecOptions {
	return cypher.ExecOptions{
		ParamVals:   c.params,
		MaxRows:     c.maxRows,
		Parallelism: c.parallelism,
		MaxMemBytes: c.maxMem,
	}
}

// buildQueryConfig applies options and attaches the timeout to ctx. The
// returned cancel is always non-nil.
func buildQueryConfig(ctx context.Context, opts []QueryOption) (queryConfig, context.Context, context.CancelFunc) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := func() {}
	if cfg.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
	}
	return cfg, ctx, cancel
}

// WithParams supplies $parameter values for the query.
func WithParams(params map[string]Value) QueryOption {
	vals := make(map[string]cypher.Val, len(params))
	for k, v := range params {
		vals[k] = cypher.ScalarVal(v)
	}
	return func(c *queryConfig) { c.params = vals }
}

// WithTimeout bounds the query's execution time. The deadline is enforced
// cooperatively inside the engine's match, aggregation and projection
// loops, so even pathological queries stop promptly. It composes with any
// deadline already on the context — whichever expires first wins.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.timeout = d }
}

// WithMaxRows bounds the number of result rows. When the budget cuts the
// result short, Result.Truncated is set; where the query shape allows it,
// enumeration stops early instead of materializing everything and
// trimming.
func WithMaxRows(n int) QueryOption {
	return func(c *queryConfig) { c.maxRows = n }
}

// WithParallelism bounds the worker count for morsel-parallel MATCH
// execution: 0 (the default) uses GOMAXPROCS, 1 forces serial execution,
// and any larger value caps the pool. Result tables are byte-identical at
// every setting, so the knob trades only latency against CPU.
func WithParallelism(n int) QueryOption {
	return func(c *queryConfig) { c.parallelism = n }
}

// WithMaxMemory bounds the bytes the query may materialize across match
// rows, UNWIND expansion, projection, aggregation buffers and sort keys.
// A query passing the budget aborts with an error satisfying
// errors.Is(err, cypher.ErrMemoryBudget). The accounting is a conservative
// over-approximation, so real allocations stay bounded by a small multiple
// of the budget; 0 (the default) means unlimited.
func WithMaxMemory(bytes int64) QueryOption {
	return func(c *queryConfig) { c.maxMem = bytes }
}

// WithGeneration pins the query to a specific retained generation instead
// of the current one — the foundation for AS-OF queries. The query fails
// when the generation has been reclaimed (see RetainGenerations) and when
// combined with a write query (superseded generations are immutable
// history).
func WithGeneration(gen uint64) QueryOption {
	return func(c *queryConfig) { c.generation = gen; c.genSet = true }
}

// Query runs a Cypher query under ctx. Cancellation and deadlines are
// honoured mid-query. Parsed plans are cached per DB, so repeating a query
// string skips the parser. Options tune parameters, deadline, row budget
// and generation pinning per call.
//
// Reads run against a snapshot acquired and released internally, so every
// call sees one consistent generation even while writes land concurrently.
// Write queries (CREATE, MERGE, SET, DELETE, REMOVE) run as an atomic
// writer transaction: they build the next generation and publish it on
// success, or leave the DB untouched on error.
func (db *DB) Query(ctx context.Context, q string, opts ...QueryOption) (*cypher.Result, error) {
	cfg, ctx, cancel := buildQueryConfig(ctx, opts)
	defer cancel()
	plan, err := db.cache.Get(q)
	if err != nil {
		return nil, err
	}
	execOpts := cfg.execOptions()
	execOpts.GenResolver = db.genResolver()
	// A trailing `AS OF <gen>` suffix pins the statement to a historical
	// generation, exactly like WithGeneration; both at once must agree.
	if gen, ok, err := cypher.AsOfGeneration(plan, execOpts); err != nil {
		return nil, err
	} else if ok {
		if cfg.genSet && cfg.generation != gen {
			return nil, fmt.Errorf("iyp: AS OF %d conflicts with WithGeneration(%d)", gen, cfg.generation)
		}
		cfg.generation, cfg.genSet = gen, true
	}
	if plan.IsWrite() {
		if cfg.genSet {
			return nil, fmt.Errorf("iyp: write query cannot run against pinned generation %d (superseded generations are immutable)", cfg.generation)
		}
		var res *cypher.Result
		if _, err := db.store.Update(func(g *graph.Graph) error {
			var err error
			res, err = cypher.Exec(ctx, g, plan, execOpts)
			return err
		}); err != nil {
			return nil, err
		}
		return res, nil
	}
	var g *graph.Graph
	var release func()
	if cfg.genSet {
		g, release, err = db.store.AcquireGen(cfg.generation)
		if err != nil {
			return nil, err
		}
	} else {
		g, _, release = db.store.Acquire()
	}
	defer release()
	return cypher.Exec(ctx, g, plan, execOpts)
}

// genResolver exposes AcquireGen (with its history fallback) to
// cross-generation procedures like temporal.diff.
func (db *DB) genResolver() cypher.GenResolver {
	return func(gen uint64) (*graph.Graph, func(), error) {
		return db.store.AcquireGen(gen)
	}
}

// Stats summarizes the current generation's contents.
func (db *DB) Stats() graph.Stats { return db.Graph().Stats() }

// Explain describes how a query would be matched (anchor and access-path
// choice per MATCH pattern) without executing it; see Snapshot.Explain.
func (db *DB) Explain(q string, opts ...QueryOption) (string, error) {
	return explain(db.Graph(), q, opts)
}

// Save writes a compressed snapshot of the current generation to path (the
// equivalent of the weekly public dumps, paper §3.1).
func (db *DB) Save(path string) error { return db.Graph().SaveFile(path) }

// Load reads a snapshot produced by Save.
func Load(path string) (*DB, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return newDB(g), nil
}

// OpenStore serves a generation-store directory (written by iyp-build
// -store): the newest generation that passes verification becomes the
// current one, the in-memory generation numbering is aligned with the
// store's on-disk sequence numbers, and the store is attached as AS-OF
// history — older persisted generations stay queryable through
// WithGeneration / `AS OF` even though only the head is materialized
// up-front. The report says which generation was loaded and which were
// skipped.
func OpenStore(dir string) (*DB, graph.OpenReport, error) {
	st, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		return nil, graph.OpenReport{}, err
	}
	g, report, err := st.Open()
	if err != nil {
		return nil, report, err
	}
	db := newDBAt(g, report.Loaded.Seq)
	db.history = temporal.Attach(db.store, st, 0)
	return db, report, nil
}

// AttachHistory wires the DB's AS-OF fallback to an on-disk generation
// store: WithGeneration / `AS OF` reads that miss the in-memory retain
// window materialize the persisted gen-NNNNNN.snapshot instead of failing.
// maxResident bounds how many historical generations stay materialized at
// once (0 = temporal.DefaultMaxResident); pinned generations are never
// evicted, and resident ones are shielded from the store's keep-N pruning.
func (db *DB) AttachHistory(store *graph.Store, maxResident int) *temporal.History {
	db.history = temporal.Attach(db.store, store, maxResident)
	return db.history
}

// History returns the AS-OF materialization cache, nil when none is
// attached.
func (db *DB) History() *temporal.History { return db.history }

// Handler returns the HTTP query API handler for running a public
// read-only instance: POST /v1/query, POST /v1/explain, GET /v1/schema,
// GET /v1/stats (plus legacy /db/* aliases), GET /metrics and
// GET /healthz. The handler shares the DB's plan cache.
func (db *DB) Handler() http.Handler {
	return server.New(db.store, server.Config{Cache: db.cache})
}

// ListenAndServe runs the query API on addr until ctx is done.
func (db *DB) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           db.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errc:
		return fmt.Errorf("iyp: serve: %w", err)
	}
}

// Fetcher is re-exported for custom-dataset integrations (see
// examples/custom-dataset).
type Fetcher = source.Fetcher

// Value is the property/parameter value type, re-exported so callers can
// build query parameters without importing internal packages.
type Value = graph.Value

// StringValue wraps a string parameter.
func StringValue(s string) Value { return graph.String(s) }

// IntValue wraps an integer parameter.
func IntValue(i int64) Value { return graph.Int(i) }

// FloatValue wraps a float parameter.
func FloatValue(f float64) Value { return graph.Float(f) }

// BoolValue wraps a boolean parameter.
func BoolValue(b bool) Value { return graph.Bool(b) }

// ListValue wraps a list parameter.
func ListValue(vs ...Value) Value { return graph.List(vs...) }
