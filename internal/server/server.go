// Package server implements the HTTP query API of the public IYP instance
// (paper §3.1): a JSON endpoint for Cypher queries plus schema, statistics
// and metrics endpoints. It is the reproduction's equivalent of the Neo4j
// HTTP API the paper's public deployment exposes, hardened for arbitrary
// user Cypher under heavy load: every query runs under a deadline and a
// row budget, one admission path (budgets, degrade ladder, bounded queue)
// sheds load it cannot serve, a plan cache parses each distinct query text
// once, and GET /metrics exposes the serving counters.
//
// The server reads through the MVCC generation store: every query pins one
// immutable generation for its whole execution — lock-free reads, no
// torn results while ingestion publishes new generations — and clients can
// pin an explicit generation across requests with the "generation" request
// field (GET /v1/generations lists what is available). The API is
// read-only; write queries are rejected with code "read_only".
//
// Endpoints are versioned under /v1/ (POST /v1/query, POST /v1/explain,
// GET /v1/schema, GET /v1/stats, GET /v1/generations); the original /db/*
// paths remain as deprecated aliases for existing clients — they emit
// Deprecation/Sunset headers and can be disabled entirely with
// Config.DisableLegacy (iyp-serve -legacy=false), turning them into 410s.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/ontology"
	"iyp/internal/replica"
	"iyp/internal/temporal"
)

// Config tunes the serving layer. The zero value serves with production
// defaults; see the field comments for each.
type Config struct {
	// Cache is the plan cache to use (nil = a fresh cache of
	// cypher.DefaultPlanCacheSize entries). Sharing one cache between
	// the HTTP server and embedded DB queries maximizes hit rate.
	Cache *cypher.PlanCache
	// DefaultTimeout bounds queries that don't request their own
	// timeout_ms (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms field (0 = 2m).
	MaxTimeout time.Duration
	// DefaultMaxRows bounds result rows when the request doesn't set
	// max_rows (0 = 100000).
	DefaultMaxRows int
	// MaxConcurrent bounds queries executing at once; excess requests
	// queue up to QueueDepth, then shed with 503 (0 = 64).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot beyond
	// MaxConcurrent (0 = 2×MaxConcurrent; < 0 disables queueing — at
	// capacity requests shed immediately).
	QueueDepth int
	// MaxQueueWait bounds how long a request may wait queued before it is
	// shed with 503 + Retry-After (0 = 2s).
	MaxQueueWait time.Duration
	// ClientQPS is the per-client sustained admission rate (token bucket
	// keyed by client IP / first X-Forwarded-For hop). 0 disables
	// per-client budgets.
	ClientQPS float64
	// ClientBurst is the bucket capacity for ClientQPS (0 = max(10,
	// 2×ClientQPS)).
	ClientBurst float64
	// MaxQueryMem bounds the memory one query may materialize (rows,
	// aggregation buffers, sort keys); exceeding it aborts the query with
	// code "memory_budget" (0 = 256 MiB; < 0 disables the budget).
	MaxQueryMem int64
	// SlowQuery is the latency above which a completed query is logged
	// through Logf (0 = 1s).
	SlowQuery time.Duration
	// DisableLegacy turns the deprecated /db/* aliases into 410 Gone
	// responses instead of serving them (with deprecation headers).
	DisableLegacy bool
	// Replica, when set, marks this server as a read replica following a
	// generation store. GET /v1/ready answers from its status (503 until
	// the first good load, "degraded" past the staleness threshold) and
	// GET /metrics grows the iyp_replica_* family. Nil on single-process
	// servers; /v1/ready then mirrors /v1/health's view.
	Replica *replica.Follower
	// Logf receives slow-query and lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
}

// legacySunset is the advertised retirement date of the /db/* aliases,
// sent in the Sunset header (RFC 8594) alongside Deprecation (RFC 9745).
const legacySunset = "Sun, 01 Nov 2026 00:00:00 GMT"

const (
	// hardMaxRows caps the per-request max_rows field.
	hardMaxRows = 1000000
	// quarantineFor is how long a query text whose plan panicked stays
	// quarantined.
	quarantineFor = time.Minute
	// watchdogGrace is how far past its deadline an executing query may run
	// before the watchdog hard-cancels it.
	watchdogGrace = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DefaultMaxRows <= 0 {
		c.DefaultMaxRows = 100000
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 2 * time.Second
	}
	if c.MaxQueryMem == 0 {
		c.MaxQueryMem = 256 << 20
	}
	if c.MaxQueryMem < 0 {
		c.MaxQueryMem = 0
	}
	if c.SlowQuery <= 0 {
		c.SlowQuery = time.Second
	}
	return c
}

// Server serves read-only query access to the MVCC generation store.
type Server struct {
	st    *graph.MVStore
	mux   *http.ServeMux
	cfg   Config
	cache *cypher.PlanCache
	adm   *admission // admission queue, budgets, quarantine, watchdog
	met   metrics
}

// New builds the API handler over a generation store. An optional Config
// tunes timeouts, budgets and the shared plan cache; New(st) uses
// production defaults.
func New(st *graph.MVStore, cfgs ...Config) *Server {
	var cfg Config
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	cfg = cfg.withDefaults()
	cache := cfg.Cache
	if cache == nil {
		cache = cypher.NewPlanCache(0)
	}
	s := &Server{
		st:    st,
		mux:   http.NewServeMux(),
		cfg:   cfg,
		cache: cache,
		adm: newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.MaxQueueWait,
			cfg.ClientQPS, cfg.ClientBurst, quarantineFor, watchdogGrace),
	}
	s.adm.lat.limit = 2 * cfg.SlowQuery // a tail past it bumps the degrade ladder
	endpoints := []struct {
		pattern string // method + path, relative to the prefix
		h       http.HandlerFunc
	}{
		{"POST %s/query", s.handleQuery},
		{"POST %s/explain", s.handleExplain},
		{"GET %s/schema", s.handleSchema},
		{"GET %s/stats", s.handleStats},
		{"GET %s/generations", s.handleGenerations},
		{"GET %s/diff", s.handleDiff},
	}
	for _, ep := range endpoints {
		s.mux.HandleFunc(fmt.Sprintf(ep.pattern, "/v1"), ep.h)
		s.mux.HandleFunc(fmt.Sprintf(ep.pattern, "/db"), s.legacy(ep.h))
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/ready", s.handleReady)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return s
}

// legacy wraps a handler for the deprecated /db/* aliases: it advertises
// the deprecation on every response and, when the aliases are disabled,
// answers 410 Gone pointing clients at the /v1 path.
func (s *Server) legacy(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		successor := "/v1" + strings.TrimPrefix(r.URL.Path, "/db")
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", legacySunset)
		w.Header().Set("Link", `<`+successor+`>; rel="successor-version"`)
		if s.cfg.DisableLegacy {
			writeError(w, http.StatusGone, "legacy_disabled",
				"the /db/* aliases are disabled on this server; use "+successor)
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type queryRequest struct {
	Query  string         `json:"query"`
	Params map[string]any `json:"params"`
	// TimeoutMS overrides the server's default query deadline, capped at
	// Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms"`
	// MaxRows overrides the server's default row budget, capped at
	// hardMaxRows.
	MaxRows int `json:"max_rows"`
	// Parallelism bounds the worker count for morsel-parallel MATCH
	// execution: 0 uses all CPUs, 1 forces serial execution. Results are
	// identical at any setting. Capped at the server's CPU count.
	Parallelism int `json:"parallelism"`
	// Generation pins the query to a specific generation (see
	// GET /v1/generations); 0 means the current one. When the store has
	// persisted history attached, generations beyond the in-memory retain
	// window are materialized from disk; otherwise queries against a
	// reclaimed generation fail with code "generation_gone". The in-query
	// `AS OF <gen>` suffix is equivalent (and must agree when both are
	// given).
	Generation uint64 `json:"generation"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is a stable, machine-readable error class: bad_request,
	// parse_error, query_error, timeout, canceled, overloaded,
	// budget_exhausted, plan_quarantined, memory_budget, internal_panic,
	// read_only, generation_gone, legacy_disabled. Responses with status
	// 429 or 503 also carry a Retry-After header (seconds).
	Code string `json:"code"`
}

// estimateQuery is cypher.EstimateQuery behind a variable so a test can
// count how often a request asks for it.
var estimateQuery = cypher.EstimateQuery

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Decode before admitting: shedding decisions are cost-aware, and a
	// 1 MiB-capped JSON decode is noise next to query execution.
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing query")
		return
	}

	client := clientKey(r)
	// Per-client budget first: one token per request, parse errors
	// included — the budget is for server attention, not successes.
	if s.adm.buckets != nil {
		if ok, retry := s.adm.buckets.take(client); !ok {
			s.met.shed(shedReasonBudget)
			writeShed(w, http.StatusTooManyRequests, "budget_exhausted",
				"client query budget exhausted, slow down", retry)
			return
		}
	}

	params, err := decodeParams(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	// Cap timeout_ms before converting: a huge value would overflow the
	// Duration into an already-expired deadline.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = s.cfg.MaxTimeout
		if req.TimeoutMS <= s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	maxRows := s.cfg.DefaultMaxRows
	if req.MaxRows > 0 {
		maxRows = min(req.MaxRows, hardMaxRows)
	}
	parallelism := req.Parallelism
	if parallelism < 0 {
		parallelism = 1
	}
	if max := runtime.GOMAXPROCS(0); parallelism > max {
		parallelism = max
	}

	t0 := time.Now()
	plan, err := s.cache.Get(req.Query)
	if err != nil {
		s.met.observe(time.Since(t0))
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	// The public instance is read-only: writes would fork the generation
	// history out from under every other client.
	if plan.IsWrite() {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "read_only",
			"this server is read-only: CREATE/MERGE/SET/DELETE/REMOVE are not allowed")
		return
	}
	// A trailing `AS OF <gen>` suffix is the in-language equivalent of the
	// "generation" request field; both at once must agree.
	if asOf, ok, err := cypher.AsOfGeneration(plan, cypher.ExecOptions{ParamVals: params}); err != nil {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "query_error", err.Error())
		return
	} else if ok {
		if req.Generation > 0 && req.Generation != asOf {
			s.met.errors.Add(1)
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("AS OF %d conflicts with request generation %d", asOf, req.Generation))
			return
		}
		req.Generation = asOf
	}
	// Plans that panicked recently are circuit-broken: replaying a
	// crashing query in a retry loop buys nothing and costs a slot each
	// time.
	if left, blocked := s.adm.quar.blocked(req.Query); blocked {
		s.met.shed(shedReasonQuarantine)
		writeShed(w, http.StatusServiceUnavailable, "plan_quarantined",
			"this query recently crashed its plan and is quarantined, retry later", left)
		return
	}

	// Pin one immutable generation for the whole query: reads are
	// lock-free and cannot observe concurrent ingestion.
	var g *graph.Graph
	var gen uint64
	var release func()
	if req.Generation > 0 {
		var err error
		g, release, err = s.st.AcquireGen(req.Generation)
		if err != nil {
			writeError(w, http.StatusNotFound, "generation_gone", err.Error())
			return
		}
		gen = req.Generation
	} else {
		g, gen, release = s.st.Acquire()
	}
	defer release()

	// The planner's forecast feeds the degrade ladder before execution and
	// the calibration histogram after it; whichever asks first pays for it,
	// once per request.
	var forecast cypher.QueryEstimate
	forecasted := false
	estimate := func() cypher.QueryEstimate {
		if !forecasted {
			forecast, forecasted = estimateQuery(g, plan, params), true
		}
		return forecast
	}

	// Degrade ladder: under load, expensive work is refused up front so
	// cheap indexed lookups keep their latency. The estimate comes from
	// the same planner that will execute the query.
	if level := s.degradeLevel(); level >= 1 {
		est := estimate()
		retry := s.shedRetryAfter()
		switch {
		case est.Analytics:
			s.met.shed(shedReasonAnalytics)
			writeShed(w, http.StatusServiceUnavailable, "overloaded",
				"server is under load and shedding CALL algo.* analytics, retry later", retry)
			return
		case est.Cost > s.costThreshold(level):
			s.met.shed(shedReasonCost)
			writeShed(w, http.StatusServiceUnavailable, "overloaded",
				"server is under load and shedding expensive queries (estimated cost too high), retry later", retry)
			return
		case level >= 3 && !est.IndexOnly:
			s.met.shed(shedReasonIndexOnly)
			writeShed(w, http.StatusServiceUnavailable, "overloaded",
				"server is heavily loaded and serving only index-anchored queries, retry later", retry)
			return
		}
		if level >= 2 {
			parallelism = 1 // keep CPUs for the queue, not per-query fan-out
		}
	}

	// Admission: take an executing slot, queueing deadline- and
	// cancellation-aware.
	if err := s.adm.acquire(r.Context()); err != nil {
		if r.Context().Err() != nil {
			// Client disconnected while queued: give the budget token
			// back — the server never did the work it was spent on.
			if s.adm.buckets != nil {
				s.adm.buckets.refund(client)
			}
			s.met.canceled.Add(1)
			writeError(w, http.StatusRequestTimeout, "canceled", "client canceled the request while queued")
			return
		}
		s.met.shed(shedReasonQueueFull)
		writeShed(w, http.StatusServiceUnavailable, "overloaded",
			"server is at capacity and its admission queue is full, retry later", s.shedRetryAfter())
		return
	}
	defer s.adm.release()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Watchdog: if this query ignores its deadline, the scan cancels it
	// again and counts the runaway.
	wid := s.adm.track(time.Now().Add(timeout), cancel)
	defer s.adm.untrack(wid)

	res, err := cypher.Exec(ctx, g, plan, cypher.ExecOptions{
		ParamVals:   params,
		MaxRows:     maxRows,
		Parallelism: parallelism,
		MaxMemBytes: s.cfg.MaxQueryMem,
		GenResolver: s.st.AcquireGen,
	})
	took := time.Since(t0)
	s.met.observe(took)
	s.adm.lat.observe(took)
	if err != nil {
		switch {
		case errors.Is(err, cypher.ErrQueryPanic):
			// The executor recovered the panic; quarantine the plan so the
			// crash is not replayed while the bug stands.
			s.met.panics.Add(1)
			s.met.errors.Add(1)
			s.adm.quar.trip(req.Query)
			s.logf("query panic recovered (plan quarantined): query=%q err=%v", req.Query, err)
			writeError(w, http.StatusInternalServerError, "internal_panic", err.Error())
		case errors.Is(err, cypher.ErrMemoryBudget):
			s.met.memKills.Add(1)
			s.met.errors.Add(1)
			s.logf("query killed by memory budget: limit=%d query=%q", s.cfg.MaxQueryMem, req.Query)
			writeError(w, http.StatusUnprocessableEntity, "memory_budget", err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
			s.logf("slow query killed: deadline=%s query=%q", timeout, req.Query)
			writeError(w, http.StatusGatewayTimeout, "timeout", err.Error())
		case errors.Is(err, context.Canceled):
			s.met.canceled.Add(1)
			writeError(w, http.StatusRequestTimeout, "canceled", err.Error())
		default:
			s.met.errors.Add(1)
			writeError(w, http.StatusBadRequest, "query_error", err.Error())
		}
		return
	}
	// Built before the status is written, so a NaN can still get a 400.
	bp := bodyBufs.Get().(*[]byte)
	body, err := res.AppendJSON((*bp)[:0], took.Milliseconds(), gen)
	if cap(body) <= 1<<20 { // so one huge answer does not stay resident
		defer func() { *bp = body; bodyBufs.Put(bp) }()
	}
	if err != nil {
		s.met.errors.Add(1)
		writeError(w, http.StatusBadRequest, "query_error", err.Error())
		return
	}
	s.met.rows.Add(uint64(res.Len()))
	if res.Truncated {
		s.met.truncated.Add(1)
	}
	// Planner calibration: record actual÷estimated rows so drift in the
	// cost model (which drives the degrade ladder's shedding) is visible.
	// Analytics calls are skipped (their cardinality is kernel-defined, not
	// pattern-derived), as are truncated results (the true count is unknown)
	// and zero estimates (the ratio is undefined).
	if est := estimate(); !est.Analytics && !res.Truncated && est.Rows > 0 {
		s.met.observeRatio(float64(res.Len()) / est.Rows)
	}
	if took >= s.cfg.SlowQuery {
		s.logf("slow query: took_ms=%d rows=%d truncated=%v query=%q",
			took.Milliseconds(), res.Len(), res.Truncated, req.Query)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// bodyBufs recycles /v1/query response buffers.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// shedRetryAfter suggests when a shed client should retry: the recent p99
// approximates how long the backlog takes to drain, floored at one second.
func (s *Server) shedRetryAfter() time.Duration {
	if p := s.adm.lat.p99(); p > time.Second {
		return p
	}
	return time.Second
}

// healthResponse is the GET /v1/health payload, shaped for load balancers:
// degrade_level > 0 means the server is shedding some query classes, and
// queue_depth / capacity show how much headroom is left.
type healthResponse struct {
	Status       string `json:"status"` // "ok" or "degraded"
	DegradeLevel int    `json:"degrade_level"`
	QueueDepth   int    `json:"queue_depth"`
	InFlight     int    `json:"in_flight"`
	Capacity     int    `json:"capacity"`
	Generation   uint64 `json:"generation"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.adm.scanOverdue(time.Now()) // piggyback the watchdog on health probes
	level := s.degradeLevel()
	status := "ok"
	if level > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:       status,
		DegradeLevel: level,
		QueueDepth:   int(s.adm.queued.Load()),
		InFlight:     s.adm.inflight(),
		Capacity:     cap(s.adm.slots),
		Generation:   s.st.CurrentGen(),
	})
}

// readyResponse is the GET /v1/ready payload, shaped for load-balancer
// readiness checks on replicas: a follower answers 503 until its first good
// load (a replica with no data must not take traffic), then 200 — "ok"
// normally, "degraded" once the serving generation is older than the
// staleness threshold (still serving; stale-but-consistent beats
// fresh-but-broken, but the balancer may prefer fresher peers).
type readyResponse struct {
	Status string `json:"status"` // "ok", "degraded" or "not_ready"
	// Generation is the MVCC chain generation serving reads.
	Generation uint64 `json:"generation"`
	// BuilderGeneration is the builder store seq being served (replicas
	// only; 0 on single-process servers and before the first load).
	BuilderGeneration uint64 `json:"builder_generation,omitempty"`
	// AgeSeconds is how long ago that generation was swapped live
	// (replicas only).
	AgeSeconds float64 `json:"age_seconds,omitempty"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Replica == nil {
		// Single-process: the graph was loaded before the listener opened,
		// so serving at all means ready.
		writeJSON(w, http.StatusOK, readyResponse{Status: "ok", Generation: s.st.CurrentGen()})
		return
	}
	st := s.cfg.Replica.Status()
	resp := readyResponse{
		Status:            "ok",
		Generation:        st.ServingChainGen,
		BuilderGeneration: st.LastGoodGen,
		AgeSeconds:        st.Age.Seconds(),
	}
	switch {
	case !st.Ready:
		resp.Status = "not_ready"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	case st.Degraded:
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDiff serves GET /v1/diff?from=N[&to=M]: the generation-diff engine
// over HTTP. `to` defaults to the current generation. Both generations
// resolve through AcquireGen, so persisted history (when attached) is
// reachable; an unavailable generation answers 404 generation_gone. The
// diff runs under the server's default query deadline.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "missing or invalid `from` generation")
		return
	}
	var to uint64
	if ts := q.Get("to"); ts != "" {
		if to, err = strconv.ParseUint(ts, 10, 64); err != nil || to == 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "invalid `to` generation")
			return
		}
	}
	fromG, releaseFrom, err := s.st.AcquireGen(from)
	if err != nil {
		writeError(w, http.StatusNotFound, "generation_gone", err.Error())
		return
	}
	defer releaseFrom()
	var toG *graph.Graph
	if to > 0 {
		g, release, err := s.st.AcquireGen(to)
		if err != nil {
			writeError(w, http.StatusNotFound, "generation_gone", err.Error())
			return
		}
		defer release()
		toG = g
	} else {
		g, gen, release := s.st.Acquire()
		defer release()
		toG, to = g, gen
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := temporal.Diff(ctx, fromG, toG, temporal.DiffOptions{})
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "timeout", err.Error())
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusRequestTimeout, "canceled", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, "query_error", err.Error())
		}
		return
	}
	res.From, res.To = from, to
	s.met.observe(time.Since(t0))
	writeJSON(w, http.StatusOK, res)
}

// generationsResponse is the GET /v1/generations payload.
type generationsResponse struct {
	Current     uint64          `json:"current"`
	Generations []graph.GenInfo `json:"generations"`
}

func (s *Server) handleGenerations(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, generationsResponse{
		Current:     s.st.CurrentGen(),
		Generations: s.st.Generations(),
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// normalizeParam converts JSON numbers (float64) with integral values to
// ints, matching how Cypher parameters behave in practice. It recurses
// through lists and objects so nested numbers normalize the same way as
// top-level ones.
func normalizeParam(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
	case []any:
		for i, e := range x {
			x[i] = normalizeParam(e)
		}
	case map[string]any:
		for k, e := range x {
			x[k] = normalizeParam(e)
		}
	}
	return v
}

// decodeParams converts a request's JSON "params" object into engine
// values.
func decodeParams(raw map[string]any) (map[string]cypher.Val, error) {
	params := make(map[string]cypher.Val, len(raw))
	for k, v := range raw {
		pv, err := cypher.ValOf(normalizeParam(v))
		if err != nil {
			return nil, fmt.Errorf("parameter $%s: %w", k, err)
		}
		params[k] = pv
	}
	return params, nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid request body: "+err.Error())
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing query")
		return
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	q, err := cypher.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", err.Error())
		return
	}
	plan := cypher.ExplainQuery(s.st.Current(), q, params)
	// Surface how the plan cache would treat this text: repeated clients
	// should see "hit"; CALL queries always report "bypass".
	outcome := s.cache.Outcome(req.Query)
	plan += "plan cache: " + outcome + "\n"
	writeJSON(w, http.StatusOK, map[string]string{"plan": plan, "plan_cache": outcome})
}

type schemaResponse struct {
	Entities      []ontology.EntityDef `json:"entities"`
	Relationships []ontology.RelDef    `json:"relationships"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, schemaResponse{
		Entities:      ontology.Entities(),
		Relationships: ontology.Relationships(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.st.Current().Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.adm.scanOverdue(time.Now()) // piggyback the watchdog on scrapes
	s.degradeLevel()              // refresh the gauge
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var repl *replica.Status
	if s.cfg.Replica != nil {
		st := s.cfg.Replica.Status()
		repl = &st
	}
	s.met.write(w, s.cache.Stats(), genStats{
		current:   s.st.CurrentGen(),
		live:      s.st.Live(),
		reclaimed: s.st.Reclaimed(),
	}, admStats{
		queued:        s.adm.queued.Load(),
		level:         s.adm.level.Load(),
		quarantined:   s.adm.quar.size(),
		watchdogKills: s.adm.watchdogKills.Load(),
	}, repl)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}

// writeShed writes a load-shedding error with the Retry-After header every
// 429/503 carries, so well-behaved clients back off instead of spinning.
func writeShed(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retrySeconds(retryAfter)))
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
