package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control and resource governance for the public query API.
// Between decoding a request and executing it, the server now runs an
// admission pipeline instead of a bare semaphore:
//
//	per-client token bucket  → 429 budget_exhausted (+ Retry-After)
//	plan quarantine          → 503 plan_quarantined (+ Retry-After)
//	degrade ladder           → 503 overloaded for queries too expensive
//	                           for the current load level
//	bounded admission queue  → wait (deadline- and cancel-aware), or
//	                           503 overloaded when the queue is full
//
// The degrade ladder is driven by a load index computed from executing
// slots, queue depth and the recent latency tail:
//
//	level 0  everything admitted
//	level 1  CALL algo.* and above-threshold cost estimates shed
//	level 2  additionally, parallel matches forced serial
//	level 3  only index-only anchored queries admitted
//
// A watchdog registry tracks every executing query with its deadline and
// cancel function; queries overstaying deadline+grace are hard-cancelled
// (their context is cancelled again and the kill counted — a worker that
// ignores cancellation is surfaced rather than silently hogging a slot).
// The scan runs on demand from the admission, health and metrics paths, so
// governance adds no background goroutine to leak.

// Shed reasons, used as the metrics label and mapped onto response codes.
const (
	shedReasonBudget     = "budget"     // per-client token bucket empty (429)
	shedReasonQueueFull  = "queue_full" // admission queue at capacity (503)
	shedReasonCost       = "cost"       // estimate above the degrade threshold (503)
	shedReasonAnalytics  = "analytics"  // CALL algo.* shed under load (503)
	shedReasonIndexOnly  = "index_only" // non-index-anchored query at level 3 (503)
	shedReasonQuarantine = "quarantine" // plan tripped the panic breaker (503)
)

// shedReasons fixes the metrics exposition order (an array so the metrics
// counters can be sized from it at compile time).
var shedReasons = [...]string{
	shedReasonBudget, shedReasonQueueFull, shedReasonCost,
	shedReasonAnalytics, shedReasonIndexOnly, shedReasonQuarantine,
}

var (
	errQueueFull    = errors.New("admission queue is full")
	errQueueTimeout = errors.New("admission queue wait exceeded the limit")
)

// admission is the per-server governance state.
type admission struct {
	slots    chan struct{} // executing-query slots (cap = MaxConcurrent)
	queueCap int           // waiters allowed beyond the slots
	maxWait  time.Duration // longest a request may sit queued
	queued   atomic.Int64  // current waiters

	buckets *clientBuckets // nil = per-client budgets disabled
	quar    *quarantine
	lat     *latencyRing

	level atomic.Int64 // last computed degrade level (gauge)

	// Watchdog registry of executing queries.
	wmu           sync.Mutex
	running       map[uint64]*runningQuery
	nextID        uint64
	grace         time.Duration
	watchdogKills atomic.Uint64
}

type runningQuery struct {
	deadline time.Time
	cancel   context.CancelFunc
	killed   bool
}

func newAdmission(slots, queueCap int, maxWait time.Duration, clientQPS, clientBurst float64, quarantineFor, grace time.Duration) *admission {
	a := &admission{
		slots:    make(chan struct{}, slots),
		queueCap: queueCap,
		maxWait:  maxWait,
		quar:     newQuarantine(quarantineFor),
		lat:      &latencyRing{},
		running:  make(map[uint64]*runningQuery),
		grace:    grace,
	}
	if clientQPS > 0 {
		a.buckets = newClientBuckets(clientQPS, clientBurst)
	}
	return a
}

// tryAcquire takes an executing slot without waiting.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire takes an executing slot, queueing up to queueCap waiters for at
// most maxWait. A context cancelled while queued returns immediately and
// releases the queue position — the caller refunds any budget tokens.
func (a *admission) acquire(ctx context.Context) error {
	if a.tryAcquire() {
		return nil
	}
	if a.queueCap <= 0 {
		return errQueueFull
	}
	if int(a.queued.Add(1)) > a.queueCap {
		a.queued.Add(-1)
		return errQueueFull
	}
	defer a.queued.Add(-1)
	timer := time.NewTimer(a.maxWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return errQueueTimeout
	}
}

func (a *admission) release() { <-a.slots }

// inflight is the number of executing queries (slots in use).
func (a *admission) inflight() int { return len(a.slots) }

// track registers an executing query with the watchdog and opportunistically
// scans for runaways.
func (a *admission) track(deadline time.Time, cancel context.CancelFunc) uint64 {
	a.wmu.Lock()
	a.nextID++
	id := a.nextID
	a.running[id] = &runningQuery{deadline: deadline, cancel: cancel}
	a.wmu.Unlock()
	a.scanOverdue(time.Now())
	return id
}

func (a *admission) untrack(id uint64) {
	a.wmu.Lock()
	delete(a.running, id)
	a.wmu.Unlock()
}

// scanOverdue hard-cancels queries that overstayed deadline+grace. The
// normal deadline already fires through the context; a query still running
// this far past it is ignoring cancellation, so the watchdog cancels again
// (freeing any descendants that do listen) and counts the kill for the
// operator. Each runaway is killed and counted once.
func (a *admission) scanOverdue(now time.Time) int {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	killed := 0
	for _, rq := range a.running {
		if !rq.killed && now.After(rq.deadline.Add(a.grace)) {
			rq.killed = true
			rq.cancel()
			a.watchdogKills.Add(1)
			killed++
		}
	}
	return killed
}

// --- per-client token buckets ---

// clientBuckets rate-limits query admission per client key (the remote IP,
// or the first X-Forwarded-For hop when present) with standard token
// buckets: rate tokens/second, burst capacity, one token per request.
type clientBuckets struct {
	mu    sync.Mutex
	m     map[string]*bucket
	rate  float64
	burst float64
	now   func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedClients bounds the bucket map; when full, stale full buckets
// are evicted (a full bucket carries no throttling state worth keeping).
const maxTrackedClients = 4096

func newClientBuckets(rate, burst float64) *clientBuckets {
	if burst <= 0 {
		burst = 2 * rate
		if burst < 10 {
			burst = 10
		}
	}
	return &clientBuckets{m: make(map[string]*bucket), rate: rate, burst: burst, now: time.Now}
}

// take spends one token for key. When the bucket is empty it reports the
// duration after which one token will be available.
func (cb *clientBuckets) take(key string) (ok bool, retryAfter time.Duration) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	now := cb.now()
	b := cb.m[key]
	if b == nil {
		if len(cb.m) >= maxTrackedClients {
			cb.evictLocked(now)
		}
		b = &bucket{tokens: cb.burst, last: now}
		cb.m[key] = b
	}
	cb.refillLocked(b, now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / cb.rate * float64(time.Second))
}

// refund returns one token to key's bucket, used when an admitted request
// is abandoned before execution (client disconnected while queued).
func (cb *clientBuckets) refund(key string) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if b := cb.m[key]; b != nil {
		cb.refillLocked(b, cb.now())
		if b.tokens += 1; b.tokens > cb.burst {
			b.tokens = cb.burst
		}
	}
}

func (cb *clientBuckets) refillLocked(b *bucket, now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * cb.rate
		if b.tokens > cb.burst {
			b.tokens = cb.burst
		}
	}
	b.last = now
}

func (cb *clientBuckets) evictLocked(now time.Time) {
	for k, b := range cb.m {
		cb.refillLocked(b, now)
		if b.tokens >= cb.burst {
			delete(cb.m, k)
		}
	}
}

// clientKey identifies the client for budget purposes: the first
// X-Forwarded-For hop when present (the instance sits behind a proxy),
// otherwise the remote IP.
func clientKey(r *http.Request) string {
	if xf := r.Header.Get("X-Forwarded-For"); xf != "" {
		if i := strings.IndexByte(xf, ','); i >= 0 {
			xf = xf[:i]
		}
		return strings.TrimSpace(xf)
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// --- plan quarantine ---

// quarantine is the panic circuit breaker: a query text whose execution
// panicked is blocked for ttl, so a crashing plan cannot be replayed in a
// tight retry loop while the underlying bug stands.
type quarantine struct {
	mu    sync.Mutex
	until map[string]time.Time
	ttl   time.Duration
	trips atomic.Uint64
	now   func() time.Time // test hook
}

// maxQuarantined bounds the map; beyond it the oldest entries are evicted
// (the breaker is a brake, not a ledger).
const maxQuarantined = 256

func newQuarantine(ttl time.Duration) *quarantine {
	return &quarantine{until: make(map[string]time.Time), ttl: ttl, now: time.Now}
}

// blocked reports whether text is quarantined and for how much longer.
func (q *quarantine) blocked(text string) (time.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.until[text]
	if !ok {
		return 0, false
	}
	if left := t.Sub(q.now()); left > 0 {
		return left, true
	}
	delete(q.until, text)
	return 0, false
}

// trip quarantines text for the configured ttl.
func (q *quarantine) trip(text string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	if len(q.until) >= maxQuarantined {
		for k, t := range q.until {
			if !t.After(now) {
				delete(q.until, k)
			}
		}
		for k := range q.until {
			if len(q.until) < maxQuarantined {
				break
			}
			delete(q.until, k)
		}
	}
	q.until[text] = now.Add(q.ttl)
	q.trips.Add(1)
}

func (q *quarantine) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.until)
}

// --- recent-latency ring ---

// latencyRing keeps the most recent executed-query latencies, and for the
// load index, which reads it on every request, whether their p99 is slow.
type latencyRing struct {
	mu    sync.Mutex
	buf   [128]time.Duration
	n     int           // filled entries
	i     int           // next write position
	limit time.Duration // 2×SlowQuery
	over  int           // retained entries above limit
	slow  atomic.Bool   // p99() > limit
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	if r.n == len(r.buf) && r.buf[r.i] > r.limit {
		r.over-- // evicted
	}
	if d > r.limit {
		r.over++
	}
	r.buf[r.i] = d
	r.i = (r.i + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	// p99's entry, (99n−1)/100 in the sorted window, is above limit iff:
	r.slow.Store(r.n >= 8 && r.over >= r.n-(99*r.n-1)/100)
	r.mu.Unlock()
}

// p99 returns the 99th-percentile of the retained window (0 when fewer
// than a handful of samples exist — no tail signal yet).
func (r *latencyRing) p99() time.Duration {
	r.mu.Lock()
	n := r.n
	tmp := make([]time.Duration, n)
	copy(tmp, r.buf[:n])
	r.mu.Unlock()
	if n < 8 {
		return 0
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	return tmp[(99*n-1)/100]
}

// --- degrade ladder ---

// degradeLevel computes the current level from slot utilization, queue
// depth and the recent latency tail, and records it for the metrics gauge.
func (s *Server) degradeLevel() int {
	util := float64(s.adm.inflight()) / float64(cap(s.adm.slots))
	if s.adm.queueCap > 0 {
		if qu := float64(s.adm.queued.Load()) / float64(s.adm.queueCap); qu > util {
			util = qu
		}
	}
	level := 0
	switch {
	case util >= 0.9:
		level = 3
	case util >= 0.75:
		level = 2
	case util >= 0.5:
		level = 1
	}
	// A saturated latency tail bumps the ladder one rung even when slots
	// look free: long-running queries occupy few slots but ruin everyone's
	// p99.
	if level < 3 && s.adm.lat.slow.Load() {
		level++
	}
	s.adm.level.Store(int64(level))
	return level
}

// costThreshold is the estimate above which a query counts as expensive for
// the degrade ladder: one full pass over the current graph (nodes+rels,
// floor 1000). Higher levels tighten it.
func (s *Server) costThreshold(level int) float64 {
	g := s.st.Current()
	t := max(float64(g.NumNodes()+g.NumRels()), 1000)
	if level >= 2 {
		t /= 8
	}
	return t
}

// retrySeconds renders a Retry-After value: at least 1s, rounded up.
func retrySeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
