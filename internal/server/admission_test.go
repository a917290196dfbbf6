package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestAdmissionQueueCancelReleasesSlot is the client-disconnect hygiene
// check: a request cancelled while queued must leave no queue position or
// slot behind, and the capacity must be fully usable afterwards.
func TestAdmissionQueueCancelReleasesSlot(t *testing.T) {
	a := newAdmission(1, 4, time.Minute, 0, 0, time.Minute, time.Minute)
	if !a.tryAcquire() {
		t.Fatal("first acquire should succeed")
	}

	const waiters = 3
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			errs <- a.acquire(ctx)
		}()
	}
	started.Wait()
	// Wait until all waiters are registered in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for a.queued.Load() != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", a.queued.Load(), waiters)
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("queued waiter: got %v, want context.Canceled", err)
		}
	}
	if q := a.queued.Load(); q != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", q)
	}

	a.release()
	if a.inflight() != 0 {
		t.Fatalf("inflight = %d after release, want 0", a.inflight())
	}
	// Full capacity must be reusable: slot plus queue.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	a.release()
}

func TestAdmissionQueueFullAndTimeout(t *testing.T) {
	// queueCap 0 disables queueing entirely.
	a := newAdmission(1, 0, time.Minute, 0, 0, time.Minute, time.Minute)
	if !a.tryAcquire() {
		t.Fatal("first acquire should succeed")
	}
	if err := a.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("got %v, want errQueueFull", err)
	}
	a.release()

	// A bounded queue rejects the waiter beyond capacity and times out
	// waiters that overstay maxWait.
	a = newAdmission(1, 1, 20*time.Millisecond, 0, 0, time.Minute, time.Minute)
	if !a.tryAcquire() {
		t.Fatal("first acquire should succeed")
	}
	first := make(chan error, 1)
	go func() { first <- a.acquire(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-capacity waiter: got %v, want errQueueFull", err)
	}
	if err := <-first; !errors.Is(err, errQueueTimeout) {
		t.Fatalf("queued waiter: got %v, want errQueueTimeout", err)
	}
	if q := a.queued.Load(); q != 0 {
		t.Fatalf("queued = %d, want 0", q)
	}
}

func TestClientBucketsTakeRefund(t *testing.T) {
	cb := newClientBuckets(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)
	cb.now = func() time.Time { return now }

	if ok, _ := cb.take("a"); !ok {
		t.Fatal("take 1 should succeed (burst)")
	}
	if ok, _ := cb.take("a"); !ok {
		t.Fatal("take 2 should succeed (burst)")
	}
	ok, retry := cb.take("a")
	if ok {
		t.Fatal("take 3 should fail: bucket empty")
	}
	if retry <= 0 || retry > 2*time.Second {
		t.Fatalf("retryAfter = %v, want (0, 2s]", retry)
	}

	// A refund restores one request without waiting.
	cb.refund("a")
	if ok, _ := cb.take("a"); !ok {
		t.Fatal("take after refund should succeed")
	}

	// Time refills at the configured rate.
	now = now.Add(1500 * time.Millisecond)
	if ok, _ := cb.take("a"); !ok {
		t.Fatal("take after refill should succeed")
	}

	// Separate clients have separate budgets.
	if ok, _ := cb.take("b"); !ok {
		t.Fatal("fresh client should have a full bucket")
	}
}

func TestClientBucketsEviction(t *testing.T) {
	cb := newClientBuckets(1000, 1)
	now := time.Unix(1000, 0)
	cb.now = func() time.Time { return now }
	for i := 0; i < maxTrackedClients; i++ {
		cb.take(string(rune('a')) + time.Unix(int64(i), 0).String())
	}
	if len(cb.m) != maxTrackedClients {
		t.Fatalf("tracked %d clients, want %d", len(cb.m), maxTrackedClients)
	}
	// All buckets refill to full after a second at 1000 tokens/s, so the
	// next new client evicts them instead of growing the map.
	now = now.Add(time.Second)
	cb.take("fresh")
	if len(cb.m) > 1 {
		t.Fatalf("map holds %d buckets after eviction, want 1", len(cb.m))
	}
}

func TestQuarantineTTL(t *testing.T) {
	q := newQuarantine(time.Minute)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	if _, blocked := q.blocked("MATCH (n) RETURN n"); blocked {
		t.Fatal("fresh quarantine should block nothing")
	}
	q.trip("MATCH (n) RETURN n")
	left, blocked := q.blocked("MATCH (n) RETURN n")
	if !blocked {
		t.Fatal("tripped query should be blocked")
	}
	if left <= 0 || left > time.Minute {
		t.Fatalf("remaining TTL = %v, want (0, 1m]", left)
	}
	if _, blocked := q.blocked("RETURN 1"); blocked {
		t.Fatal("other queries must not be blocked")
	}

	now = now.Add(61 * time.Second)
	if _, blocked := q.blocked("MATCH (n) RETURN n"); blocked {
		t.Fatal("quarantine should expire after the TTL")
	}
	if q.size() != 0 {
		t.Fatalf("size = %d after expiry check, want 0", q.size())
	}
}

func TestQuarantineBounded(t *testing.T) {
	q := newQuarantine(time.Hour)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	for i := 0; i < maxQuarantined+50; i++ {
		q.trip(time.Unix(int64(i), 0).String())
	}
	if n := q.size(); n > maxQuarantined {
		t.Fatalf("quarantine holds %d entries, cap is %d", n, maxQuarantined)
	}
}

func TestWatchdogScanOverdue(t *testing.T) {
	a := newAdmission(4, 0, time.Minute, 0, 0, time.Minute, time.Second)
	var cancelled atomic32
	deadline := time.Now().Add(-2 * time.Second) // already past deadline+grace
	// track itself runs an opportunistic scan, which must catch this one.
	id := a.track(deadline, func() { cancelled.add(1) })
	if cancelled.load() == 0 {
		t.Fatal("watchdog never called cancel")
	}
	// A runaway is killed and counted exactly once.
	if again := a.scanOverdue(time.Now()); again != 0 {
		t.Fatalf("second scan killed %d, want 0", again)
	}
	if got := a.watchdogKills.Load(); got != 1 {
		t.Fatalf("watchdogKills = %d, want 1", got)
	}
	a.untrack(id)

	// A query within deadline+grace is left alone.
	id = a.track(time.Now().Add(time.Minute), func() { t.Error("healthy query cancelled") })
	if killed := a.scanOverdue(time.Now()); killed != 0 {
		t.Fatalf("healthy scan killed %d, want 0", killed)
	}
	a.untrack(id)
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest("POST", "/v1/query", nil)
	r.RemoteAddr = "192.0.2.7:4242"
	if got := clientKey(r); got != "192.0.2.7" {
		t.Fatalf("clientKey = %q, want 192.0.2.7", got)
	}
	r.Header.Set("X-Forwarded-For", " 203.0.113.9 , 10.0.0.1")
	if got := clientKey(r); got != "203.0.113.9" {
		t.Fatalf("clientKey with XFF = %q, want 203.0.113.9", got)
	}
}

func TestLatencyRingP99(t *testing.T) {
	var r latencyRing
	if r.p99() != 0 {
		t.Fatal("empty ring should report 0")
	}
	for i := 0; i < 100; i++ {
		r.observe(time.Duration(i) * time.Millisecond)
	}
	if p := r.p99(); p < 90*time.Millisecond {
		t.Fatalf("p99 = %v, want >= 90ms", p)
	}
}

// TestLatencyTailSignalMatchesSortedP99: the O(1) counter the degrade
// ladder reads agrees with the sorted percentile after every observation
// of a seeded sequence that fills and wraps the ring several times, with
// runs of slow and fast queries moving the tail across the limit.
func TestLatencyTailSignalMatchesSortedP99(t *testing.T) {
	r := latencyRing{limit: 20 * time.Millisecond}
	rng := uint64(7)
	for i := 0; i < 5*len(r.buf); i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		d := time.Duration(rng>>40%15) * time.Millisecond
		if phase := i / 90 % 3; phase == 1 && rng>>20%3 == 0 || phase == 2 && rng>>20%40 == 0 {
			d += time.Duration(rng>>30%30) * time.Millisecond // slow queries, often past the limit
		}
		if i%97 == 0 {
			d = r.limit // exactly at the limit is not above it
		}
		r.observe(d)
		if got, want := r.slow.Load(), r.p99() > r.limit; got != want {
			t.Fatalf("after %d observations: slow = %v, p99() = %v against limit %v", i+1, got, r.p99(), r.limit)
		}
	}
}

func TestDegradeLevelLadder(t *testing.T) {
	srv := newTestServer(testGraph(), Config{MaxConcurrent: 4, QueueDepth: 4})
	if lvl := srv.degradeLevel(); lvl != 0 {
		t.Fatalf("idle level = %d, want 0", lvl)
	}
	// 2/4 slots in use → 50% utilization → level 1.
	srv.adm.slots <- struct{}{}
	srv.adm.slots <- struct{}{}
	if lvl := srv.degradeLevel(); lvl != 1 {
		t.Fatalf("level at 50%% = %d, want 1", lvl)
	}
	srv.adm.slots <- struct{}{}
	if lvl := srv.degradeLevel(); lvl != 2 {
		t.Fatalf("level at 75%% = %d, want 2", lvl)
	}
	srv.adm.slots <- struct{}{}
	if lvl := srv.degradeLevel(); lvl != 3 {
		t.Fatalf("level at 100%% = %d, want 3", lvl)
	}
	for i := 0; i < 4; i++ {
		<-srv.adm.slots
	}
	// Level-2 tightening: the cost threshold shrinks under heavier load.
	if t2, t0 := srv.costThreshold(2), srv.costThreshold(0); t2 >= t0 {
		t.Fatalf("costThreshold(2) = %v not below costThreshold(0) = %v", t2, t0)
	}
}

// atomic32 is a tiny test-local counter safe for use from the watchdog.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
