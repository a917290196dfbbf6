// Package replica implements the read-replica serving tier: N iyp-serve
// processes following one generation store that a single builder publishes
// into — the process-boundary version of the paper's "build weekly, serve
// continuously" workflow. A Follower polls the store's manifest, loads and
// verifies each new generation off the serving path, and hot-swaps the
// verified graph into the process's MVCC chain: in-flight queries finish on
// their pinned generation, new queries see the new one, and superseded
// generations drain through the existing pin-count reclamation.
//
// Robustness is the point. Every way a builder can betray a follower —
// torn manifest tails, truncated or bit-flipped snapshots, a crash between
// the snapshot rename and the manifest update, a snapshot pruned mid-read —
// is classified, counted, and survived: the follower keeps answering from
// its last good generation and converges to the builder's head once the
// store is sane again. Nothing a follower observes in the store is ever
// fatal; stale-but-consistent beats fresh-but-broken.
//
// The watcher is plain polling (no fsnotify dependency) with bounded,
// jittered backoff while the store misbehaves; in-process embedders can
// wire graph.Store.OnSave to Notify for immediate reloads.
package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"iyp/internal/graph"
)

// Reload result classes, the label set of iyp_replica_reloads_total. Every
// reload attempt (one candidate generation, one poll) lands in exactly one.
const (
	// ReloadOK: the candidate loaded, verified, and was swapped live.
	ReloadOK = "ok"
	// ReloadCorrupt: checksum or structural verification failed — a
	// bit-flipped snapshot, a lying manifest, garbage past the trailer.
	ReloadCorrupt = "corrupt"
	// ReloadTruncated: the file is shorter than the manifest records — a
	// torn write or a partial copy.
	ReloadTruncated = "truncated"
	// ReloadMissing: the snapshot vanished between listing and loading
	// (pruned by the builder, or never renamed into place).
	ReloadMissing = "missing"
	// ReloadIOError: the read itself failed (permissions, I/O errors,
	// injected slow-read faults that gave up).
	ReloadIOError = "io_error"
	// ReloadListError: the store directory could not be listed at all.
	ReloadListError = "list_error"
)

// ReloadResults fixes the metrics exposition order.
var ReloadResults = [...]string{
	ReloadOK, ReloadCorrupt, ReloadTruncated, ReloadMissing, ReloadIOError, ReloadListError,
}

// Config tunes a Follower. The zero value polls every 250ms, backs off to
// 5s under persistent faults, and retries a failing generation 4 times
// before skipping it until something newer appears.
type Config struct {
	// Interval between head polls when the store is healthy (0 = 250ms).
	Interval time.Duration
	// MaxBackoff caps the error backoff between polls while the store is
	// misbehaving (0 = 5s). Backoff doubles per consecutive failed poll
	// and carries bounded jitter so a replica fleet does not stampede the
	// store the moment it recovers.
	MaxBackoff time.Duration
	// MaxAttempts is how many times one failing generation is retried
	// before the follower stops re-verifying it and waits for a newer one
	// (0 = 4; a large snapshot that fails its CRC costs a full read per
	// attempt, so endless retries are their own denial of service).
	MaxAttempts int
	// StaleAfter is the age of the serving generation past which Status
	// reports Degraded — the "builder has been quiet too long" threshold
	// (0 = disabled). The follower keeps serving regardless.
	StaleAfter time.Duration
	// BumpInterval enables push-style notification for cross-process
	// builders: a watcher stats the store's manifest at this cadence and
	// Notify()s the poll loop the moment its mtime moves — one stat per
	// tick instead of a full listing, so Interval can be set much longer
	// without adding reload latency (0 = disabled; in-process builders
	// should wire graph.Store.OnSave to Notify instead).
	BumpInterval time.Duration
	// Seed fixes the backoff jitter (0 = 1); deterministic for tests.
	Seed int64
	// Logf receives reload lifecycle logs (nil = silent).
	Logf func(format string, args ...any)

	// Now overrides the clock (nil = time.Now); for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Follower follows a generation store and keeps an MVStore's head on the
// newest generation that verifies. Construct with New, start the watch
// loop with Start, stop it with Close; Poll runs one synchronous iteration
// and is what the loop (and deterministic tests) call.
type Follower struct {
	st  *graph.Store
	mv  *graph.MVStore
	cfg Config

	// mu guards the mutable follow state below.
	mu          sync.Mutex
	lastGoodSeq uint64         // builder seq of the generation now serving
	lastGoodAt  time.Time      // when it was swapped live
	loaded      bool           // at least one generation ever served
	attempts    map[uint64]int // verify/load failures per candidate seq

	// dict is the serving generation's string dictionary, fed to the next
	// reload so unchanged strings (the overwhelming majority between
	// weekly generations) are shared rather than re-allocated.
	dict *graph.Interner

	reloads     [len(ReloadResults)]atomic.Uint64
	polls       atomic.Uint64
	backoffs    atomic.Uint64
	dictStrings atomic.Uint64
	dictReused  atomic.Uint64

	wake    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
}

// New builds a follower that keeps mv's head on st's newest good
// generation. mv may start on an empty placeholder graph; Status reports
// not-ready until the first successful load. The placeholder is taken out
// of mv's generation numbering here, so that every publish serves store
// seq N as generation N — a placeholder counted as generation 1 would
// push seq 1 to generation 2 and answer `AS OF 1` with its own emptiness.
func New(st *graph.Store, mv *graph.MVStore, cfg Config) *Follower {
	mv.UnnumberPlaceholder()
	return &Follower{
		st:       st,
		mv:       mv,
		cfg:      cfg.withDefaults(),
		attempts: make(map[uint64]int),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// PollOutcome summarizes one Poll iteration.
type PollOutcome struct {
	// Loaded is true when this poll swapped a new generation live.
	Loaded bool
	// Seq is the builder generation now serving (0 before the first load).
	Seq uint64
	// Faulted is true when the poll saw candidates newer than the serving
	// generation but could not load any of them — the signal that drives
	// backoff.
	Faulted bool
	// Err carries the last classified failure of a faulted poll.
	Err error
}

// Poll runs one watch iteration: list the store, and if generations newer
// than the serving one exist, try them newest-good-first. The first that
// verifies and loads is swapped live; every failure is classified and
// counted. Poll never returns a fatal condition — a follower's job is to
// keep serving.
func (f *Follower) Poll() PollOutcome {
	f.polls.Add(1)
	gens, err := f.st.Generations()
	if err != nil {
		f.count(ReloadListError)
		f.logf("replica: listing store: %v", err)
		return PollOutcome{Seq: f.LastGood(), Faulted: true, Err: err}
	}

	last := f.LastGood()
	out := PollOutcome{Seq: last}
	sawNewer := false
	for _, gen := range gens {
		if gen.Seq <= last {
			break // gens are newest-first; nothing older can help
		}
		sawNewer = true
		if f.skipWorn(gen.Seq) {
			continue
		}
		g, result, err := f.fetch(gen)
		f.count(result)
		if err != nil {
			f.noteFailure(gen.Seq)
			out.Err = err
			f.logf("replica: generation %d rejected (%s): %v", gen.Seq, result, err)
			continue
		}
		// SwapAt keeps the chain numbering on the builder's seq, so a
		// client-pinned generation number and the persisted-history
		// fallback both mean the same on-disk generation.
		mvGen := f.mv.SwapAt(g, gen.Seq)
		f.setLastGood(gen.Seq, g.Interner())
		f.logf("replica: serving generation %d (%d nodes, %d rels) as chain gen %d",
			gen.Seq, g.NumNodes(), g.NumRels(), mvGen)
		return PollOutcome{Loaded: true, Seq: gen.Seq}
	}
	out.Faulted = sawNewer // saw news, served none of it
	return out
}

// fetch loads one candidate generation, seeded with the serving
// generation's dictionary, classifying every failure into a ReloadResults
// class.
func (f *Follower) fetch(gen graph.Generation) (*graph.Graph, string, error) {
	f.mu.Lock()
	dict := f.dict
	f.mu.Unlock()
	g, rep, err := f.st.Load(gen, dict)
	if err != nil {
		return nil, classify(err), err
	}
	f.dictStrings.Add(uint64(rep.DictStrings))
	f.dictReused.Add(uint64(rep.DictReused))
	return g, ReloadOK, nil
}

// classify maps a verify/load failure onto its reload-result class.
func classify(err error) string {
	switch {
	case errors.Is(err, graph.ErrGenMissing):
		return ReloadMissing
	case errors.Is(err, graph.ErrGenTruncated):
		return ReloadTruncated
	case errors.Is(err, graph.ErrCorrupt):
		return ReloadCorrupt
	default:
		return ReloadIOError
	}
}

// skipWorn reports whether seq has exhausted its retry budget. Worn-out
// candidates stay skipped until a newer generation supersedes them (the
// builder republishing the same seq is not a thing the store does).
func (f *Follower) skipWorn(seq uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[seq] >= f.cfg.MaxAttempts
}

func (f *Follower) noteFailure(seq uint64) {
	f.mu.Lock()
	f.attempts[seq]++
	f.mu.Unlock()
}

func (f *Follower) setLastGood(seq uint64, dict *graph.Interner) {
	f.mu.Lock()
	f.lastGoodSeq = seq
	f.lastGoodAt = f.cfg.Now()
	f.loaded = true
	f.dict = dict
	// Failure bookkeeping for superseded candidates is dead weight now.
	for s := range f.attempts {
		if s <= seq {
			delete(f.attempts, s)
		}
	}
	f.mu.Unlock()
}

// LastGood returns the builder seq of the generation currently serving (0
// before the first successful load).
func (f *Follower) LastGood() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastGoodSeq
}

func (f *Follower) count(result string) {
	for i, r := range ReloadResults {
		if r == result {
			f.reloads[i].Add(1)
			return
		}
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Status is the follower's health snapshot, the payload behind
// GET /v1/ready and the iyp_replica_* metrics.
type Status struct {
	// Ready is true once one generation has been loaded and served.
	Ready bool
	// Degraded is true when Ready but the serving generation's age exceeds
	// Config.StaleAfter (never true with StaleAfter disabled).
	Degraded bool
	// LastGoodGen is the builder seq of the serving generation.
	LastGoodGen uint64
	// Age is how long ago the serving generation was swapped live.
	Age time.Duration
	// ServingChainGen is the MVStore chain generation serving reads.
	ServingChainGen uint64
	// Polls and Backoffs count watch iterations and backoff sleeps.
	Polls    uint64
	Backoffs uint64
	// Reloads counts reload attempts by result, indexed like ReloadResults.
	Reloads [len(ReloadResults)]uint64
	// DictStrings counts dictionary entries seen across all successful
	// reloads; DictReused is how many of them were already present in the
	// previous generation's dictionary and were shared instead of
	// re-allocated. A healthy weekly cadence reuses almost everything.
	DictStrings uint64
	DictReused  uint64
}

// Status reports the follower's current health. Safe to call from any
// goroutine.
func (f *Follower) Status() Status {
	f.mu.Lock()
	seq, at, loaded := f.lastGoodSeq, f.lastGoodAt, f.loaded
	f.mu.Unlock()
	s := Status{
		Ready:           loaded,
		LastGoodGen:     seq,
		ServingChainGen: f.mv.CurrentGen(),
		Polls:           f.polls.Load(),
		Backoffs:        f.backoffs.Load(),
		DictStrings:     f.dictStrings.Load(),
		DictReused:      f.dictReused.Load(),
	}
	if loaded {
		s.Age = f.cfg.Now().Sub(at)
		if f.cfg.StaleAfter > 0 && s.Age > f.cfg.StaleAfter {
			s.Degraded = true
		}
	}
	for i := range f.reloads {
		s.Reloads[i] = f.reloads[i].Load()
	}
	return s
}

// Start launches the watch loop (idempotent). An immediate first poll runs
// before the first sleep, so a populated store is served right away. With
// BumpInterval set, a manifest-mtime watcher runs alongside the loop and
// Notify()s it as soon as a builder publishes.
func (f *Follower) Start() {
	if f.started.Swap(true) {
		return
	}
	f.wg.Add(1)
	go f.run()
	if f.cfg.BumpInterval > 0 {
		f.wg.Add(1)
		go f.watchBump()
	}
}

// watchBump stats the store manifest every BumpInterval and wakes the poll
// loop when its mtime changes — the receive half of builder→replica push
// notification (the send half is Save's atomic manifest replace).
func (f *Follower) watchBump() {
	defer f.wg.Done()
	last, _ := f.st.MTime()
	tick := time.NewTicker(f.cfg.BumpInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-tick.C:
			if mt, ok := f.st.MTime(); ok && !mt.Equal(last) {
				last = mt
				f.Notify()
			}
		}
	}
}

// Notify wakes the watch loop for an immediate poll (used by in-process
// builders via graph.Store.OnSave). Never blocks.
func (f *Follower) Notify() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// Close stops the watch loop and waits for it to exit. The MVStore keeps
// serving whatever generation was last swapped in. Close is idempotent.
func (f *Follower) Close() {
	select {
	case <-f.done:
	default:
		close(f.done)
	}
	f.wg.Wait()
}

func (f *Follower) run() {
	defer f.wg.Done()
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	consecutive := 0
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		out := f.Poll()
		var delay time.Duration
		if out.Faulted {
			consecutive++
			delay = f.backoffDelay(rng, consecutive)
			f.backoffs.Add(1)
		} else {
			consecutive = 0
			delay = f.cfg.Interval
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(delay)
		select {
		case <-f.done:
			return
		case <-f.wake:
		case <-timer.C:
		}
	}
}

// backoffDelay is the bounded-jitter exponential backoff: base doubling
// per consecutive failure, capped at MaxBackoff, scaled by a jitter factor
// in [0.5, 1.0) so a fleet of replicas spreads its retries.
func (f *Follower) backoffDelay(rng *rand.Rand, consecutive int) time.Duration {
	d := f.cfg.Interval
	for i := 1; i < consecutive && d < f.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > f.cfg.MaxBackoff {
		d = f.cfg.MaxBackoff
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}

// String implements fmt.Stringer for log lines.
func (s Status) String() string {
	state := "not_ready"
	switch {
	case s.Degraded:
		state = "degraded"
	case s.Ready:
		state = "ok"
	}
	return fmt.Sprintf("replica %s: gen=%d age=%s polls=%d", state, s.LastGoodGen, s.Age.Round(time.Millisecond), s.Polls)
}
