package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iyp"
	"iyp/internal/graph"
)

// The three serving workloads drive a child iyp-serve over loopback TCP.
const (
	// 96k nodes / 337k rels: the largest graph whose set-up (build, save,
	// oracle, child start) can be repeated once per trial inside the run
	// budget BENCHMARK.json is held to.
	servingScale  = 0.5
	ingestUpserts = 500 // AS upserts per published generation
	ingestFirstAS = 4_200_000_000
	warmupLookups = 400
)

// ingestPublishAt are the points of a serve_during_ingest trial, as
// fractions of its window, at which the writer publishes a generation. The
// last leaves the follower a third of the window to pick it up.
var ingestPublishAt = []float64{0.12, 0.52}

// ingestGrace is how far past its window a serve_during_ingest trial reads
// on while the last publish is not live yet. A reload takes half a second
// on an idle machine; a follower that needs this long is broken.
const ingestGrace = 20 * time.Second

// A fixture is everything a serving workload needs before its first timed
// request: the graph, its snapshot in a generation store, the request
// stream with the oracle's answers, and a warmed-up child serving it.
type fixture struct {
	dir       string
	db        *iyp.DB
	store     *graph.Store
	snapBytes int64
	stream    *stream // the workload's own traffic
	lookups   *stream // lookup traffic; the same stream unless the workload's own is analytics
	child     *child
	conns     []*client
	goLive    time.Duration // child start to first ready answer
	baseGen   uint64        // generation number the child serves the set-up's snapshot under
}

func (f *fixture) tearDown() {
	for _, c := range f.conns {
		c.close()
	}
	if f.child != nil {
		f.child.stop()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// setUpServing builds the seeded graph and serves it.
func (b *bench) setUpServing(ctx context.Context, workload string) (*fixture, error) {
	db, err := iyp.Build(ctx, iyp.Options{Scale: b.scale(servingScale), Seed: b.seed})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return b.serve(ctx, workload, db)
}

// serve saves db as generation 1 of a fresh store, renders the workload's
// requests and has the oracle answer them, starts the child on the store
// and sends it a warm-up round. A traced run sends lookups whatever the
// workload, so there the fixture always carries a lookup stream too.
func (b *bench) serve(ctx context.Context, workload string, db *iyp.DB) (f *fixture, err error) {
	f = &fixture{db: db}
	defer func() {
		if err != nil {
			f.tearDown()
		}
	}()
	if f.dir, err = os.MkdirTemp(b.workDir, workload+"-"); err != nil {
		return nil, err
	}
	storeDir := filepath.Join(f.dir, "store")
	if f.store, err = graph.OpenStore(storeDir, graph.StoreOptions{Keep: 3}); err != nil {
		return nil, err
	}
	gen, err := f.store.Save(db.Graph())
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	if f.snapBytes, err = fileSize(gen.Path); err != nil {
		return nil, err
	}

	analytics := workload == "analytics_scan"
	if !analytics || b.trace {
		if f.lookups, err = newLookupStream(db.Graph(), b.seed); err != nil {
			return nil, err
		}
		if err = f.lookups.answer(ctx, db); err != nil {
			return nil, err
		}
	}
	f.stream = f.lookups
	if analytics {
		f.stream = newAnalyticsStream()
		if err = f.stream.answer(ctx, db); err != nil {
			return nil, err
		}
	}

	started := time.Now()
	if workload == "serve_during_ingest" {
		f.child, err = startChild(b.serveBin, "/v1/ready", "-follow", storeDir, "-bump", "20ms", "-poll", "250ms")
	} else {
		f.child, err = startChild(b.serveBin, "/healthz", "-db", storeDir)
	}
	if err != nil {
		return nil, err
	}
	f.goLive = time.Since(started)
	for i := 0; i < b.conns; i++ {
		c, err := dial(f.child.addr)
		if err != nil {
			return nil, err
		}
		f.conns = append(f.conns, c)
	}
	return f, f.warmUp(ctx)
}

func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// warmUp fills the child's plan cache and lazily built state. The
// analytics round is also sent at parallelism 1, the setting whose rows
// every other setting must reproduce, and held to the oracle there too.
func (f *fixture) warmUp(ctx context.Context) error {
	if f.stream != f.lookups {
		for i := range f.stream.reqs {
			req := &f.stream.reqs[i]
			for _, wire := range [][]byte{withField(req.body, `"parallelism":1`), req.wire} {
				status, body, err := f.conns[0].do(wire)
				if err != nil {
					return err
				}
				if _, err := checkAnswer(req, status, body, true); err != nil {
					return fmt.Errorf("warm-up: %s: %w", analyticsClasses[i].name, err)
				}
			}
		}
	}
	if f.lookups == nil {
		return nil
	}
	// The tail of the stream, so that the timed phase does not start on
	// keys the warm-up just touched any more than Zipf makes it.
	res := phase{ctx: ctx, conns: f.conns, stream: f.lookups, first: len(f.lookups.order) - warmupLookups,
		window: time.Minute, limit: warmupLookups, rowsEvery: fullRowsEvery}.run()
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d lookups failed: %w", res.failed, res.firstErr)
	}
	// The number the child serves the set-up's snapshot under.
	f.baseGen = res.samples[0].gen
	return nil
}

// withField re-renders a request with one more top-level field in its body.
func withField(body []byte, field string) []byte {
	b := append([]byte(nil), body[:len(body)-1]...)
	b = append(b, ',')
	b = append(b, field...)
	b = append(b, '}')
	return append(requestHead(len(b)), b...)
}

// checkAnswer holds a reply to the oracle: status 200 and the expected row
// count, and with rows set the rows themselves. It returns the generation
// the reply was read from.
func checkAnswer(req *request, status int, body []byte, rows bool) (uint64, error) {
	if status != 200 {
		return 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	r, err := parseReply(body)
	if err != nil {
		return 0, err
	}
	if r.count != req.wantCount {
		return 0, fmt.Errorf("%s: %d rows, oracle has %d", req.query, r.count, req.wantCount)
	}
	if rows && hashRows(r.rows) != req.wantRows {
		return 0, fmt.Errorf("%s: rows differ from the oracle's", req.query)
	}
	return r.generation, nil
}

// A trial is one set-up and what its share of the window measured.
type trial struct {
	values            map[string]float64
	attempted, failed int
	errs              []error
}

func newTrial() *trial { return &trial{values: map[string]float64{}} }

func (t *trial) count(p phaseResult) {
	t.attempted += p.attempted
	t.failed += p.failed
	t.fail(p.firstErr)
}

// fail notes why an operation failed; the count is the caller's.
func (t *trial) fail(err error) {
	if err != nil {
		t.errs = append(t.errs, err)
	}
}

// serving runs a serving workload as b.trials independent trials, each a
// fresh set-up (graph, store, child) measured for an equal share of the
// window, and reports the median trial. One trial's numbers move by a tenth
// with whatever else the machine is doing for a few seconds; trials a
// set-up apart do not share such an episode.
func (b *bench) serving(ctx context.Context, workload string) (*result, error) {
	measure := measures[workload]
	res := newResult(b.spec)
	perTrial := map[string][]float64{}
	for t := 0; t < b.trials; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		f, err := b.setUpServing(ctx, workload)
		if err != nil {
			return nil, err
		}
		setUp := time.Since(t0)
		tr := measure(ctx, f, b.window/time.Duration(b.trials))
		rss, err := f.child.rssPeakMB()
		f.tearDown()
		if err != nil {
			return nil, err
		}
		tr.values["setup_s"] = setUp.Seconds()
		tr.values["rss_peak_mb"] = rss
		tr.values["snapshot_bytes"] = float64(f.snapBytes)
		if _, ok := tr.values["go_live_s"]; !ok {
			tr.values["go_live_s"] = f.goLive.Seconds()
		}
		b.logf("%s trial %d: %v", workload, t, tr.values)
		for name, v := range tr.values {
			perTrial[name] = append(perTrial[name], v)
		}
		res.add(tr)
	}
	for name, vs := range perTrial {
		res.set(name, median(vs))
	}
	return res, nil
}

// sampleMS is one field of every sample, in milliseconds.
func sampleMS(samples []sample, field func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(field(s))
	}
	return out
}

func latencies(samples []sample) []float64 {
	return sampleMS(samples, func(s sample) time.Duration { return s.latency })
}

// closedLoopValues are the numbers a closed-loop lookup phase yields. The
// tail is p99.9: in a closed loop a stall delays one request per
// connection, so the stalled share is small and p99 still lies in the body
// of the distribution, while p99.9 sits on the plateau the stalls form.
func closedLoopValues(tr *trial, p phaseResult) {
	lat := latencies(p.samples)
	tr.values["latency_p50_ms"] = quantile(lat, 0.50)
	tr.values["latency_tail_ms"] = quantile(lat, 0.999)
	tr.values["throughput_per_s"] = float64(len(p.samples)) / p.elapsed.Seconds()
}

// measures is what each workload does with a fixture for a window.
// build_publish serves nothing itself; its traced run ends by serving what
// it built to lookups.
var measures = map[string]func(context.Context, *fixture, time.Duration) *trial{
	"lookup_zipf":         measureLookups,
	"analytics_scan":      measureAnalytics,
	"serve_during_ingest": measureIngest,
	"build_publish":       measureLookups,
}

// measureLookups is the paper's public-instance traffic: indexed point
// lookups with Zipf-popular keys, from as many clients as there are
// connections, each waiting for its reply.
func measureLookups(ctx context.Context, f *fixture, window time.Duration) *trial {
	tr := newTrial()
	p := phase{ctx: ctx, conns: f.conns, stream: f.stream, window: window, rowsEvery: fullRowsEvery}.run()
	tr.count(p)
	closedLoopValues(tr, p)
	return tr
}

// measureAnalytics is one analyst cycling the six-query round in order and
// waiting for every reply. One, because two rounds side by side on two
// processors take turns that depend on how their queries happen to line up,
// and a trial's round time then moves by a tenth; the executor's own
// parallelism keeps both processors busy for a single analyst.
func measureAnalytics(ctx context.Context, f *fixture, window time.Duration) *trial {
	tr := newTrial()
	p := phase{ctx: ctx, conns: f.conns[:1], stream: f.stream, window: window, rowsEvery: 1}.run()
	tr.count(p)

	var rounds []float64
	perClass := make([][]float64, len(analyticsClasses))
	n := len(analyticsClasses)
	// A failed query leaves no sample and would shift the classes; the run
	// is rejected for it anyway.
	for at := 0; p.failed == 0 && at+n <= len(p.samples); at += n {
		round := 0.0
		for k, s := range p.samples[at : at+n] {
			round += ms(s.latency)
			perClass[k] = append(perClass[k], ms(s.latency))
		}
		rounds = append(rounds, round)
	}
	// The tail of a round is its slowest class.
	slowest := 0.0
	for _, xs := range perClass {
		slowest = max(slowest, median(xs))
	}
	tr.values["latency_p50_ms"] = median(rounds)
	tr.values["latency_tail_ms"] = slowest
	tr.values["throughput_per_s"] = float64(len(p.samples)) / p.elapsed.Seconds()
	return tr
}

// ingestBatch stages n new ASes with one NAME relationship each. Their
// numbers lie outside the range simnet allocates, so no lookup of the
// stream changes its answer.
func ingestBatch(first int64, n int) *graph.Batch {
	batch := graph.NewBatch()
	for i := 0; i < n; i++ {
		asn := first + int64(i)
		as := batch.MergeNode("AS", "asn", graph.Int(asn), nil, nil)
		name := batch.MergeNode("Name", "name", graph.String(fmt.Sprintf("BENCH-INGEST-%d", asn)), nil, nil)
		// Handles of this batch are valid by construction.
		_ = batch.AddRel("NAME", as, name, graph.Props{"reference_name": graph.String("bench.ingest")})
	}
	return batch
}

// A publish is one generation the serve_during_ingest writer publishes:
// when it is due, and the lookup that must find its first upserted AS once
// the generation is live.
type publish struct {
	seq     uint64 // in the store
	gen     uint64 // as the follower numbers it in replies
	at      time.Duration
	firstAS int64
	marker  request
	saved   time.Time // when Store.Save returned
}

// measureIngest reads like measureLookups from a follower while the
// benchmark process, as the builder, publishes generations into the store
// the follower watches.
func measureIngest(ctx context.Context, f *fixture, window time.Duration) *trial {
	tr := newTrial()
	plans := make([]*publish, len(ingestPublishAt))
	markers := map[uint64]*request{}
	for k, at := range ingestPublishAt {
		p := &publish{
			seq: uint64(k + 2), // the set-up saved generation 1
			// A follower numbers what it loads by store sequence only
			// while that keeps its chain increasing; its placeholder
			// graph already holds number 1, so it runs one ahead.
			gen:     f.baseGen + uint64(k+1),
			at:      time.Duration(at * float64(window)),
			firstAS: int64(ingestFirstAS + k*ingestUpserts),
		}
		p.marker = renderRequest(0, lookupTemplates[0].query, map[string]iyp.Value{"asn": graph.Int(p.firstAS)})
		p.marker.wantCount = 1
		plans[k], markers[p.gen] = p, &p.marker
	}

	// The first reply read from a new generation sends that
	// generation's marker lookup next on the same connection: what a
	// publish upserted must be readable the moment it is live.
	var newest atomic.Uint64
	newest.Store(f.baseGen)
	live := func(p *publish) bool { return newest.Load() >= p.gen }

	// The writer publishes on its schedule, but never before the readers
	// have seen its previous generation: a follower that finds two new
	// generations loads the newer only, and would number it otherwise.
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	readsOver := make(chan struct{})
	go func() {
		defer wg.Done()
		for k, p := range plans {
			time.Sleep(time.Until(start.Add(p.at)))
			for k > 0 && !live(plans[k-1]) {
				select {
				case <-readsOver:
					writerErr = fmt.Errorf("publish %d: generation %d never became visible", p.seq, plans[k-1].seq)
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
			if _, _, err := f.db.ApplyBatch(ingestBatch(p.firstAS, ingestUpserts)); err != nil {
				writerErr = fmt.Errorf("publish %d: %w", p.seq, err)
				return
			}
			gen, err := f.store.Save(f.db.Graph())
			if err != nil {
				writerErr = fmt.Errorf("publish %d: %w", p.seq, err)
				return
			}
			if gen.Seq != p.seq {
				writerErr = fmt.Errorf("publish: the store numbered the generation %d, planned %d", gen.Seq, p.seq)
				return
			}
			p.saved = time.Now()
		}
	}()

	// The readers go on past the window until the last publish is live: how
	// long a reload takes is go_live_s's to say, not a reason to fail.
	reads := phase{ctx: ctx, conns: f.conns, stream: f.stream, window: window, rowsEvery: fullRowsEvery,
		follow: func(gen uint64) *request {
			for {
				seen := newest.Load()
				if gen <= seen {
					return nil
				}
				if newest.CompareAndSwap(seen, gen) {
					return markers[gen]
				}
			}
		},
		until: func() bool { return live(plans[len(plans)-1]) || time.Since(start) > window+ingestGrace }}.run()
	close(readsOver)
	wg.Wait()
	tr.count(reads)
	closedLoopValues(tr, reads)
	tr.attempted += len(plans)
	if writerErr != nil {
		tr.failed += len(plans)
		tr.fail(writerErr)
		return tr
	}

	// A connection must never see the generation go backwards.
	sort.SliceStable(reads.samples, func(i, j int) bool { return reads.samples[i].done.Before(reads.samples[j].done) })
	last := map[int]uint64{}
	for _, s := range reads.samples {
		if s.gen < last[s.conn] {
			tr.failed++
			tr.fail(fmt.Errorf("connection %d read generation %d after %d", s.conn, s.gen, last[s.conn]))
		}
		last[s.conn] = s.gen
	}
	// Lag of a publish: Store.Save returned -> first reply from that
	// generation or a later one. A publish no reply ever showed failed.
	var lags []float64
	for _, p := range plans {
		at := 0
		for at < len(reads.samples) && reads.samples[at].gen < p.gen {
			at++
		}
		if at == len(reads.samples) {
			tr.failed++
			tr.fail(fmt.Errorf("generation %d never became visible", p.seq))
			continue
		}
		lags = append(lags, reads.samples[at].done.Sub(p.saved).Seconds())
	}
	tr.values["go_live_s"] = median(lags)
	return tr
}
