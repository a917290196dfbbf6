package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"iyp/internal/graph"
	"iyp/internal/source"
)

// ErrCrawlTimeout marks a crawler that exceeded the pipeline's per-crawler
// deadline. Its staged writes were discarded.
var ErrCrawlTimeout = errors.New("ingest: crawler timed out")

// Pipeline runs a set of crawlers against one graph, in parallel, with
// per-crawler fault isolation: a failing, panicking, or hung dataset never
// aborts the build (the real IYP pipeline behaves the same way — a stale or
// broken feed costs one dataset, not the snapshot), and because every
// crawler stages its writes in its session and commits only on success, a
// failed dataset also never leaves partial nodes or links behind.
//
// Crawls run concurrently, but commits are applied in crawler-declaration
// order: the order in which batches reach the graph — and therefore node-ID
// assignment and the final snapshot bytes — is the same on every run with
// the same inputs. That determinism is what makes checkpointed builds
// resumable: a resumed build replays the journaled prefix and re-runs the
// rest, landing on a byte-identical snapshot.
type Pipeline struct {
	Graph   *graph.Graph
	Fetcher source.Fetcher
	// Crawlers to run. Declaration order fixes commit order; dependencies
	// between datasets do not exist by design (refinement passes run after).
	Crawlers []Crawler
	// Concurrency bounds parallel crawler execution (0 = 4).
	Concurrency int
	// Timeout bounds one crawler's run (0 = none). A crawler that
	// overruns is abandoned and reported failed with ErrCrawlTimeout;
	// its staged writes are discarded and the rest of the build proceeds.
	Timeout time.Duration
	// FetchTime is stamped on all provenance (zero = now).
	FetchTime time.Time
	// Checkpoint, when set, durably journals every committed batch so an
	// interrupted build can resume without re-fetching committed datasets.
	Checkpoint *Checkpoint
	// OnCommit, when set, is called after each successful commit with the
	// dataset name, in commit order.
	OnCommit func(dataset string)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// CrawlReport describes one crawler's outcome. For failed crawlers the
// write counts are zero by construction: nothing was committed.
type CrawlReport struct {
	Dataset      string
	Organization string
	Duration     time.Duration
	NodesCreated int
	LinksCreated int
	// Inputs is the dataset's input fingerprint — the payloads fetched, in
	// order, with content hashes. Empty for failed crawls and for datasets
	// replayed from a checkpoint (the journal does not record fetches); a
	// delta build treats a dataset without inputs as changed.
	Inputs []FetchRecord
	Err    error
}

// Report is the pipeline outcome.
type Report struct {
	Crawls []CrawlReport
	Total  time.Duration
	// Degraded is set when the snapshot was built without every dataset
	// (some crawls failed but the build-policy allowed proceeding).
	Degraded bool
	// PolicyNote records the degraded-build decision for operators, e.g.
	// "degraded: 45/47 datasets ingested".
	PolicyNote string
}

// Failed returns the subset of crawls that errored.
func (r Report) Failed() []CrawlReport {
	var out []CrawlReport
	for _, c := range r.Crawls {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// String renders the report as a table.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %-22s %10s %10s %10s\n", "dataset", "organization", "nodes", "links", "duration")
	for _, c := range r.Crawls {
		status := fmt.Sprintf("%10d %10d %10s", c.NodesCreated, c.LinksCreated, c.Duration.Round(time.Millisecond))
		if c.Err != nil {
			status = "ERROR: " + c.Err.Error()
		}
		fmt.Fprintf(&sb, "%-32s %-22s %s\n", c.Dataset, c.Organization, status)
	}
	fmt.Fprintf(&sb, "total: %s\n", r.Total.Round(time.Millisecond))
	if r.PolicyNote != "" {
		fmt.Fprintf(&sb, "policy: %s\n", r.PolicyNote)
	}
	return sb.String()
}

// crawlOutcome carries one finished (or abandoned) crawl from its runner
// goroutine to the in-order committer.
type crawlOutcome struct {
	started bool
	s       *Session
	rep     CrawlReport
}

// Run executes all crawlers and returns the report. The only error
// returned is a context cancellation; dataset-level failures are recorded
// in the report. Every launched crawler is always awaited (or abandoned at
// its deadline) before Run returns — an aborted build never leaves
// goroutines racing on the report or the graph. Crawls overlap up to
// Concurrency; their staged batches are committed strictly in
// declaration order.
func (p *Pipeline) Run(ctx context.Context) (Report, error) {
	start := time.Now()
	conc := p.Concurrency
	if conc <= 0 {
		conc = 4
	}
	fetchTime := p.FetchTime
	if fetchTime.IsZero() {
		fetchTime = time.Now().UTC()
	}
	logf := p.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	sem := make(chan struct{}, conc)
	slots := make([]chan crawlOutcome, len(p.Crawlers))
	var wg sync.WaitGroup
	for i, c := range p.Crawlers {
		slots[i] = make(chan crawlOutcome, 1)
		if ctx.Err() != nil {
			// Never launched: omitted from the report entirely.
			slots[i] <- crawlOutcome{}
			continue
		}
		wg.Add(1)
		go func(i int, c Crawler) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s, rep := p.crawlOne(ctx, c, fetchTime)
			slots[i] <- crawlOutcome{started: true, s: s, rep: rep}
		}(i, c)
	}

	// In-order committer: drain outcomes in declaration order so batches
	// reach the graph deterministically regardless of crawl scheduling.
	var reports []CrawlReport
	for i := range slots {
		out := <-slots[i]
		if !out.started {
			continue
		}
		rep := out.rep
		if rep.Err == nil && ctx.Err() != nil {
			// Cancelled between this crawl finishing and its commit slot
			// coming up: discard the staged writes so the build stops at a
			// clean commit boundary (which is what makes -resume exact).
			rep.Err = ctx.Err()
		}
		if rep.Err == nil {
			if err := out.s.Commit(); err != nil {
				rep.Err = err
			} else {
				rep.NodesCreated, rep.LinksCreated = out.s.Counts()
				rep.Inputs = out.s.Fetches()
				if err := p.Checkpoint.Record(rep.Dataset, out.s); err != nil {
					logf("%v", err)
				}
				if p.OnCommit != nil {
					p.OnCommit(rep.Dataset)
				}
			}
		}
		if rep.Err != nil {
			logf("crawler %s failed: %v", rep.Dataset, rep.Err)
		} else {
			logf("crawler %s done: %d nodes, %d links in %s", rep.Dataset, rep.NodesCreated, rep.LinksCreated, rep.Duration.Round(time.Millisecond))
		}
		reports = append(reports, rep)
	}
	wg.Wait()
	sort.Slice(reports, func(i, j int) bool { return reports[i].Dataset < reports[j].Dataset })
	return Report{Crawls: reports, Total: time.Since(start)}, ctx.Err()
}

// crawlOne supervises a single crawler's run with the per-crawler deadline,
// returning its session with the writes still staged — the caller commits
// (in declaration order) only when the report carries no error. A crawler
// that ignores its context past the deadline is abandoned — safe, because
// an uncommitted session only ever writes to its private staging buffer.
func (p *Pipeline) crawlOne(ctx context.Context, c Crawler, fetchTime time.Time) (*Session, CrawlReport) {
	ref := c.Reference()
	ref.FetchTime = fetchTime
	s := NewSession(p.Graph, p.Fetcher, ref)

	cctx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}

	t0 := time.Now()
	done := make(chan error, 1)
	go func() { done <- runIsolated(cctx, c, s) }()

	var err error
	select {
	case err = <-done:
	case <-cctx.Done():
		// The crawler is still running; abandon it without touching the
		// session again (it keeps writing to its own staging buffer, which
		// is never committed).
		if p.Timeout > 0 && errors.Is(cctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("%w after %s (staged writes discarded)", ErrCrawlTimeout, p.Timeout)
		} else {
			err = cctx.Err()
		}
	}
	return s, CrawlReport{
		Dataset:      ref.Name,
		Organization: ref.Organization,
		Duration:     time.Since(t0),
		Err:          err,
	}
}

// runIsolated converts crawler panics into errors so one malformed dataset
// cannot take down the build.
func runIsolated(ctx context.Context, c Crawler, s *Session) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ingest: crawler panic: %v", r)
		}
	}()
	return c.Run(ctx, s)
}
