// Package core orchestrates the construction of the IYP knowledge graph —
// the paper's primary contribution (§2.3): generate (or connect to) the
// data sources, run all dataset crawlers in parallel, then apply the
// refinement passes and build the identity indexes. The result is the
// single harmonized database the studies query.
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"iyp/internal/crawlers"
	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/ontology"
	"iyp/internal/postproc"
	"iyp/internal/simnet"
	"iyp/internal/source"
)

// BuildOptions configures a knowledge-graph build.
type BuildOptions struct {
	// Config shapes the simulated Internet that stands in for the live
	// data feeds. The zero value means simnet.DefaultConfig().
	Config simnet.Config
	// UseHTTP serves the rendered datasets over a real localhost HTTP
	// server and fetches them through the network stack, exercising the
	// same code paths as a live deployment. When false, fetching is
	// in-process.
	UseHTTP bool
	// Concurrency bounds parallel crawler execution (0 = 4).
	Concurrency int
	// CrawlerTimeout bounds one crawler's run (0 = none). Hung feeds are
	// abandoned and reported failed; their staged writes are discarded.
	CrawlerTimeout time.Duration
	// WrapFetcher, when set, wraps the build's dataset fetcher — the hook
	// chaos tests use to inject faults (source.FaultFetcher) and operators
	// use to add retry policies (source.RetryFetcher).
	WrapFetcher func(source.Fetcher) source.Fetcher
	// FetchTime is stamped on all provenance (zero = now).
	FetchTime time.Time
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Crawlers overrides the dataset set (nil = all 47).
	Crawlers []ingest.Crawler

	// CheckpointDir, when set, makes the build resumable: every committed
	// dataset batch is journaled there, and a later Build with Resume set
	// replays the journals instead of re-fetching those datasets. The
	// directory can be removed once the final snapshot is durably saved.
	CheckpointDir string
	// Resume restores progress from CheckpointDir before crawling. A
	// checkpoint from a different configuration or dataset set is ignored
	// (the build starts fresh and overwrites it).
	Resume bool
	// onCommit is a test hook observing successful commits in order.
	onCommit func(dataset string)

	// MinSuccessRate is the fraction of datasets in (0,1] that must ingest
	// successfully for the build to be considered viable; below it the
	// build fails instead of producing a degraded snapshot. 0 means
	// best-effort: any number of dataset failures yields a (degraded)
	// snapshot, matching the paper's one-feed-costs-one-dataset promise.
	MinSuccessRate float64
	// CriticalDatasets lists dataset reference names (e.g.
	// "bgpkit.pfx2asn") whose failure always fails the build, regardless
	// of MinSuccessRate.
	CriticalDatasets []string
}

// BuildResult is a completed build.
type BuildResult struct {
	Graph    *graph.Graph
	Report   ingest.Report
	Internet *simnet.Internet
	Catalog  *source.Catalog
	// Resumed lists datasets restored from the checkpoint journal instead
	// of being re-fetched (empty for non-resumed builds).
	Resumed []string
	// Fingerprint identifies the build's inputs (config + dataset list);
	// it keys the checkpoint and the store's DATASETS manifest.
	Fingerprint string
	// FetchTime is the provenance timestamp stamped on this build.
	FetchTime time.Time
	// Elapsed is the total wall-clock build time.
	Elapsed time.Duration
}

// buildFingerprint identifies a build's inputs — the simulated-Internet
// configuration plus the exact dataset list, in order — so a checkpoint is
// never resumed into a build it does not belong to. FetchTime is excluded:
// the checkpoint pins it separately and the resumed build adopts it.
func buildFingerprint(cfg simnet.Config, datasets []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n", cfg)
	for _, d := range datasets {
		fmt.Fprintln(h, d)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// crawl runs the crawlers cs into g: a full build's whole dataset set or
// its unresumed rest, or a delta build's changed datasets. They fetch from
// the rendered catalog in process or, with UseHTTP, from a localhost server
// behind the retry policy; WrapFetcher wraps either. The server lives only
// as long as the crawl.
func crawl(ctx context.Context, opts BuildOptions, catalog *source.Catalog, g *graph.Graph, cs []ingest.Crawler, fetchTime time.Time, cp *ingest.Checkpoint, logf func(string, ...any)) (ingest.Report, error) {
	var fetcher source.Fetcher = catalog
	if opts.UseHTTP {
		srv, err := source.Serve(catalog)
		if err != nil {
			return ingest.Report{}, err
		}
		defer srv.Close()
		// Real network fetches get the hardened retry policy for free.
		fetcher = &source.RetryFetcher{Base: &source.HTTPFetcher{Base: srv.BaseURL()}}
		logf("serving datasets at %s", srv.BaseURL())
	}
	if opts.WrapFetcher != nil {
		fetcher = opts.WrapFetcher(fetcher)
	}
	pipe := &ingest.Pipeline{
		Graph:       g,
		Fetcher:     fetcher,
		Crawlers:    cs,
		Concurrency: opts.Concurrency,
		Timeout:     opts.CrawlerTimeout,
		FetchTime:   fetchTime,
		Checkpoint:  cp,
		OnCommit:    opts.onCommit,
		Logf:        logf,
	}
	return pipe.Run(ctx)
}

// Build constructs a full IYP knowledge graph.
func Build(ctx context.Context, opts BuildOptions) (*BuildResult, error) {
	start := time.Now()
	cfg := opts.Config
	if cfg.NumASes == 0 {
		cfg = simnet.DefaultConfig()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	logf("generating synthetic Internet (seed %d, %d ASes, %d domains)", cfg.Seed, cfg.NumASes, cfg.NumDomains)
	in, err := simnet.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	catalog := source.Render(in)
	logf("rendered %d datasets (%d bytes)", len(catalog.Paths()), catalog.Size())

	g := graph.New()
	ensureIdentityIndexes(g)

	cs := opts.Crawlers
	if cs == nil {
		cs = crawlers.All()
	}
	datasets := make([]string, len(cs))
	orgs := make(map[string]string, len(cs))
	for i, c := range cs {
		ref := c.Reference()
		datasets[i] = ref.Name
		orgs[ref.Name] = ref.Organization
	}

	// Pin the provenance timestamp up front: a resumed build must stamp
	// freshly-crawled datasets with the same time the replayed ones carry.
	fetchTime := opts.FetchTime
	if fetchTime.IsZero() {
		fetchTime = time.Now().UTC()
	}

	var (
		cp       *ingest.Checkpoint
		replayed []ingest.ReplayedCommit
		runCs    = cs
	)
	if opts.CheckpointDir != "" {
		cp, replayed, g, err = openOrCreateCheckpoint(opts, buildFingerprint(cfg, datasets), fetchTime, g, logf)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		defer cp.Close()
		if len(replayed) > 0 {
			// The checkpoint owns the timestamp now; drop the committed
			// prefix from the crawl list.
			fetchTime = cp.FetchTime()
			done := make(map[string]bool, len(replayed))
			for _, r := range replayed {
				done[r.Dataset] = true
			}
			runCs = nil
			for _, c := range cs {
				if !done[c.Reference().Name] {
					runCs = append(runCs, c)
				}
			}
			logf("resumed %d dataset(s) from checkpoint %s; %d to crawl",
				len(replayed), opts.CheckpointDir, len(runCs))
		}
	}

	report, err := crawl(ctx, opts, catalog, g, runCs, fetchTime, cp, logf)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Replayed datasets count as ingested: fold them into the report so the
	// build policy and operators see the whole dataset set, not just the
	// re-crawled remainder.
	var resumed []string
	for _, r := range replayed {
		resumed = append(resumed, r.Dataset)
		report.Crawls = append(report.Crawls, ingest.CrawlReport{
			Dataset:      r.Dataset,
			Organization: orgs[r.Dataset],
			NodesCreated: r.NodesCreated,
			LinksCreated: r.LinksCreated,
		})
	}
	sort.Slice(report.Crawls, func(i, j int) bool { return report.Crawls[i].Dataset < report.Crawls[j].Dataset })
	if err := applyBuildPolicy(&report, opts); err != nil {
		logf("build policy: %v", err)
		return nil, fmt.Errorf("core: %w", err)
	}
	if report.Degraded {
		logf("build policy: %s", report.PolicyNote)
	}

	if err := postproc.Run(g, fetchTime, logf); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	logf("build complete: %d nodes, %d relationships in %s",
		g.NumNodes(), g.NumRels(), time.Since(start).Round(time.Millisecond))
	return &BuildResult{
		Graph:       g,
		Report:      report,
		Internet:    in,
		Catalog:     catalog,
		Resumed:     resumed,
		Fingerprint: buildFingerprint(cfg, datasets),
		FetchTime:   fetchTime,
		Elapsed:     time.Since(start),
	}, nil
}

// openOrCreateCheckpoint resolves the build's checkpoint: on Resume it
// opens the existing one, verifies it belongs to this build (fingerprint),
// and replays its journals into g; any mismatch, damage, or absence falls
// back to a fresh checkpoint — a bad checkpoint costs the resume, never the
// build. The returned graph's state always matches the returned replay list
// (after a failed replay the graph is rebuilt empty, identity indexes and
// all).
func openOrCreateCheckpoint(opts BuildOptions, fingerprint string, fetchTime time.Time, g *graph.Graph, logf func(string, ...any)) (*ingest.Checkpoint, []ingest.ReplayedCommit, *graph.Graph, error) {
	dir := opts.CheckpointDir
	if opts.Resume {
		cp, err := ingest.OpenCheckpoint(dir)
		switch {
		case err != nil:
			logf("resume: %v; starting fresh", err)
		case cp.Fingerprint() != fingerprint:
			cp.Close()
			logf("resume: checkpoint in %s belongs to a different build (fingerprint %s, want %s); starting fresh",
				dir, cp.Fingerprint(), fingerprint)
		default:
			replayed, err := cp.Replay(g)
			if err == nil {
				return cp, replayed, g, nil
			}
			cp.Close()
			logf("resume: %v; starting fresh", err)
			// A failed replay may have applied a partial prefix — discard
			// the graph and start over.
			g = graph.New()
			ensureIdentityIndexes(g)
		}
	}
	cp, err := ingest.CreateCheckpoint(dir, fingerprint, fetchTime)
	if err != nil {
		return nil, nil, nil, err
	}
	return cp, nil, g, nil
}

// applyBuildPolicy evaluates the degraded-build policy and records the
// decision on the report: fail the build when a critical dataset is lost or
// the success rate falls below the operator's floor; otherwise proceed,
// flagging the snapshot as degraded when any dataset failed.
func applyBuildPolicy(rep *ingest.Report, opts BuildOptions) error {
	total := len(rep.Crawls)
	failed := rep.Failed()
	if len(failed) == 0 {
		rep.PolicyNote = fmt.Sprintf("clean: all %d datasets ingested", total)
		return nil
	}
	rep.Degraded = true
	names := make(map[string]error, len(failed))
	for _, f := range failed {
		names[f.Dataset] = f.Err
	}
	for _, crit := range opts.CriticalDatasets {
		if err, ok := names[crit]; ok {
			rep.PolicyNote = fmt.Sprintf("fail-fast: critical dataset %s failed", crit)
			return fmt.Errorf("critical dataset %s failed: %w", crit, err)
		}
	}
	ok := total - len(failed)
	if total > 0 && opts.MinSuccessRate > 0 {
		rate := float64(ok) / float64(total)
		if rate < opts.MinSuccessRate {
			rep.PolicyNote = fmt.Sprintf("fail-fast: %d/%d datasets ingested, below the %.0f%% floor",
				ok, total, opts.MinSuccessRate*100)
			return fmt.Errorf("only %d/%d datasets ingested (%.1f%%), below the required %.1f%%",
				ok, total, 100*float64(ok)/float64(total), opts.MinSuccessRate*100)
		}
	}
	rep.PolicyNote = fmt.Sprintf("degraded: %d/%d datasets ingested", ok, total)
	return nil
}

// ensureIdentityIndexes creates the hash index behind every ontology
// identity property up front, so crawler upserts never fall back to label
// scans.
func ensureIdentityIndexes(g *graph.Graph) {
	for _, e := range ontology.Entities() {
		if e.IdentityKey != "" {
			g.EnsureIndex(e.Name, e.IdentityKey)
		}
	}
}
