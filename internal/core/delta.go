package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"iyp/internal/crawlers"
	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/ontology"
	"iyp/internal/postproc"
	"iyp/internal/simnet"
	"iyp/internal/source"
)

// DeltaOptions configures an incremental build against a generation store.
type DeltaOptions struct {
	// Build carries the same knobs as a full build. Its Config (plus the
	// dataset list) must fingerprint-match the store's DATASETS manifest:
	// a changed configuration invalidates every dataset, which is a full
	// rebuild, not a delta. CheckpointDir/Resume are ignored — a delta
	// build re-crawls only a handful of datasets and is cheap to restart.
	Build BuildOptions
	// StoreDir is the generation store holding the previous build and its
	// DATASETS manifest (written by a full -store build).
	StoreDir string
	// Keep is the store's retention count (0 = store default).
	Keep int
	// Datasets forces these dataset names to re-crawl even when their
	// inputs are unchanged (empty = changed datasets only).
	Datasets []string
	// onLoad is a test hook called as the previous generation starts
	// loading.
	onLoad func()
}

// DeltaResult is a completed (or skipped) incremental build.
type DeltaResult struct {
	// Graph is the published graph (the previous generation's graph when
	// Unchanged).
	Graph *graph.Graph
	// PrevSeq is the generation the delta was computed against.
	PrevSeq uint64
	// Gen is the newly published generation (zero value when Unchanged).
	Gen graph.Generation
	// Unchanged is true when no dataset needed re-crawling: no new
	// generation was published.
	Unchanged bool
	// Recrawled lists the datasets re-crawled, sorted.
	Recrawled []string
	// RelsDeleted / NodesDeleted count what the delta removed from the
	// previous generation before re-crawling (refinement rels included).
	RelsDeleted  int
	NodesDeleted int
	// DictCarried is the string-dictionary size inherited from the previous
	// generation; DictTotal is the size after the delta. The published
	// generation's intern table is the previous one's, extended — only
	// strings the re-crawled datasets introduced were newly allocated.
	DictCarried int
	DictTotal   int
	// Report covers only the re-crawled datasets.
	Report  ingest.Report
	Elapsed time.Duration
}

// BuildDelta publishes the next generation of a store by re-crawling only
// the datasets whose inputs changed (plus any explicitly selected), against
// the previous generation's graph, instead of rebuilding from scratch:
//
//  1. Render the current inputs and compare every dataset's payload hashes
//     with the store's DATASETS manifest; unchanged datasets are skipped.
//     The previous generation loads concurrently.
//  2. Delete from the previous generation the relationships the changed
//     datasets contributed (by reference_name provenance) and all
//     refinement relationships (they derive from dataset relationships).
//  3. Re-crawl the changed datasets through the normal ingest pipeline —
//     each dataset commits as one journaled batch — then re-run the
//     refinement passes.
//  4. Drop the deleted relationships' endpoints that nothing re-linked,
//     and publish the result as the next generation, updating DATASETS.
//
// On unchanged inputs the delta build is a no-op (Unchanged=true, nothing
// published) and the previous generation is, trivially, exactly what a full
// rebuild would have produced. When datasets did change, the delta matches
// a full rebuild up to node-property merges: merge-style properties keep
// the value the previous build saw first (existing-values-win), and nodes
// shared with unchanged datasets are never deleted. Any re-crawl failure
// fails the whole delta — a half-applied delta would silently drop the
// failed dataset's relationships.
func BuildDelta(ctx context.Context, opts DeltaOptions) (*DeltaResult, error) {
	start := time.Now()
	cfg := opts.Build.Config
	if cfg.NumASes == 0 {
		cfg = simnet.DefaultConfig()
	}
	logf := opts.Build.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	cs := opts.Build.Crawlers
	if cs == nil {
		cs = crawlers.All()
	}
	datasets := make([]string, len(cs))
	byName := make(map[string]ingest.Crawler, len(cs))
	for i, c := range cs {
		datasets[i] = c.Reference().Name
		byName[datasets[i]] = c
	}
	fingerprint := buildFingerprint(cfg, datasets)
	forced := make(map[string]bool, len(opts.Datasets))
	for _, d := range opts.Datasets {
		if _, ok := byName[d]; !ok {
			return nil, fmt.Errorf("core: delta: unknown dataset %q", d)
		}
		forced[d] = true
	}

	store, err := graph.OpenStore(opts.StoreDir, graph.StoreOptions{Keep: opts.Keep})
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	man, err := ReadDatasetsManifest(store.Dir())
	if err != nil {
		return nil, fmt.Errorf("core: delta: no DATASETS manifest in %s (run a full build with -store first): %w", opts.StoreDir, err)
	}
	if man.Fingerprint != fingerprint {
		return nil, fmt.Errorf("core: delta: store %s was built from a different configuration (fingerprint %s, want %s); run a full build",
			opts.StoreDir, man.Fingerprint, fingerprint)
	}

	// The previous generation loads while the current inputs render: the
	// two share nothing until the deletions below, which wait for both.
	type loaded struct {
		g   *graph.Graph
		rep graph.OpenReport
		err error
	}
	prevc := make(chan loaded, 1)
	if opts.onLoad != nil {
		opts.onLoad()
	}
	go func() {
		g, rep, err := store.Open()
		prevc <- loaded{g, rep, err}
	}()
	catalog, changed, err := renderChanged(ctx, cfg, datasets, forced, man, logf)
	prev := <-prevc
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	if prev.err != nil {
		return nil, fmt.Errorf("core: delta: %w", prev.err)
	}
	g, prevSeq := prev.g, prev.rep.Loaded.Seq
	// The delta mutates the loaded graph in place, so the next generation
	// inherits this intern table and only newly-seen strings allocate.
	dictCarried := g.Interner().Len()

	if len(changed) == 0 {
		logf("delta: all %d datasets unchanged against generation %d; nothing to publish", len(datasets), prevSeq)
		return &DeltaResult{Graph: g, PrevSeq: prevSeq, Unchanged: true,
			DictCarried: dictCarried, DictTotal: dictCarried, Elapsed: time.Since(start)}, nil
	}
	logf("delta: re-crawling %d of %d datasets against generation %d", len(changed), len(datasets), prevSeq)

	// Delete what the changed datasets contributed, plus every refinement
	// relationship — refinement derives from dataset relationships and is
	// re-run below over the updated graph.
	drop := make(map[string]bool, len(changed)+8)
	for _, d := range changed {
		drop[d] = true
	}
	for _, p := range postproc.Passes() {
		drop[p.Name] = true
	}
	var doomed []graph.RelID
	g.EachRel(func(id graph.RelID) bool {
		if name, ok := g.RelProp(id, ontology.PropReferenceName).AsString(); ok && drop[name] {
			doomed = append(doomed, id)
		}
		return true
	})
	// Only an endpoint of a deleted relationship can be stranded by the
	// deletions; every other node keeps at least the relationships it had.
	stranded := make([]graph.NodeID, 0, 2*len(doomed))
	for _, id := range doomed {
		from, to := g.RelEndpoints(id)
		stranded = append(stranded, from, to)
		if err := g.DeleteRel(id); err != nil {
			return nil, fmt.Errorf("core: delta: %w", err)
		}
	}
	relsDeleted := len(doomed)
	slices.Sort(stranded)
	stranded = slices.Compact(stranded)

	ensureIdentityIndexes(g)
	fetchTime := opts.Build.FetchTime
	if fetchTime.IsZero() {
		fetchTime = time.Now().UTC()
	}

	runCs := make([]ingest.Crawler, 0, len(changed))
	for _, c := range cs { // declaration order, as in a full build
		if drop[c.Reference().Name] {
			runCs = append(runCs, c)
		}
	}
	report, err := crawl(ctx, opts.Build, catalog, g, runCs, fetchTime, nil, logf)
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	if failed := report.Failed(); len(failed) > 0 {
		return nil, fmt.Errorf("core: delta: dataset %s failed (%w); aborting so its relationships are not silently dropped",
			failed[0].Dataset, failed[0].Err)
	}

	if err := postproc.Run(g, fetchTime, logf); err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}

	// Orphan GC: nodes the deletions stranded (degree > 0 before, 0 after
	// re-crawl + refinement) no longer exist in a full rebuild either. They
	// go in ascending id order, so two identical deltas publish the same
	// bytes.
	nodesDeleted := 0
	var buf []graph.RelID
	for _, id := range stranded {
		if len(g.Rels(id, graph.DirBoth, nil, buf[:0])) > 0 {
			continue
		}
		if err := g.DeleteNode(id); err != nil {
			return nil, fmt.Errorf("core: delta: %w", err)
		}
		nodesDeleted++
	}

	gen, err := store.Save(g)
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	for _, c := range report.Crawls {
		if c.Err == nil && len(c.Inputs) > 0 {
			man.Datasets[c.Dataset] = DatasetInputs{
				Hash:      inputsHash(c.Inputs),
				FetchTime: fetchTime,
				Inputs:    c.Inputs,
			}
		}
	}
	man.Generation = gen.Seq
	if err := WriteDatasetsManifest(store.Dir(), man); err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}

	dictTotal := g.Interner().Len()
	logf("delta: published generation %d (%d nodes, %d relationships; -%d rels, -%d nodes, %d datasets re-crawled; dictionary %d strings, %d carried) in %s",
		gen.Seq, g.NumNodes(), g.NumRels(), relsDeleted, nodesDeleted, len(changed), dictTotal, dictCarried, time.Since(start).Round(time.Millisecond))
	return &DeltaResult{
		Graph:        g,
		PrevSeq:      prevSeq,
		Gen:          gen,
		Recrawled:    changed,
		RelsDeleted:  relsDeleted,
		NodesDeleted: nodesDeleted,
		DictCarried:  dictCarried,
		DictTotal:    dictTotal,
		Report:       report,
		Elapsed:      time.Since(start),
	}, nil
}

// rehash recomputes the combined input hash of recorded fetch paths against
// the current catalog. Any unreadable path yields a never-matching hash, so
// the dataset counts as changed.
func rehash(ctx context.Context, catalog *source.Catalog, recs []ingest.FetchRecord) string {
	fresh := make([]ingest.FetchRecord, 0, len(recs))
	for _, r := range recs {
		data, err := source.ReadAll(ctx, catalog, r.Path)
		if err != nil {
			return "unreadable:" + r.Path
		}
		sum := sha256.Sum256(data)
		fresh = append(fresh, ingest.FetchRecord{Path: r.Path, SHA256: hex.EncodeToString(sum[:])})
	}
	return inputsHash(fresh)
}

// renderChanged renders the current inputs and decides what to re-crawl: a
// dataset's fetch sequence is a function of the payloads it reads (the
// first path is fixed by the crawler, later ones follow from fetched
// content), so unchanged recorded payloads mean an identical crawl — those
// are skipped unless forced. changed is sorted.
func renderChanged(ctx context.Context, cfg simnet.Config, datasets []string, forced map[string]bool,
	man *DatasetsManifest, logf func(string, ...any)) (*source.Catalog, []string, error) {
	logf("delta: rendering current inputs (seed %d, %d ASes, %d domains)", cfg.Seed, cfg.NumASes, cfg.NumDomains)
	in, err := simnet.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	catalog := source.Render(in)
	var changed []string
	for _, name := range datasets {
		entry, ok := man.Datasets[name]
		switch {
		case forced[name]:
			changed = append(changed, name)
		case !ok:
			logf("delta: %s has no recorded inputs; re-crawling", name)
			changed = append(changed, name)
		case rehash(ctx, catalog, entry.Inputs) != entry.Hash:
			logf("delta: %s inputs changed", name)
			changed = append(changed, name)
		}
	}
	slices.Sort(changed)
	return catalog, changed, nil
}
