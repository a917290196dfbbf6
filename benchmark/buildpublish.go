package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"iyp"
	"iyp/internal/core"
	"iyp/internal/graph"
	"iyp/internal/simnet"
	"iyp/internal/studies"
)

// build_publish is the operator's weekly-dump path, in process, through
// the entry points cmd/iyp-build and cmd/iyp-report call.
const (
	// A fifth of the default Internet: small enough that the window
	// holds three whole cycles, the least a median needs.
	publishScale = 0.2
	deltaDataset = "bgpkit.pfx2asn" // the dataset every cycle's delta build re-crawls
	burstBatches = 200              // ApplyBatch publishes per cycle
	burstUpserts = 50               // AS upserts per batch
	diffQuery    = `CALL temporal.diff({from: 1, to: 2}) YIELD kind, name, added, removed, changed RETURN kind, name, added, removed, changed`
)

// publishStages are the stages of one cycle, in order.
var publishStages = []string{"build", "studies", "save", "delta", "diff", "burst"}

// A cycle is what one pass over the dump path measured.
type cycle struct {
	stage     map[string]time.Duration
	wall      time.Duration
	snapBytes int64
	report    string // the studies' report, which every cycle must reproduce
}

func (b *bench) publishConfig() simnet.Config {
	cfg := simnet.DefaultConfig().Scale(b.scale(publishScale))
	cfg.Seed = b.seed
	return cfg
}

// runCycle builds, evaluates, publishes, delta-publishes, diffs and then
// writes a burst of small batches, in a store directory of its own.
func (b *bench) runCycle(ctx context.Context, res *result) (*cycle, error) {
	dir, err := os.MkdirTemp(b.workDir, "build_publish-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	c := &cycle{stage: map[string]time.Duration{}}
	start := time.Now()
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		c.stage[name] = time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var db *iyp.DB
	if err := timed("build", func() (err error) {
		db, err = iyp.Build(ctx, iyp.Options{Config: b.publishConfig()})
		return err
	}); err != nil {
		return nil, err
	}
	nodes, rels := db.Graph().NumNodes(), db.Graph().NumRels()

	if err := timed("studies", func() error {
		rep, err := studies.RunAll(db.Graph())
		if err == nil {
			c.report = rep.String()
		}
		return err
	}); err != nil {
		return nil, err
	}

	if err := timed("save", func() error {
		store, err := graph.OpenStore(storeDir, graph.StoreOptions{Keep: 3})
		if err != nil {
			return err
		}
		gen, err := store.Save(db.Graph())
		if err != nil {
			return err
		}
		if c.snapBytes, err = fileSize(gen.Path); err != nil {
			return err
		}
		man := core.ManifestFromReport(db.BuildFingerprint, gen.Seq, db.BuildFetchTime, db.Report)
		return core.WriteDatasetsManifest(storeDir, man)
	}); err != nil {
		return nil, err
	}

	res.Attempted++
	if err := timed("delta", func() error {
		d, err := core.BuildDelta(ctx, core.DeltaOptions{
			Build:    core.BuildOptions{Config: b.publishConfig()},
			StoreDir: storeDir,
			Keep:     3,
			Datasets: []string{deltaDataset},
		})
		if err != nil {
			return err
		}
		// Re-crawling unchanged inputs must reproduce the graph's totals.
		if d.Graph.NumNodes() != nodes || d.Graph.NumRels() != rels {
			res.Failed++
			res.note(fmt.Errorf("delta build: %d nodes / %d rels, the full build had %d / %d",
				d.Graph.NumNodes(), d.Graph.NumRels(), nodes, rels))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := timed("diff", func() error {
		opened, _, err := iyp.OpenStore(storeDir)
		if err != nil {
			return err
		}
		_, err = opened.Query(ctx, diffQuery)
		return err
	}); err != nil {
		return nil, err
	}

	if err := timed("burst", func() error {
		for i := 0; i < burstBatches; i++ {
			res.Attempted++
			out, _, err := db.ApplyBatch(ingestBatch(int64(ingestFirstAS+i*burstUpserts), burstUpserts))
			if err != nil {
				return err
			}
			if out.NodesCreated != 2*burstUpserts || out.RelsCreated != burstUpserts {
				res.Failed++
				res.note(fmt.Errorf("batch %d created %d nodes / %d rels", i, out.NodesCreated, out.RelsCreated))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	c.wall = time.Since(start)
	return c, nil
}

func (b *bench) buildPublish(ctx context.Context) (*result, error) {
	res := newResult(b.spec)

	// Set-up is what has to happen before the first timed cycle: a store
	// directory and a build that brings the heap to its working size.
	// Only the first of the repeats starts cold; the median is a warm one.
	var setUps []time.Duration
	for t := 0; t < b.trials; t++ {
		t0 := time.Now()
		if _, err := iyp.Build(ctx, iyp.Options{Config: b.publishConfig()}); err != nil {
			return nil, fmt.Errorf("warm-up build: %w", err)
		}
		setUps = append(setUps, time.Since(t0))
	}

	var cycles []*cycle
	for start := time.Now(); len(cycles) < 3 || time.Since(start) < b.window; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := b.runCycle(ctx, res)
		if err != nil {
			return nil, err
		}
		res.Attempted++ // the studies' report
		if len(cycles) > 0 && c.report != cycles[0].report {
			res.Failed++
			res.note(fmt.Errorf("cycle %d: the studies' report differs from the first cycle's", len(cycles)))
		}
		b.logf("build_publish cycle %d: %v wall %v", len(cycles), c.stage, c.wall)
		cycles = append(cycles, c)
	}

	var walls, deltas, rates, sizes []float64
	slowest := 0.0
	for _, name := range publishStages {
		var xs []float64
		for _, c := range cycles {
			xs = append(xs, ms(c.stage[name]))
		}
		slowest = max(slowest, median(xs))
	}
	for _, c := range cycles {
		walls = append(walls, ms(c.wall))
		deltas = append(deltas, c.stage["delta"].Seconds())
		rates = append(rates, burstBatches/c.stage["burst"].Seconds())
		sizes = append(sizes, float64(c.snapBytes))
	}
	rss, err := rssPeakMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(seconds(setUps)))
	res.set("latency_p50_ms", median(walls))
	res.set("latency_tail_ms", slowest) // the tail of a cycle is its slowest stage
	res.set("throughput_per_s", median(rates))
	res.set("go_live_s", median(deltas))
	res.set("rss_peak_mb", rss)
	res.set("snapshot_bytes", median(sizes))
	return res, nil
}
