// Command iyp-report reproduces the paper's evaluation: it runs the RiPKI
// and DNS-robustness studies, their extensions, and the SPoF analysis
// against a snapshot (or a fresh build), printing each table and figure
// next to the paper's published values.
//
// Usage:
//
//	iyp-report -db iyp.snapshot            # use an existing snapshot
//	iyp-report -scale 0.5                  # build fresh at half scale
//	iyp-report -db iyp.snapshot -inventory # also print the dataset inventory
//	iyp-report -diff old.snapshot new.snapshot  # diff two snapshots
//	iyp-report -diff -store gens/ 3 5      # diff two persisted generations
//
// The diff uses every CPU; its output does not depend on how many.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"time"

	"iyp"
	"iyp/internal/algo"
	"iyp/internal/crawlers"
	"iyp/internal/graph"
	"iyp/internal/ontology"
	"iyp/internal/studies"
	"iyp/internal/temporal"
)

func main() {
	log.SetFlags(0)
	var (
		dbPath    = flag.String("db", "", "snapshot to analyze (empty = build fresh)")
		scale     = flag.Float64("scale", 1.0, "build scale when -db is empty")
		seed      = flag.Int64("seed", 42, "build seed when -db is empty")
		inventory = flag.Bool("inventory", false, "print the dataset inventory and graph statistics")
		sneak     = flag.Bool("sneakpeek", false, "walk the graph around the top-ranked domain (Figure 4)")
		validate  = flag.Bool("validate", false, "check the graph against the ontology before reporting")
		algoRun   = flag.Bool("algo", false, "run the whole-graph analytics kernels and print a structural summary")
		diffRun   = flag.Bool("diff", false, "diff two snapshots (or, with -store, two generation numbers)")
		storeDir  = flag.String("store", "", "generation store directory for -diff")
	)
	flag.Parse()

	if *diffRun {
		if err := runDiff(*storeDir, flag.Args()); err != nil {
			log.Fatalf("iyp-report: diff: %v", err)
		}
		return
	}

	var (
		db  *iyp.DB
		err error
	)
	if *dbPath != "" {
		db, err = iyp.Load(*dbPath)
	} else {
		db, err = iyp.Build(context.Background(), iyp.Options{Scale: *scale, Seed: *seed, Logf: log.Printf})
	}
	if err != nil {
		log.Fatalf("iyp-report: %v", err)
	}

	if *validate {
		if issues := ontology.ValidateGraph(db.Graph(), 50); len(issues) > 0 {
			fmt.Printf("== Ontology violations (%d) ==\n", len(issues))
			for _, v := range issues {
				fmt.Println("  " + v.String())
			}
			fmt.Println()
		} else {
			fmt.Println("ontology validation: clean")
		}
	}

	if *inventory {
		fmt.Println("== Dataset inventory (Table 8) ==")
		orgs := map[string]int{}
		for _, c := range crawlers.All() {
			ref := c.Reference()
			orgs[ref.Organization]++
			fmt.Printf("  %-28s %s\n", ref.Name, ref.Organization)
		}
		fmt.Printf("%d datasets from %d organizations\n\n", len(crawlers.All()), len(orgs))
		fmt.Println("== Graph statistics ==")
		fmt.Println(db.Stats())
	}

	if *algoRun {
		if err := runAnalytics(db.Graph()); err != nil {
			log.Fatalf("iyp-report: analytics: %v", err)
		}
		return
	}

	t0 := time.Now()
	rep, err := studies.RunAll(db.Graph())
	if err != nil {
		log.Fatalf("iyp-report: %v", err)
	}
	fmt.Println(rep)
	fmt.Printf("(all studies completed in %s)\n", time.Since(t0).Round(time.Millisecond))

	if *sneak {
		sp, err := studies.SneakPeek(db.Graph(), 1, 3)
		if err != nil {
			log.Fatalf("iyp-report: sneak peek: %v", err)
		}
		fmt.Printf("\n== Figure 4: neighbourhood of %s ==\n", sp.Domain)
		for _, l := range sp.Lines {
			fmt.Println("  " + l)
		}
		fmt.Printf("%d relationships from %d distinct datasets: %v\n",
			len(sp.Lines), len(sp.Datasets), sp.Datasets)
	}
}

// runDiff is the -diff path: it loads two frozen generations — either two
// snapshot files, or two generation numbers out of a -store directory —
// and prints the temporal diff between them.
func runDiff(storeDir string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("need exactly two arguments (got %d): two snapshot paths, or with -store two generation numbers", len(args))
	}
	var fromG, toG *graph.Graph
	var fromSeq, toSeq uint64
	if storeDir != "" {
		st, err := graph.OpenStore(storeDir, graph.StoreOptions{})
		if err != nil {
			return err
		}
		seqs := make([]uint64, 2)
		for i, a := range args {
			n, err := strconv.ParseUint(a, 10, 64)
			if err != nil || n == 0 {
				return fmt.Errorf("%q is not a generation number", a)
			}
			seqs[i] = n
		}
		fromSeq, toSeq = seqs[0], seqs[1]
		if fromG, err = temporal.LoadGeneration(st, fromSeq); err != nil {
			return err
		}
		if toG, err = temporal.LoadGeneration(st, toSeq); err != nil {
			return err
		}
	} else {
		var err error
		if fromG, err = graph.LoadFile(args[0]); err != nil {
			return err
		}
		if toG, err = graph.LoadFile(args[1]); err != nil {
			return err
		}
		fromG.Freeze()
		toG.Freeze()
		fromSeq, toSeq = 1, 2
	}
	res, err := temporal.Diff(context.Background(), fromG, toG, temporal.DiffOptions{})
	if err != nil {
		return err
	}
	res.From, res.To = fromSeq, toSeq
	fmt.Print(res)
	return nil
}

// runAnalytics is the -algo path: it compiles a CSR view of the whole
// graph and runs the analytics kernels over it, printing the structural
// summary the paper's measurement comparisons lean on — connectivity,
// degree distribution, and the most central nodes.
func runAnalytics(g *graph.Graph) error {
	ctx := context.Background()
	v := algo.CachedView(g, algo.ViewOptions{})
	fmt.Println("== Graph analytics ==")
	fmt.Printf("view: %d nodes, %d edges, compiled in %s\n", v.N(), v.M(), v.BuildTime.Round(time.Microsecond))

	t0 := time.Now()
	comp, ncomp, err := algo.WCC(ctx, v, 0)
	if err != nil {
		return err
	}
	sizes := map[int32]int{}
	for _, c := range comp {
		sizes[c]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("wcc: %d components, largest %d nodes (%.1f%%) [%s]\n",
		ncomp, largest, 100*float64(largest)/float64(max(v.N(), 1)), time.Since(t0).Round(time.Microsecond))

	t0 = time.Now()
	_, nscc, err := algo.SCC(ctx, v)
	if err != nil {
		return err
	}
	fmt.Printf("scc: %d components [%s]\n", nscc, time.Since(t0).Round(time.Microsecond))

	t0 = time.Now()
	ds, err := algo.Degrees(ctx, v, 0)
	if err != nil {
		return err
	}
	fmt.Printf("degree: mean out %.2f, max out %d, max in %d [%s]\n",
		ds.MeanOut, ds.MaxOut, ds.MaxIn, time.Since(t0).Round(time.Microsecond))
	fmt.Println("out-degree histogram (log2 buckets):")
	for b, c := range ds.OutHist {
		if c == 0 {
			continue
		}
		lo, hi := algo.BucketBounds(b)
		fmt.Printf("  [%6d, %6d] %d\n", lo, hi, c)
	}

	t0 = time.Now()
	scores, iters, err := algo.PageRank(ctx, v, algo.PageRankOptions{})
	if err != nil {
		return err
	}
	type ranked struct {
		i int32
		s float64
	}
	top := make([]ranked, 0, v.N())
	for i, s := range scores {
		top = append(top, ranked{int32(i), s})
	}
	sort.Slice(top, func(a, b int) bool {
		if top[a].s != top[b].s {
			return top[a].s > top[b].s
		}
		return top[a].i < top[b].i
	})
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Printf("pagerank: %d iterations [%s]; top nodes:\n", iters, time.Since(t0).Round(time.Microsecond))
	for _, r := range top {
		fmt.Printf("  %-40s %.6f\n", describeNode(g, v.ExtID(r.i)), r.s)
	}
	return nil
}

// describeNode renders a node as "Label name" for the analytics listing.
func describeNode(g *graph.Graph, id graph.NodeID) string {
	label := ""
	if ls := g.NodeLabels(id); len(ls) > 0 {
		label = ls[0]
	}
	for _, key := range []string{"name", "label", "asn", "prefix", "ip", "country_code"} {
		v := g.NodeProp(id, key)
		if s, ok := v.AsString(); ok && s != "" {
			return label + " " + s
		}
		if n, ok := v.AsInt(); ok {
			return fmt.Sprintf("%s %d", label, n)
		}
	}
	return fmt.Sprintf("%s #%d", label, id)
}
