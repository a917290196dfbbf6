// Command benchmark is this repository's one benchmark: four seeded
// workloads over the IYP stack, each reporting the same end-to-end metrics,
// and with -trace the per-layer metrics behind them. BENCHMARK.json at the
// repository root names the workloads and metrics and is read at start-up,
// so the two cannot drift apart. See README.md in this directory.
//
//	bash benchmark/run.sh --workload lookup_zipf --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -compare runsA runsB
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// bench is one run's configuration.
type bench struct {
	spec     *spec
	seed     int64
	window   time.Duration // how long the workload measures
	trace    bool
	serveBin string
	workDir  string // temporary stores, each removed when its fixture is torn down
	outDir   string // trace files
	conns    int    // load connections; never more than the processors
	trials   int    // set-ups per run, each measured for an equal share of the window
	scaleMul float64
	verbose  bool
}

// scale is the simnet scale a workload builds at. The smoke test shrinks
// every workload by the same factor; the benchmark proper never does.
func (b *bench) scale(s float64) float64 { return s * b.scaleMul }

func (b *bench) logf(format string, args ...any) {
	if b.verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	spec *spec
	errs []error
}

func newResult(sp *spec) *result { return &result{spec: sp, Metrics: map[string]metric{}} }

// set records a metric under the unit BENCHMARK.json gives it.
func (r *result) set(name string, value float64) {
	r.Metrics[name] = metric{value, r.spec.unit(name)}
}

// add counts a trial's operations into the run's.
func (r *result) add(t *trial) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	for _, err := range t.errs {
		r.note(err)
	}
}

// note keeps the first few reasons operations failed, for the report.
func (r *result) note(err error) {
	if err != nil && len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

func (b *bench) run(ctx context.Context, workload string) (*result, error) {
	switch {
	case measures[workload] == nil:
		return nil, fmt.Errorf("unknown workload %q", workload)
	case b.trace:
		return b.traced(ctx, workload)
	case workload == "build_publish":
		return b.buildPublish(ctx)
	}
	return b.serving(ctx, workload)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the simulated Internet and of the request stream")
		secs     = flag.Float64("seconds", 0, "seconds one run measures (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/<workload>.trace.json")
		serveBin = flag.String("serve-bin", "", "iyp-serve binary built from the commit under test")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's contract")
		verbose  = flag.Bool("v", false, "progress and per-trial detail on standard error")
		recordTo = flag.String("record", "", "append each run's result to this file, for -compare")
		cmp      = flag.Bool("compare", false, "compare two -record files, parent first: benchmark -compare A B")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two -record files, the parent's first")
		}
		regressed, err := compare(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err == nil && regressed {
			err = fmt.Errorf("at least one metric regressed")
		}
		return err
	}

	if *secs <= 0 {
		*secs = float64(sp.RunSeconds)
	}
	conns := 2
	if n := runtime.NumCPU(); conns > n {
		return fmt.Errorf("%d load connections need as many processors, this machine has %d", conns, n)
	}
	if *serveBin == "" {
		return fmt.Errorf("-serve-bin is required (benchmark/run.sh builds it and passes it)")
	}
	// Whatever a killed run left behind goes first.
	workDir := filepath.Join(".bench_build", "tmp")
	if err := os.RemoveAll(workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	b := &bench{
		spec: sp, seed: *seed, window: time.Duration(*secs * float64(time.Second)), trace: *trace != 0,
		serveBin: *serveBin, workDir: workDir, outDir: filepath.Join("benchmark", "out"),
		conns: conns, trials: 3, scaleMul: 1, verbose: *verbose,
	}
	readEnvironment().print()

	// Children carry Pdeathsig and every fixture is torn down by defer; a
	// signal only has to unwind the run to reach them.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	names := []string{*workload}
	if *workload == "all" {
		names = sp.workloadNames()
	}
	failed := false
	for _, name := range names {
		res, err := b.run(ctx, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Correct = res.Failed == 0
		if err := sp.checkEmitted(res.Metrics, b.trace); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, e := range res.errs {
			fmt.Fprintf(os.Stderr, "benchmark: %s: failed operation: %v\n", name, e)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
		if *recordTo != "" {
			if err := record(*recordTo, recordedRun{Workload: name, Seed: *seed, Traced: b.trace, Result: *res}); err != nil {
				return err
			}
		}
	}
	if failed {
		return fmt.Errorf("an oracle failed")
	}
	return nil
}
