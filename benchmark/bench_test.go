package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// serveBin is iyp-serve built once from the tree the tests run in.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iyp-benchmark-test-")
	if err != nil {
		panic(err)
	}
	serveBin = filepath.Join(dir, "iyp-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "iyp/cmd/iyp-serve").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building iyp-serve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeBench is the benchmark at a tenth of its scale with sub-second
// windows: small enough for go test, the same code paths.
func smokeBench(t *testing.T, seed int64, trace bool) *bench {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return &bench{
		spec: sp, seed: seed, window: 1200 * time.Millisecond, trace: trace, serveBin: serveBin,
		workDir: dir, outDir: filepath.Join(dir, "out"), conns: 2, trials: 1, scaleMul: 0.1, verbose: testing.Verbose(),
	}
}

// TestSmoke runs every workload both ways and holds each run to
// BENCHMARK.json: every metric it names emitted under its unit, no other,
// and no failed operation.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		b := smokeBench(t, 1, trace)
		for _, workload := range b.spec.workloadNames() {
			t0 := time.Now()
			res, err := b.run(context.Background(), workload)
			t.Logf("%s (trace %v) took %v", workload, trace, time.Since(t0))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", workload, trace, err)
			}
			if err := b.spec.checkEmitted(res.Metrics, trace); err != nil {
				t.Errorf("%s (trace %v): %v", workload, trace, err)
			}
			for name, m := range res.Metrics {
				if m.Unit == "" {
					t.Errorf("%s (trace %v): %s has no unit", workload, trace, name)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", workload, trace, res.Failed, res.Attempted, res.errs)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(b.outDir, workload+".trace.json")); err != nil {
					t.Errorf("%s: %v", workload, err)
				}
			}
		}
	}
}

// TestIngestOutlastsItsWindow gives serve_during_ingest a window no reload
// fits in, as a slowed-down machine does: the readers go on until both
// publishes are live, and no operation fails for it.
func TestIngestOutlastsItsWindow(t *testing.T) {
	b := smokeBench(t, 1, false)
	f, err := b.setUpServing(context.Background(), "serve_during_ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer f.tearDown()
	tr := measureIngest(context.Background(), f, 20*time.Millisecond)
	if tr.failed != 0 {
		t.Errorf("%d of %d operations failed: %v", tr.failed, tr.attempted, tr.errs)
	}
	if lag := tr.values["go_live_s"]; lag <= 0 {
		t.Errorf("go_live_s is %v", lag)
	}
}

// TestStreamFollowsSeed checks the request stream is a function of the
// seed alone.
func TestStreamFollowsSeed(t *testing.T) {
	sha := func(seed int64) float64 {
		b := smokeBench(t, seed, false)
		f, err := b.setUpServing(context.Background(), "lookup_zipf")
		if err != nil {
			t.Fatal(err)
		}
		defer f.tearDown()
		return f.stream.shaNumber()
	}
	one, again, two := sha(1), sha(1), sha(2)
	if one != again {
		t.Errorf("seed 1 gave stream %v and then %v", one, again)
	}
	if one == two {
		t.Errorf("seeds 1 and 2 gave the same stream %v", one)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		more   bool
		want   string
	}{
		{"same", scale(1.001), false, false, "unchanged"},
		{"faster", scale(0.9), false, false, "improved"},
		{"faster but failing more", scale(0.9), false, true, "unresolved"},
		{"faster on too few pairs", scale(0.9)[:5], false, false, "unresolved"},
		{"slower within bound", scale(1.05), false, false, "unchanged"},
		{"slower beyond bound", scale(1.2), false, false, "regressed"},
		{"throughput down", scale(0.8), true, false, "regressed"},
	} {
		if got := judge(a, c.b, c.higher, 0.1, c.more).outcome; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{100, 150, 60, 130, 80, 100, 140, 70, 120, 90}
	if got := judge(noisy, noisy, false, 0.1, false).outcome; got != "unresolved" {
		t.Errorf("spread beyond the bound: %s, want unresolved", got)
	}
}
