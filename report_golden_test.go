package iyp_test

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"iyp/internal/studies"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report.golden from the current code")

// TestReportGolden pins the answers: every study of the reproduction, run
// on the shared test graph, must print exactly the report in
// testdata/report.golden, serially, at the default parallelism and at
// GOMAXPROCS 8 alike.
// A change to the store, the executor or a kernel that moves any figure
// fails here. `go test -run TestReportGolden -update .` rewrites the file
// after an intended change.
func TestReportGolden(t *testing.T) {
	db := testDB(t)
	path := filepath.Join("testdata", "report.golden")
	for _, procs := range []int{1, runtime.GOMAXPROCS(0), 8} {
		prev := runtime.GOMAXPROCS(procs)
		rep, err := studies.RunAll(db.Graph())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.String()
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("GOMAXPROCS %d: the report differs from %s:\n%s", procs, path, got)
		}
	}
}
