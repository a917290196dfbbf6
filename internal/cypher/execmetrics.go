package cypher

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Lock-free counters describing how the driver (parallel.go) executed MATCH
// clauses: how many work-list windows ran on the worker pool and with how
// many items and workers, and per clause execution why its anchor
// candidates were not fanned out. Rendered into the server's GET /metrics
// via WriteMatchMetrics.
var (
	metricMatchParallel atomic.Uint64 // work-list windows run on the pool
	metricMatchMorsels  atomic.Uint64 // work items dispatched across all pool runs
	metricMatchWorkers  atomic.Uint64 // workers launched across all pool runs

	// Clause executions not split into candidate morsels, by reason.
	metricMatchSerialDisabled      atomic.Uint64 // parallelism knob < 2
	metricMatchSerialWrites        atomic.Uint64 // write clauses in the branch
	metricMatchSerialMultiPath     atomic.Uint64 // comma-separated paths share bindings
	metricMatchSerialShortest      atomic.Uint64 // shortestPath BFS
	metricMatchSerialFewCandidates atomic.Uint64 // never two morsels of work at once: ran inline
)

// countSerialStatic records a clause-level (static) serial decision; ""
// records nothing.
func countSerialStatic(reason string) {
	switch reason {
	case reasonDisabled:
		metricMatchSerialDisabled.Add(1)
	case reasonWrites:
		metricMatchSerialWrites.Add(1)
	case reasonMultiPath:
		metricMatchSerialMultiPath.Add(1)
	case reasonShortest:
		metricMatchSerialShortest.Add(1)
	}
}

// Canonical serial-fallback reasons, shared by EXPLAIN output and the
// metric buckets.
const (
	reasonDisabled  = "parallelism disabled"
	reasonWrites    = "query contains write clauses"
	reasonMultiPath = "multiple pattern paths share one binding"
	reasonShortest  = "shortestPath requires sequential BFS"
)

// MatchStats is a point-in-time snapshot of the MATCH execution counters.
type MatchStats struct {
	Parallel uint64
	Morsels  uint64
	Workers  uint64
	Serial   map[string]uint64 // keyed by fallback reason
}

// SnapshotMatchStats returns the current counter values.
func SnapshotMatchStats() MatchStats {
	return MatchStats{
		Parallel: metricMatchParallel.Load(),
		Morsels:  metricMatchMorsels.Load(),
		Workers:  metricMatchWorkers.Load(),
		Serial: map[string]uint64{
			"disabled":       metricMatchSerialDisabled.Load(),
			"writes":         metricMatchSerialWrites.Load(),
			"multi_path":     metricMatchSerialMultiPath.Load(),
			"shortest_path":  metricMatchSerialShortest.Load(),
			"few_candidates": metricMatchSerialFewCandidates.Load(),
		},
	}
}

// serialExpositionOrder fixes the label order in the Prometheus output.
var serialExpositionOrder = []string{
	"disabled", "writes", "multi_path", "shortest_path", "few_candidates",
}

// WriteMatchMetrics renders the MATCH execution counters in the Prometheus
// text exposition format.
func WriteMatchMetrics(w io.Writer) {
	s := SnapshotMatchStats()
	fmt.Fprintf(w, "# HELP iyp_match_parallel_total MATCH executions run morsel-parallel.\n# TYPE iyp_match_parallel_total counter\niyp_match_parallel_total %d\n", s.Parallel)
	fmt.Fprintf(w, "# HELP iyp_match_morsels_total Morsels dispatched by parallel MATCH executions.\n# TYPE iyp_match_morsels_total counter\niyp_match_morsels_total %d\n", s.Morsels)
	fmt.Fprintf(w, "# HELP iyp_match_workers_total Workers launched by parallel MATCH executions.\n# TYPE iyp_match_workers_total counter\niyp_match_workers_total %d\n", s.Workers)
	fmt.Fprintf(w, "# HELP iyp_match_serial_total MATCH executions that fell back to serial, by reason.\n# TYPE iyp_match_serial_total counter\n")
	for _, k := range serialExpositionOrder {
		fmt.Fprintf(w, "iyp_match_serial_total{reason=%q} %d\n", k, s.Serial[k])
	}
}
