package algo

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Per-kernel serving metrics, rendered into the server's GET /metrics
// alongside the query counters: how often each kernel ran, how many rows
// it produced, wall time, and view build/cache behaviour. Everything is
// lock-free atomics so instrumentation costs nothing next to the kernels.

type kernelStat struct {
	runs atomic.Uint64
	rows atomic.Uint64
	ns   atomic.Uint64
}

// kernelNames fixes the exposition order.
var kernelNames = []string{"wcc", "scc", "degree", "pagerank"}

var metrics struct {
	kernels    map[string]*kernelStat
	viewBuilds atomic.Uint64
	viewNS     atomic.Uint64
	viewHits   atomic.Uint64
	viewMisses atomic.Uint64
}

func init() {
	metrics.kernels = make(map[string]*kernelStat, len(kernelNames))
	for _, k := range kernelNames {
		metrics.kernels[k] = &kernelStat{}
	}
}

// observeKernel records one kernel run.
func observeKernel(name string, rows int, d time.Duration) {
	s := metrics.kernels[name]
	if s == nil {
		return
	}
	s.runs.Add(1)
	s.rows.Add(uint64(rows))
	s.ns.Add(uint64(d.Nanoseconds()))
}

func observeViewBuild(v *View) {
	metrics.viewBuilds.Add(1)
	metrics.viewNS.Add(uint64(v.BuildTime.Nanoseconds()))
}

// KernelStat is a point-in-time snapshot of one kernel's counters.
type KernelStat struct {
	Kernel  string
	Runs    uint64
	Rows    uint64
	Seconds float64
}

// Snapshot returns per-kernel counters in exposition order.
func Snapshot() []KernelStat {
	out := make([]KernelStat, 0, len(kernelNames))
	for _, k := range kernelNames {
		s := metrics.kernels[k]
		out = append(out, KernelStat{
			Kernel:  k,
			Runs:    s.runs.Load(),
			Rows:    s.rows.Load(),
			Seconds: float64(s.ns.Load()) / 1e9,
		})
	}
	return out
}

// WriteProm renders the kernel and view metrics in the Prometheus text
// exposition format.
func WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP iyp_algo_kernel_runs_total Kernel executions.\n# TYPE iyp_algo_kernel_runs_total counter\n")
	for _, s := range Snapshot() {
		fmt.Fprintf(w, "iyp_algo_kernel_runs_total{kernel=%q} %d\n", s.Kernel, s.Runs)
	}
	fmt.Fprintf(w, "# HELP iyp_algo_kernel_rows_total Rows produced by kernels.\n# TYPE iyp_algo_kernel_rows_total counter\n")
	for _, s := range Snapshot() {
		fmt.Fprintf(w, "iyp_algo_kernel_rows_total{kernel=%q} %d\n", s.Kernel, s.Rows)
	}
	fmt.Fprintf(w, "# HELP iyp_algo_kernel_seconds_total Kernel wall time.\n# TYPE iyp_algo_kernel_seconds_total counter\n")
	for _, s := range Snapshot() {
		fmt.Fprintf(w, "iyp_algo_kernel_seconds_total{kernel=%q} %g\n", s.Kernel, s.Seconds)
	}
	fmt.Fprintf(w, "# HELP iyp_algo_view_builds_total CSR view compilations.\n# TYPE iyp_algo_view_builds_total counter\niyp_algo_view_builds_total %d\n", metrics.viewBuilds.Load())
	fmt.Fprintf(w, "# HELP iyp_algo_view_build_seconds_total Time spent compiling views.\n# TYPE iyp_algo_view_build_seconds_total counter\niyp_algo_view_build_seconds_total %g\n", float64(metrics.viewNS.Load())/1e9)
	fmt.Fprintf(w, "# HELP iyp_algo_view_cache_hits_total View cache hits.\n# TYPE iyp_algo_view_cache_hits_total counter\niyp_algo_view_cache_hits_total %d\n", metrics.viewHits.Load())
	fmt.Fprintf(w, "# HELP iyp_algo_view_cache_misses_total View cache misses.\n# TYPE iyp_algo_view_cache_misses_total counter\niyp_algo_view_cache_misses_total %d\n", metrics.viewMisses.Load())
}
