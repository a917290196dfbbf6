package algo

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// Benchmarks for the CI analytics job: view compilation and the two
// heaviest kernels, each at 1 worker and at full parallelism, so the
// parallel speedup is measured on every run.
//
//	go test -bench 'ViewBuild|PageRank|WCC' -benchtime 2x ./internal/algo/

func BenchmarkViewBuild(b *testing.B) {
	g := simGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := NewView(g, ViewOptions{})
		if v.N() == 0 {
			b.Fatal("empty view")
		}
	}
}

func benchWorkerCounts() []int {
	full := runtime.GOMAXPROCS(0)
	if full == 1 {
		return []int{1}
	}
	return []int{1, full}
}

func BenchmarkWCC(b *testing.B) {
	v := NewView(simGraph(b), ViewOptions{})
	ctx := context.Background()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := WCC(ctx, v, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPageRank(b *testing.B) {
	v := NewView(simGraph(b), ViewOptions{})
	ctx := context.Background()
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := PageRank(ctx, v, PageRankOptions{MaxIters: 20, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
