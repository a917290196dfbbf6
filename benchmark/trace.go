package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one call from the benchmark into a layer's public function.
// Spans of one operation (a request, a build, a reload) share Op; Parent is
// the span whose call caused this one, 0 for the operation's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Reenacted marks a child span that was not observed inside its
	// parent: the program carries no tracing, so a call the parent makes
	// internally is made again, on the same input, right after the parent
	// returns, and its measured length is laid inside the parent's
	// interval.
	Reenacted bool `json:"reenacted,omitempty"`
}

// A tracer keeps the spans of a traced run in memory until it ends. The
// spans are taken here, in the benchmark, around the calls into each
// layer; the program under test carries no tracing of its own.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   []string // kind of each operation, by Op-1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens an operation of the given kind and returns its id.
func (t *tracer) op(kind string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops = append(t.ops, kind)
	return len(t.ops)
}

// start opens a span; the returned function closes it.
func (t *tracer) start(op, parent int, layer, name string) (id int, end func()) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name})
	id = len(t.spans)
	t.mu.Unlock()
	start := time.Since(t.t0)
	return id, func() {
		stop := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].StartNS, t.spans[id-1].EndNS = int64(start), int64(stop)
		t.mu.Unlock()
	}
}

// call wraps fn in a span and returns how long it took.
func (t *tracer) call(op, parent int, layer, name string, fn func(id int) error) (time.Duration, error) {
	id, end := t.start(op, parent, layer, name)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0)
	end()
	return d, err
}

// reenact records a child of parent that took d, placed offset into the
// parent's interval and cut off at its end.
func (t *tracer) reenact(op, parent int, layer, name string, offset int64, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := min(p.StartNS+offset, p.EndNS)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNS: start, EndNS: min(start+int64(d), p.EndNS), Reenacted: true})
	return len(t.spans)
}

// selfTimes sums, per layer, each span's self time: its length minus the
// part of it its child spans cover (children that ran side by side cover
// their union once). Only operations whose kind is in kinds count.
func (t *tracer) selfTimes(kinds map[string]bool) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if !kinds[t.ops[s.Op-1]] {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, until := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, until), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				until = to
			}
		}
		out[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// OpKinds[i] is the kind of operation i+1.
	OpKinds []string `json:"op_kinds"`
	// WorkloadOps are the kinds of operation the workload itself consists
	// of; the traced run walks the other layers too, so that every
	// per-layer metric is measured on this workload's graph.
	WorkloadOps []string `json:"workload_ops"`
	// SelfTimeShare is each layer's share of the self time of the
	// workload's own operations.
	SelfTimeShare map[string]float64 `json:"self_time_share"`
	Spans         []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, workloadOps []string) (map[string]float64, error) {
	kinds := map[string]bool{}
	for _, k := range workloadOps {
		kinds[k] = true
	}
	self := t.selfTimes(kinds)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	share := map[string]float64{}
	for layer, d := range self {
		share[layer] = float64(d) / float64(total)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, OpKinds: t.ops,
		WorkloadOps: workloadOps, SelfTimeShare: share, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return share, os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
