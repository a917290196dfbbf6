package cypher

import (
	"context"
	"sort"
	"sync"

	"iyp/internal/graph"
)

// Procedure registry backing `CALL name({config}) YIELD ...`. Procedures
// are how subsystems that are not part of the language — the analytics
// kernels in internal/algo, introspection helpers — expose tabular
// results to Cypher without the language package importing them: the
// implementing package registers its procedures in an init function and
// the executor looks them up by name at run time.

// GenResolver pins a specific graph generation for the duration of a
// procedure call: it returns the frozen graph for gen and a release
// function the caller must invoke when done. The DB/server layer supplies
// one backed by MVStore.AcquireGen (including its persisted-history
// fallback).
type GenResolver func(gen uint64) (*graph.Graph, func(), error)

// ProcContext is what a procedure implementation gets to work with.
type ProcContext struct {
	// Ctx is the query context; long-running procedures must honour its
	// cancellation.
	Ctx context.Context
	// Graph is the store the query runs against.
	Graph *graph.Graph
	// Resolve pins other generations for cross-generation procedures
	// (temporal.diff); nil when the caller cannot resolve generations
	// (e.g. bare cypher.Run against a naked graph).
	Resolve GenResolver
}

// ProcImpl computes a procedure's rows. cfg is the evaluated CALL
// argument map (empty when called without arguments). Each output record
// is passed to emit in spec column order; when emit returns an error the
// implementation must stop and return it unchanged (the executor uses
// this to cut the stream at a row budget).
type ProcImpl func(pc ProcContext, cfg map[string]Val, emit func(vals []Val) error) error

// ProcSpec describes a registered procedure.
type ProcSpec struct {
	// Name is the dotted, lower-case procedure name, e.g. "algo.pagerank".
	Name string
	// Cols are the output column names, in emission order.
	Cols []string
	// Help is a one-line description shown by `CALL db.procedures`.
	Help string
	// Impl computes the rows.
	Impl ProcImpl
}

var (
	procMu sync.RWMutex
	procs  = map[string]*ProcSpec{}
)

// RegisterProc adds a procedure to the registry. It panics on an empty
// name, missing columns or implementation, or a duplicate registration —
// all programmer errors in an init function.
func RegisterProc(spec ProcSpec) {
	if spec.Name == "" || len(spec.Cols) == 0 || spec.Impl == nil {
		panic("cypher: RegisterProc: incomplete spec for " + spec.Name)
	}
	procMu.Lock()
	defer procMu.Unlock()
	if _, dup := procs[spec.Name]; dup {
		panic("cypher: RegisterProc: duplicate procedure " + spec.Name)
	}
	procs[spec.Name] = &spec
}

// LookupProc resolves a procedure by its lower-case dotted name.
func LookupProc(name string) (*ProcSpec, bool) {
	procMu.RLock()
	defer procMu.RUnlock()
	s, ok := procs[name]
	return s, ok
}

// ProcNames returns all registered procedure names, sorted.
func ProcNames() []string {
	procMu.RLock()
	defer procMu.RUnlock()
	names := make([]string, 0, len(procs))
	for n := range procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterProc(ProcSpec{
		Name: "db.procedures",
		Cols: []string{"name", "columns", "help"},
		Help: "List registered procedures.",
		Impl: func(pc ProcContext, cfg map[string]Val, emit func([]Val) error) error {
			for _, name := range ProcNames() {
				spec, _ := LookupProc(name)
				cols := make([]Val, len(spec.Cols))
				for i, c := range spec.Cols {
					cols[i] = ScalarVal(graph.String(c))
				}
				err := emit([]Val{
					ScalarVal(graph.String(spec.Name)),
					ListVal(cols),
					ScalarVal(graph.String(spec.Help)),
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// CfgInt reads an integer config key with a default (the Cfg helpers are
// exported for procedure implementations in other packages).
func CfgInt(cfg map[string]Val, key string, def int64) int64 {
	if v, ok := cfg[key]; ok {
		if n, ok := v.AsInt(); ok {
			return n
		}
	}
	return def
}

// CfgFloat reads a float config key with a default.
func CfgFloat(cfg map[string]Val, key string, def float64) float64 {
	if v, ok := cfg[key]; ok {
		if f, ok := v.AsFloat(); ok {
			return f
		}
	}
	return def
}

// CfgStrings reads a list-of-strings config key; absent or malformed
// entries yield nil.
func CfgStrings(cfg map[string]Val, key string) []string {
	v, ok := cfg[key]
	if !ok {
		return nil
	}
	if s, ok := v.AsString(); ok {
		return []string{s}
	}
	elems, ok := v.AsList()
	if !ok {
		return nil
	}
	out := make([]string, 0, len(elems))
	for _, e := range elems {
		if s, ok := e.AsString(); ok {
			out = append(out, s)
		}
	}
	return out
}
