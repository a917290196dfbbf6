package algo

import (
	"iyp/internal/cypher"
	"iyp/internal/graph"
)

// Cypher procedures wrapping the kernels: `CALL algo.<name>({config})
// YIELD ...`. Every procedure compiles (or reuses) the CSR view selected
// by the shared config keys `labels` and `relTypes`, runs its kernel
// under the query context, and streams rows in ascending internal node
// order — the same order at any GOMAXPROCS, so paginated
// clients see a stable result. Emission goes through the executor's
// callback, which enforces MaxRows budgets and cancellation.

func viewFromCfg(pc cypher.ProcContext, cfg map[string]cypher.Val) *View {
	return CachedView(pc.Graph, ViewOptions{
		Labels:   cypher.CfgStrings(cfg, "labels"),
		RelTypes: cypher.CfgStrings(cfg, "relTypes"),
	})
}

func nodeVal(v *View, i int32) cypher.Val { return cypher.NodeVal(v.ExtID(i)) }
func intVal(n int64) cypher.Val           { return cypher.ScalarVal(graph.Int(n)) }
func floatVal(f float64) cypher.Val       { return cypher.ScalarVal(graph.Float(f)) }
func strVal(s string) cypher.Val          { return cypher.ScalarVal(graph.String(s)) }

func init() {
	cypher.RegisterProc(cypher.ProcSpec{
		Name: "algo.wcc",
		Cols: []string{"node", "component"},
		Help: "Weakly connected components; component is the smallest node id of the component.",
		Impl: func(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
			v := viewFromCfg(pc, cfg)
			comp, _, err := WCC(pc.Ctx, v, 0)
			if err != nil {
				return err
			}
			for i := int32(0); i < int32(v.N()); i++ {
				if err := emit([]cypher.Val{nodeVal(v, i), intVal(int64(v.ExtID(comp[i])))}); err != nil {
					return err
				}
			}
			return nil
		},
	})

	cypher.RegisterProc(cypher.ProcSpec{
		Name: "algo.scc",
		Cols: []string{"node", "component"},
		Help: "Strongly connected components (Tarjan); component is the smallest node id of the component.",
		Impl: func(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
			v := viewFromCfg(pc, cfg)
			comp, _, err := SCC(pc.Ctx, v)
			if err != nil {
				return err
			}
			for i := int32(0); i < int32(v.N()); i++ {
				if err := emit([]cypher.Val{nodeVal(v, i), intVal(int64(v.ExtID(comp[i])))}); err != nil {
					return err
				}
			}
			return nil
		},
	})

	cypher.RegisterProc(cypher.ProcSpec{
		Name: "algo.pagerank",
		Cols: []string{"node", "score"},
		Help: "PageRank (config: damping, epsilon, maxIters, labels, relTypes).",
		Impl: func(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
			v := viewFromCfg(pc, cfg)
			scores, _, err := PageRank(pc.Ctx, v, PageRankOptions{
				Damping:  cypher.CfgFloat(cfg, "damping", 0),
				Epsilon:  cypher.CfgFloat(cfg, "epsilon", 0),
				MaxIters: int(cypher.CfgInt(cfg, "maxIters", 0)),
			})
			if err != nil {
				return err
			}
			for i := int32(0); i < int32(v.N()); i++ {
				if err := emit([]cypher.Val{nodeVal(v, i), floatVal(scores[i])}); err != nil {
					return err
				}
			}
			return nil
		},
	})

	cypher.RegisterProc(cypher.ProcSpec{
		Name: "algo.degree",
		Cols: []string{"direction", "degree_lo", "degree_hi", "count"},
		Help: "Log2 degree histogram of the selected view (out buckets first, then in).",
		Impl: func(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
			v := viewFromCfg(pc, cfg)
			st, err := Degrees(pc.Ctx, v, 0)
			if err != nil {
				return err
			}
			emitHist := func(dir string, hist *[histBuckets]int64) error {
				for b := 0; b < histBuckets; b++ {
					if hist[b] == 0 {
						continue
					}
					lo, hi := BucketBounds(b)
					err := emit([]cypher.Val{strVal(dir), intVal(lo), intVal(hi), intVal(hist[b])})
					if err != nil {
						return err
					}
				}
				return nil
			}
			if err := emitHist("out", &st.OutHist); err != nil {
				return err
			}
			return emitHist("in", &st.InHist)
		},
	})
}
