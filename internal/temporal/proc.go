package temporal

import (
	"fmt"

	"iyp/internal/cypher"
	"iyp/internal/graph"
)

// CALL temporal.diff({from: 3, to: 5}) YIELD kind, name, added, removed,
// changed — the generation-diff engine behind a query surface. `from` is
// required; `to` defaults to the generation the query runs against.
// Generations are pinned through ProcContext.Resolve, so both the
// in-memory retain window and the persisted history (when attached) are
// reachable. The stream is one row per group, totals first:
//
//	kind "total"   name "nodes" | "rels"
//	kind "label"   name — node label
//	kind "reltype" name — relationship type
//	kind "dataset" name — provenance dataset (reference_name)
func init() {
	cypher.RegisterProc(cypher.ProcSpec{
		Name: "temporal.diff",
		Cols: []string{"kind", "name", "added", "removed", "changed"},
		Help: "Diff two generations: nodes/relationships added, removed and changed, by label, reltype and dataset.",
		Impl: diffProc,
	})
}

func diffProc(pc cypher.ProcContext, cfg map[string]cypher.Val, emit func([]cypher.Val) error) error {
	from := cypher.CfgInt(cfg, "from", 0)
	if from <= 0 {
		return fmt.Errorf("temporal.diff: config key `from` (a generation number) is required")
	}
	to := cypher.CfgInt(cfg, "to", 0)
	if pc.Resolve == nil {
		return fmt.Errorf("temporal.diff: no generation resolver in this execution context (run through iyp.DB or the HTTP API)")
	}

	fromG, releaseFrom, err := pc.Resolve(uint64(from))
	if err != nil {
		return fmt.Errorf("temporal.diff: from: %w", err)
	}
	defer releaseFrom()
	toG := pc.Graph
	if to > 0 {
		g, release, err := pc.Resolve(uint64(to))
		if err != nil {
			return fmt.Errorf("temporal.diff: to: %w", err)
		}
		defer release()
		toG = g
	}

	res, err := Diff(pc.Ctx, fromG, toG, DiffOptions{})
	if err != nil {
		return err
	}
	row := func(kind, name string, t Totals) error {
		return emit([]cypher.Val{
			cypher.ScalarVal(graph.String(kind)),
			cypher.ScalarVal(graph.String(name)),
			cypher.ScalarVal(graph.Int(int64(t.Added))),
			cypher.ScalarVal(graph.Int(int64(t.Removed))),
			cypher.ScalarVal(graph.Int(int64(t.Changed))),
		})
	}
	if err := row("total", "nodes", res.Nodes); err != nil {
		return err
	}
	if err := row("total", "rels", res.Rels); err != nil {
		return err
	}
	for _, g := range res.ByLabel {
		if err := row("label", g.Name, Totals{g.Added, g.Removed, g.Changed}); err != nil {
			return err
		}
	}
	for _, g := range res.ByRelType {
		if err := row("reltype", g.Name, Totals{g.Added, g.Removed, g.Changed}); err != nil {
			return err
		}
	}
	for _, g := range res.ByDataset {
		if err := row("dataset", g.Name, Totals{g.Added, g.Removed, g.Changed}); err != nil {
			return err
		}
	}
	return nil
}
