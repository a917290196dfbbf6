package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes the graph contents, the information `iyp-report
// inventory` prints and tests assert on.
type Stats struct {
	Nodes     int
	Rels      int
	ByLabel   map[string]int
	ByRelType map[string]int
}

// Stats computes a summary of the graph.
func (g *Graph) Stats() Stats {
	g.rlock()
	defer g.runlock()
	s := Stats{
		Nodes:     g.nodeCount,
		Rels:      g.relCount,
		ByLabel:   make(map[string]int, len(g.labelNames)),
		ByRelType: make(map[string]int, len(g.typeNames)),
	}
	for lid, set := range g.labelIdx {
		if set != nil && set.size() > 0 {
			s.ByLabel[g.labelNames[lid]] = set.size()
		}
	}
	for tid, c := range g.typeCounts {
		if c > 0 {
			s.ByRelType[g.typeNames[tid]] = c
		}
	}
	return s
}

// --- planner statistics ---
//
// The Cypher planner chooses a MATCH anchor by comparing the estimated
// candidate count of each pattern node. These accessors expose the
// incrementally-maintained counters (see store.go) plus distinct-value
// counts read straight off the hash indexes, so every estimate is O(1).

// PropStats describes the population of one (label, property-key) pair for
// cardinality estimation.
type PropStats struct {
	// WithKey is the number of live nodes carrying the label that have
	// the property key set at all.
	WithKey int
	// Distinct is the number of distinct values the (label,key) hash
	// index currently holds. Zero when Indexed is false.
	Distinct int
	// Indexed reports whether a (label,key) index exists, i.e. whether
	// an equality lookup can avoid a scan.
	Indexed bool
}

// Selectivity estimates how many nodes an equality predicate on this
// (label,key) pair matches: WithKey spread uniformly over Distinct values.
// Without an index (no distinct-value count) it conservatively returns
// WithKey.
func (ps PropStats) Selectivity() float64 {
	if ps.Distinct <= 0 {
		return float64(ps.WithKey)
	}
	return float64(ps.WithKey) / float64(ps.Distinct)
}

// PropCardinality returns the statistics for (label, key).
func (g *Graph) PropCardinality(label, key string) PropStats {
	g.rlock()
	defer g.runlock()
	lid, ok := g.labelIDs[label]
	if !ok {
		return PropStats{}
	}
	keyID, ok := g.dict.Lookup(key)
	if !ok {
		return PropStats{}
	}
	pid := propIdxID{lid, keyID}
	ps := PropStats{WithKey: g.labelKeyCount[pid]}
	if idx, ok := g.propIdx[pid]; ok {
		ps.Indexed = true
		ps.Distinct = idx.n
	}
	return ps
}

// RelTypeCardinality returns the number of live relationships of typ.
func (g *Graph) RelTypeCardinality(typ string) int {
	g.rlock()
	defer g.runlock()
	tid, ok := g.typeIDs[typ]
	if !ok {
		return 0
	}
	return g.typeCounts[tid]
}

// RelTypeDegree returns the mean number of typ relationships per live node
// — the expansion fan-out estimate for a one-hop pattern edge. Zero for an
// empty graph or unknown type.
func (g *Graph) RelTypeDegree(typ string) float64 {
	g.rlock()
	defer g.runlock()
	tid, ok := g.typeIDs[typ]
	if !ok || g.nodeCount == 0 {
		return 0
	}
	return float64(g.typeCounts[tid]) / float64(g.nodeCount)
}

// rebuildStatsLocked recomputes typeCounts and labelKeyCount in one pass.
// The snapshot loaders build nodes and relationships directly (bypassing
// the locked mutation helpers that maintain the counters incrementally),
// so they call this once after decoding, mirroring rebuildLabelIndex.
func (g *Graph) rebuildStatsLocked() {
	g.typeCounts = make([]int, len(g.typeNames))
	for i := range g.rels.n {
		r := g.rels.at(i)
		if r != nil {
			g.typeCounts[r.typ]++
		}
	}
	g.labelKeyCount = make(map[propIdxID]int)
	for i := range g.nodes.n {
		n := g.nodes.at(i)
		if n == nil {
			continue
		}
		for _, lid := range g.lsets[n.lset] {
			for _, e := range n.cprops {
				g.labelKeyCount[propIdxID{lid, e.key}]++
			}
		}
	}
}

// String renders the stats as an aligned text table.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes: %d  relationships: %d\n", s.Nodes, s.Rels)
	sb.WriteString("node labels:\n")
	for _, k := range sortedKeys(s.ByLabel) {
		fmt.Fprintf(&sb, "  %-28s %d\n", k, s.ByLabel[k])
	}
	sb.WriteString("relationship types:\n")
	for _, k := range sortedKeys(s.ByRelType) {
		fmt.Fprintf(&sb, "  %-28s %d\n", k, s.ByRelType[k])
	}
	return sb.String()
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
