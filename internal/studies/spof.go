package studies

import (
	"context"
	"sort"
	"strconv"

	"iyp/internal/algo"
	"iyp/internal/graph"
)

// Dependency types in the DNS resolution chain (paper §5.2).
const (
	DepDirect       = "direct"
	DepThirdParty   = "thirdparty"
	DepHierarchical = "hierarchical"
)

// SPoFEntry is one bar of Figures 5/6: how many domains have this
// country (or AS) as a single point of failure, per dependency type.
type SPoFEntry struct {
	// Key is a country code (Figure 5) or "AS<asn> <name>" (Figure 6).
	Key          string
	Direct       int
	ThirdParty   int
	Hierarchical int
}

// Total is the entry's overall SPoF count.
func (e SPoFEntry) Total() int { return e.Direct + e.ThirdParty + e.Hierarchical }

// SPoFResult is the full Figure 5 or Figure 6 series for one top list.
type SPoFResult struct {
	List    string // ranking name
	Level   string // "country" or "AS"
	Entries []SPoFEntry
	// Domains is the number of domains analyzed.
	Domains int
}

// SPoF computes country- or AS-level single points of failure in the DNS
// chain of the given top list (Figure 5 when level == "country", Figure 6
// when level == "AS"). A domain contributes a SPoF for a dependency type
// when every one of its dependencies of that type maps to a single
// country/AS — losing it breaks resolution.
//
// The study runs on the analytics engine: one bulk scan harvests, per
// dependency type, a derived bipartite domain→key graph (keys are the
// registration countries from the RIR delegated files, or "AS<asn> name"
// strings), and the K=1 dependency kernel counts, per key, the domains
// for which it is the sole reachable sink — exactly the "set size == 1"
// SPoF condition.
func SPoF(g *graph.Graph, list, level string, topN int) (SPoFResult, error) {
	out := SPoFResult{List: list, Level: level}
	types := []string{DepDirect, DepThirdParty, DepHierarchical}

	bp := newBipartite()
	edges := map[string][][2]int32{} // dep type -> (domain, key) index pairs

	g.BulkRead(func(br *graph.BulkReader) {
		rankT, okRank := br.TypeID("RANK")
		depT, okDep := br.TypeID("DEPENDS_ON")
		countryT, _ := br.TypeID("COUNTRY")
		nameT, _ := br.TypeID("NAME")
		domL, okDom := br.LabelID("DomainName")
		asL, okAS := br.LabelID("AS")
		countryL, _ := br.LabelID("Country")
		nameL, _ := br.LabelID("Name")
		if !okRank || !okDep || !okDom || !okAS {
			return
		}
		ranking := findRanking(br, list)
		if ranking == 0 {
			return
		}

		// The key of an AS node. Matching the original non-optional Cypher
		// join, an AS without a delegated-stats country yields no key even
		// at the AS level.
		keyCache := map[graph.NodeID]string{}
		keyOf := func(a graph.NodeID) string {
			if k, ok := keyCache[a]; ok {
				return k
			}
			cc := ""
			br.EachRelOf(a, graph.DirBoth, func(rid graph.RelID, typ uint16, other graph.NodeID) bool {
				if typ != countryT || !br.NodeHasLabelID(other, countryL) {
					return true
				}
				if ref, _ := br.RelProp(rid, "reference_name").AsString(); ref != "nro.delegated_stats" {
					return true
				}
				cc, _ = br.NodeProp(other, "country_code").AsString()
				return cc == ""
			})
			k := ""
			if cc != "" {
				if level == "country" {
					k = cc
				} else {
					asn, _ := br.NodeProp(a, "asn").AsInt()
					name := ""
					br.EachRelOf(a, graph.DirBoth, func(rid graph.RelID, typ uint16, other graph.NodeID) bool {
						if typ != nameT || !br.NodeHasLabelID(other, nameL) {
							return true
						}
						if ref, _ := br.RelProp(rid, "reference_name").AsString(); ref != "bgptools.as_names" {
							return true
						}
						name, _ = br.NodeProp(other, "name").AsString()
						return name == ""
					})
					k = asKey(asn, name)
				}
			}
			keyCache[a] = k
			return k
		}

		seen := map[graph.NodeID]bool{}
		br.EachRelOf(ranking, graph.DirBoth, func(_ graph.RelID, typ uint16, d graph.NodeID) bool {
			if typ != rankT || !br.NodeHasLabelID(d, domL) || seen[d] {
				return true
			}
			seen[d] = true
			br.EachRelOf(d, graph.DirOut, func(rid graph.RelID, t2 uint16, a graph.NodeID) bool {
				if t2 != depT || !br.NodeHasLabelID(a, asL) {
					return true
				}
				dt, _ := br.RelProp(rid, "dep_type").AsString()
				if dt == "" {
					return true
				}
				k := keyOf(a)
				if k == "" {
					return true
				}
				edges[dt] = append(edges[dt], [2]int32{bp.domain(d), bp.key(k)})
				return true
			})
			return true
		})
	})
	out.Domains = bp.numDomains()

	// One derived view and one kernel run per dependency type: keys are
	// the sinks; count[key] = domains whose every type-typ dependency
	// lands on that single key.
	nd := bp.numDomains()
	counts := map[string]*SPoFEntry{}
	bump := func(key, typ string, n int) {
		e := counts[key]
		if e == nil {
			e = &SPoFEntry{Key: key}
			counts[key] = e
		}
		switch typ {
		case DepDirect:
			e.Direct += n
		case DepThirdParty:
			e.ThirdParty += n
		case DepHierarchical:
			e.Hierarchical += n
		}
	}
	ctx := context.Background()
	for _, typ := range types {
		pairs := edges[typ]
		if len(pairs) == 0 {
			continue
		}
		from := make([]int32, len(pairs))
		to := make([]int32, len(pairs))
		for i, p := range pairs {
			from[i] = p[0]
			to[i] = int32(nd) + p[1]
		}
		v := algo.NewDerived(bp.n(), from, to, nil)
		count, err := algo.Dependency(ctx, v, bp.sources(), algo.DependencyOptions{K: 1})
		if err != nil {
			return out, err
		}
		for j, key := range bp.keys {
			if c := count[nd+j]; c > 0 {
				bump(key, typ, int(c))
			}
		}
	}

	for _, e := range counts {
		out.Entries = append(out.Entries, *e)
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		if out.Entries[i].Total() != out.Entries[j].Total() {
			return out.Entries[i].Total() > out.Entries[j].Total()
		}
		return out.Entries[i].Key < out.Entries[j].Key
	})
	if topN > 0 && len(out.Entries) > topN {
		out.Entries = out.Entries[:topN]
	}
	return out, nil
}

func asKey(asn int64, name string) string {
	key := "AS" + strconv.FormatInt(asn, 10)
	if name == "" {
		return key
	}
	return key + " " + name
}
