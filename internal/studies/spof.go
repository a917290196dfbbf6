package studies

import (
	"slices"
	"sort"
	"strconv"

	"iyp/internal/graph"
)

// Dependency types in the DNS resolution chain (paper §5.2).
const (
	DepDirect       = "direct"
	DepThirdParty   = "thirdparty"
	DepHierarchical = "hierarchical"
)

// depTypes lists the dependency types SPoFEntry counts.
var depTypes = [...]string{DepDirect, DepThirdParty, DepHierarchical}

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
// The study counts inside one bulk walk of the ranked domains. Keys are
// the registration countries from the RIR delegated files, or
// "AS<asn> name" strings. While a domain is visited, each dependency type
// keeps the one key seen so far or a "more than one" mark; a type that
// ends the visit with one key adds 1 to that key's entry.
func SPoF(g *graph.Graph, list, level string, topN int) (SPoFResult, error) {
	out := SPoFResult{List: list, Level: level}
	counts := map[string]*SPoFEntry{}

	g.BulkRead(func(br *graph.BulkReader) {
		depT, okDep := br.TypeID("DEPENDS_ON")
		countryT, _ := br.TypeID("COUNTRY")
		nameT, _ := br.TypeID("NAME")
		asL, okAS := br.LabelID("AS")
		countryL, _ := br.LabelID("Country")
		nameL, _ := br.LabelID("Name")
		if !okDep || !okAS {
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

		eachRankedDomain(br, list, func(d graph.NodeID) {
			// sole[i] is the one key of depTypes[i] seen so far; multi[i]
			// marks a second, different one.
			var sole [len(depTypes)]string
			var multi [len(depTypes)]bool
			keyed := false
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
				keyed = true
				if i := slices.Index(depTypes[:], dt); i >= 0 {
					if sole[i] == "" {
						sole[i] = k
					} else if sole[i] != k {
						multi[i] = true
					}
				}
				return true
			})
			if keyed {
				out.Domains++
			}
			for i, k := range sole {
				if k == "" || multi[i] {
					continue
				}
				e := counts[k]
				if e == nil {
					e = &SPoFEntry{Key: k}
					counts[k] = e
				}
				switch depTypes[i] {
				case DepDirect:
					e.Direct++
				case DepThirdParty:
					e.ThirdParty++
				case DepHierarchical:
					e.Hierarchical++
				}
			}
		})
	})

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
