package studies

import (
	"slices"
	"sort"
	"strings"

	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/netutil"
)

// DNSBestPracticeResult is Table 3: RFC 2182 nameserver best practice over
// the .com/.net/.org portion of the Tranco list.
type DNSBestPracticeResult struct {
	// CoveragePct is the share of Tranco domains under .com/.net/.org
	// (paper: 49%).
	CoveragePct float64
	// DiscardedPct is the share of those domains without usable glue
	// (paper: 10%).
	DiscardedPct float64
	// MeetPct have exactly two nameservers (paper: 18%).
	MeetPct float64
	// ExceedPct have more than two (paper: 67%).
	ExceedPct float64
	// NotMeetPct have a single nameserver (paper: 4%).
	NotMeetPct float64
	// InZoneGluePct is the share of kept domains with in-zone glue
	// (paper: 76%).
	InZoneGluePct float64
	// Domains is the number of studied (.com/.net/.org) domains.
	Domains int
}

// DNSBestPractice reproduces Table 3 in one bulk walk of the zone cuts
// added at refinement. Every ranked Tranco domain counts toward coverage;
// a domain under .com/.net/.org is classed by its number of distinct
// nameserver names as it is visited.
func DNSBestPractice(g *graph.Graph) (DNSBestPracticeResult, error) {
	var out DNSBestPracticeResult
	var total, discarded, meet, exceed, notMeet, inZone, kept int
	g.BulkRead(func(br *graph.BulkReader) {
		parentT, okParent := br.TypeID("PARENT")
		managedT, okManaged := br.TypeID("MANAGED_BY")
		domL, _ := br.LabelID("DomainName")
		nsL, okNS := br.LabelID("AuthoritativeNameServer")
		var names []string // the visited domain's distinct nameserver names
		eachRankedDomain(br, TrancoRankingName, func(d graph.NodeID) {
			total++
			if !okParent {
				return
			}
			inStudy := false
			br.EachRelOf(d, graph.DirOut, func(_ graph.RelID, t2 uint16, tld graph.NodeID) bool {
				if t2 != parentT || !br.NodeHasLabelID(tld, domL) {
					return true
				}
				n, _ := br.NodeProp(tld, "name").AsString()
				inStudy = comNetOrg(n)
				return !inStudy
			})
			if !inStudy {
				return
			}
			out.Domains++
			names = names[:0]
			if okManaged && okNS {
				br.EachRelOf(d, graph.DirBoth, func(_ graph.RelID, t2 uint16, ns graph.NodeID) bool {
					if t2 != managedT || !br.NodeHasLabelID(ns, nsL) {
						return true
					}
					if n, _ := br.NodeProp(ns, "name").AsString(); n != "" && !slices.Contains(names, n) {
						names = append(names, n)
					}
					return true
				})
			}
			switch len(names) {
			case 0:
				discarded++
				return
			case 1:
				notMeet++
			case 2:
				meet++
			default:
				exceed++
			}
			kept++
			if slices.ContainsFunc(names, func(n string) bool { return comNetOrg(netutil.TopLevelDomain(n)) }) {
				inZone++
			}
		})
	})
	out.CoveragePct = pct(out.Domains, total)
	out.DiscardedPct = pct(discarded, out.Domains)
	out.MeetPct = pct(meet, out.Domains)
	out.ExceedPct = pct(exceed, out.Domains)
	out.NotMeetPct = pct(notMeet, out.Domains)
	out.InZoneGluePct = pct(inZone, kept)
	return out, nil
}

// comNetOrg reports whether tld is one of the three TLDs the original
// study's zone files covered.
func comNetOrg(tld string) bool { return tld == "com" || tld == "net" || tld == "org" }

// stringList extracts string elements from a (possibly nested) list Val.
func stringList(v cypher.Val) []string {
	list, ok := v.AsList()
	if !ok {
		return nil
	}
	out := make([]string, 0, len(list))
	for _, e := range list {
		if s, ok := e.AsString(); ok && s != "" {
			out = append(out, s)
		}
	}
	return out
}

// GroupStats summarizes a shared-infrastructure grouping: domains grouped
// by an identical key set (nameserver set, /24 set, or BGP-prefix set).
type GroupStats struct {
	// Groups is the number of distinct groups.
	Groups int
	// MedianGroupSize is the median, over domains, of the size of the
	// group the domain belongs to (the paper's "half the domains share
	// ... with at least N others").
	MedianGroupSize int
	// MaxGroupSize is the size of the largest group.
	MaxGroupSize int
}

// groupDomains groups domains by the canonical form of their key sets.
func groupDomains(keysByDomain map[string][]string) GroupStats {
	groups := map[string]int{}
	domainGroup := map[string]string{}
	for domain, keys := range keysByDomain {
		if len(keys) == 0 {
			continue
		}
		ks := append([]string(nil), keys...)
		sort.Strings(ks)
		// Deduplicate: the same /24 or prefix reached through several
		// nameservers is one element of the key set.
		uniq := ks[:0]
		for i, k := range ks {
			if i == 0 || k != ks[i-1] {
				uniq = append(uniq, k)
			}
		}
		key := strings.Join(uniq, "|")
		groups[key]++
		domainGroup[domain] = key
	}
	var sizes []int
	for _, key := range domainGroup {
		sizes = append(sizes, groups[key])
	}
	sort.Ints(sizes)
	st := GroupStats{Groups: len(groups)}
	if len(sizes) > 0 {
		st.MedianGroupSize = sizes[len(sizes)/2]
		st.MaxGroupSize = sizes[len(sizes)-1]
	}
	return st
}

// SharedInfraResult is Table 4 (plus Table 5's extensions): DNS
// infrastructure sharing at several granularities.
type SharedInfraResult struct {
	// ByNS groups .com/.net/.org domains by exact nameserver set
	// (paper 2024: median 9, max 6k).
	ByNS GroupStats
	// BySlash24 groups by the /24 prefixes of the nameservers
	// (paper 2024: median 3.9k, max 114k).
	BySlash24 GroupStats
	// ByBGPPrefix groups by the BGP prefixes of the nameservers —
	// Table 5 row 1 (paper: median 4.1k, max 114k).
	ByBGPPrefix GroupStats
	// AllByNS / AllByBGPPrefix drop the 3-TLD restriction — Table 5
	// rows 2-3 (paper: 15/25k and 6k/187k).
	AllByNS        GroupStats
	AllByBGPPrefix GroupStats
}

// nsInfraQuery returns one row per (Tranco domain, nameserver) with the
// nameserver's IPv4 addresses, their covering BGP prefixes, and the
// domain's parent TLDs. The com/net/org rows replicate the original
// study's zone-file limitation (Table 4, Table 5 row 1); all rows together
// are Table 5 rows 2-3 (the paper's Listing 6, without the /24
// computation).
const nsInfraQuery = `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:MANAGED_BY]-(ns:AuthoritativeNameServer)
OPTIONAL MATCH (ns)-[:RESOLVES_TO]-(ip:IP {af:4})-[:PART_OF]-(pfx:Prefix)
OPTIONAL MATCH (d)-[:PARENT]->(tld:DomainName)
RETURN d.name AS domain, ns.name AS ns, collect(DISTINCT ip.ip) AS ips, collect(DISTINCT pfx.prefix) AS prefixes, collect(DISTINCT tld.name) AS tlds`

// SharedInfrastructure reproduces Table 4 and Table 5 together from one
// walk of the nameserver chain: every row feeds the all-Tranco groupings,
// and the rows of .com/.net/.org domains also feed the restricted ones.
func SharedInfrastructure(g *graph.Graph) (SharedInfraResult, error) {
	res, err := run(g, "shared-infra", nsInfraQuery, nil)
	if err != nil {
		return SharedInfraResult{}, err
	}
	byNS, bySlash24, byPrefix := map[string][]string{}, map[string][]string{}, map[string][]string{}
	allByNS, allByPrefix := map[string][]string{}, map[string][]string{}
	for i := range res.Rows {
		domain, _ := str(res, i, "domain")
		ns, _ := str(res, i, "ns")
		ipsV, _ := res.Get(i, "ips")
		pfxV, _ := res.Get(i, "prefixes")
		tldsV, _ := res.Get(i, "tlds")
		prefixes := stringList(pfxV)
		allByNS[domain] = append(allByNS[domain], ns)
		allByPrefix[domain] = append(allByPrefix[domain], prefixes...)
		if !slices.ContainsFunc(stringList(tldsV), comNetOrg) {
			continue
		}
		byNS[domain] = append(byNS[domain], ns)
		for _, ip := range stringList(ipsV) {
			if s24, err := netutil.Slash24(ip); err == nil {
				bySlash24[domain] = append(bySlash24[domain], s24)
			}
		}
		byPrefix[domain] = append(byPrefix[domain], prefixes...)
	}
	return SharedInfraResult{
		ByNS:           groupDomains(byNS),
		BySlash24:      groupDomains(bySlash24),
		ByBGPPrefix:    groupDomains(byPrefix),
		AllByNS:        groupDomains(allByNS),
		AllByBGPPrefix: groupDomains(allByPrefix),
	}, nil
}
