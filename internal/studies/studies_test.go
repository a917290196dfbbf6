package studies

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"iyp/internal/core"
	"iyp/internal/cypher"
	"iyp/internal/graph"
	"iyp/internal/netutil"
	"iyp/internal/simnet"
)

// The studies are validated against a 0.25-scale knowledge graph built
// once per package run. Assertions check the *shape* constraints the paper
// reports, with bands wide enough for the reduced scale.
var (
	buildOnce sync.Once
	buildG    *graph.Graph
	buildNet  *simnet.Internet
)

func studyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	buildOnce.Do(func() {
		res, err := core.Build(context.Background(), core.BuildOptions{
			Config: simnet.DefaultConfig().Scale(0.25),
		})
		if err != nil {
			t.Fatal(err)
		}
		if failed := res.Report.Failed(); len(failed) > 0 {
			t.Fatalf("datasets failed: %+v", failed)
		}
		buildG = res.Graph
		buildNet = res.Internet
	})
	return buildG
}

// studyInternet returns the ground-truth model behind studyGraph.
func studyInternet(t *testing.T) *simnet.Internet {
	t.Helper()
	studyGraph(t)
	return buildNet
}

func between(t *testing.T, name string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.2f, want in [%.1f, %.1f]", name, v, lo, hi)
	}
}

func TestRPKIShape(t *testing.T) {
	r, err := RPKI(studyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2, 2024 side: invalid rate tiny, about half the
	// prefixes covered, CDN clearly above average, bottom 100k above (or
	// at least not far below) top 100k.
	between(t, "InvalidPct", r.InvalidPct, 0.01, 1.5)
	between(t, "CoveredPct", r.CoveredPct, 45, 65)
	between(t, "CDNPct", r.CDNPct, 60, 90)
	if r.CDNPct <= r.CoveredPct {
		t.Errorf("CDN coverage %.1f should exceed overall %.1f", r.CDNPct, r.CoveredPct)
	}
	if r.Bottom100kPct < r.Top100kPct-6 {
		t.Errorf("bottom-100k %.1f far below top-100k %.1f (paper: bottom > top)", r.Bottom100kPct, r.Top100kPct)
	}
	if r.TotalPrefixes < 100 {
		t.Errorf("only %d distinct prefixes back the statistic", r.TotalPrefixes)
	}
	// 2024 is radically better than 2015 — the paper's headline.
	if r.CoveredPct < Paper2015RiPKI.CoveredPct*4 {
		t.Errorf("2024 coverage %.1f not clearly above the 2015 baseline %.1f", r.CoveredPct, Paper2015RiPKI.CoveredPct)
	}
}

func TestRPKIByCategoryShape(t *testing.T) {
	cats, err := RPKIByCategory(studyGraph(t), []string{"Academic", "Government", "DDoS Mitigation"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) != 3 {
		t.Fatalf("categories = %d", len(cats))
	}
	byTag := map[string]CategoryCoverage{}
	for _, c := range cats {
		byTag[c.Tag] = c
		if c.Prefixes == 0 {
			t.Errorf("category %s matched no prefixes", c.Tag)
		}
	}
	// §4.1.4: DDoS mitigation far above academic and government.
	if byTag["DDoS Mitigation"].CoveredPct < byTag["Academic"].CoveredPct+20 {
		t.Errorf("DDoS %.1f should far exceed Academic %.1f",
			byTag["DDoS Mitigation"].CoveredPct, byTag["Academic"].CoveredPct)
	}
	between(t, "Academic", byTag["Academic"].CoveredPct, 5, 35)
	between(t, "Government", byTag["Government"].CoveredPct, 5, 40)
	between(t, "DDoS", byTag["DDoS Mitigation"].CoveredPct, 60, 95)
}

func TestNameserverRPKIShape(t *testing.T) {
	r, err := NameserverRPKI(studyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	// §5.1.1: prefix-level below hostname-level coverage; domain-level
	// far above prefix-level (provider concentration).
	between(t, "NS PrefixCoveredPct", r.PrefixCoveredPct, 35, 65)
	between(t, "NS DomainCoveredPct", r.DomainCoveredPct, 70, 99)
	if r.DomainCoveredPct < r.PrefixCoveredPct+15 {
		t.Errorf("domain-level %.1f should far exceed prefix-level %.1f",
			r.DomainCoveredPct, r.PrefixCoveredPct)
	}
}

func TestDomainWeightedRPKIShape(t *testing.T) {
	g := studyGraph(t)
	dw, err := DomainWeightedRPKI(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RPKI(g)
	if err != nil {
		t.Fatal(err)
	}
	// §5.1.2: counting domains instead of prefixes raises coverage, and
	// CDN-hosted domains are nearly all covered.
	if dw.TrancoPct <= r.CoveredPct {
		t.Errorf("domain-weighted %.1f should exceed prefix-weighted %.1f", dw.TrancoPct, r.CoveredPct)
	}
	if dw.CDNPct <= dw.TrancoPct {
		t.Errorf("CDN domain coverage %.1f should exceed overall %.1f", dw.CDNPct, dw.TrancoPct)
	}
	between(t, "CDN domain coverage", dw.CDNPct, 75, 100)
}

func TestDNSBestPracticeShape(t *testing.T) {
	r, err := DNSBestPractice(studyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 3, 2024 side.
	between(t, "CoveragePct", r.CoveragePct, 42, 56)
	between(t, "DiscardedPct", r.DiscardedPct, 5, 15)
	between(t, "MeetPct", r.MeetPct, 10, 26)
	between(t, "ExceedPct", r.ExceedPct, 55, 80)
	between(t, "NotMeetPct", r.NotMeetPct, 1, 9)
	between(t, "InZoneGluePct", r.InZoneGluePct, 65, 90)
	// Exceed dominates meet — the 2018->2024 trend reversal the paper
	// highlights.
	if r.ExceedPct < r.MeetPct*2 {
		t.Errorf("exceed %.1f should dwarf meet %.1f", r.ExceedPct, r.MeetPct)
	}
	total := r.DiscardedPct + r.MeetPct + r.ExceedPct + r.NotMeetPct
	if total < 98 || total > 102 {
		t.Errorf("buckets sum to %.1f%%", total)
	}
}

func TestSharedInfrastructureShape(t *testing.T) {
	r, err := SharedInfrastructure(studyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: /24 groups far bigger than exact-NS-set groups.
	if r.BySlash24.MaxGroupSize < r.ByNS.MaxGroupSize {
		t.Errorf("/24 max %d < NS max %d", r.BySlash24.MaxGroupSize, r.ByNS.MaxGroupSize)
	}
	if r.BySlash24.MedianGroupSize < r.ByNS.MedianGroupSize {
		t.Errorf("/24 median %d < NS median %d", r.BySlash24.MedianGroupSize, r.ByNS.MedianGroupSize)
	}
	// Table 5: BGP-prefix grouping approximates /24 grouping (the
	// paper's validation of the original study's assumption).
	ratio := float64(r.ByBGPPrefix.MaxGroupSize) / float64(r.BySlash24.MaxGroupSize)
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("BGP-prefix max %d vs /24 max %d: ratio %.2f not ~1",
			r.ByBGPPrefix.MaxGroupSize, r.BySlash24.MaxGroupSize, ratio)
	}
	// All-Tranco groups exceed the 3-TLD-restricted ones.
	if r.AllByBGPPrefix.MaxGroupSize < r.ByBGPPrefix.MaxGroupSize {
		t.Errorf("all-Tranco max %d < com/net/org max %d",
			r.AllByBGPPrefix.MaxGroupSize, r.ByBGPPrefix.MaxGroupSize)
	}
	if r.ByNS.Groups == 0 || r.BySlash24.Groups == 0 {
		t.Error("empty groupings")
	}
}

// The two nameserver-infrastructure queries SharedInfrastructure ran before
// they were folded into nsInfraQuery: Tables 4 and 5 row 1 over the
// com/net/org domains, Table 5 rows 2-3 over the whole list.
const (
	refNSInfraComNetOrg = `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:PARENT]->(tld:DomainName)
WHERE tld.name IN ['com', 'net', 'org']
MATCH (d)-[:MANAGED_BY]-(ns:AuthoritativeNameServer)
OPTIONAL MATCH (ns)-[:RESOLVES_TO]-(ip:IP {af:4})-[:PART_OF]-(pfx:Prefix)
RETURN d.name AS domain, ns.name AS ns, collect(DISTINCT ip.ip) AS ips, collect(DISTINCT pfx.prefix) AS prefixes`
	refNSInfraAll = `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:MANAGED_BY]-(ns:AuthoritativeNameServer)
OPTIONAL MATCH (ns)-[:RESOLVES_TO]-(ip:IP {af:4})-[:PART_OF]-(pfx:Prefix)
RETURN d.name AS domain, ns.name AS ns, collect(DISTINCT ip.ip) AS ips, collect(DISTINCT pfx.prefix) AS prefixes`
)

// refSharedInfra runs the two reference queries and folds each the way
// SharedInfrastructure did before it walked the chain once.
func refSharedInfra(t *testing.T, g *graph.Graph) SharedInfraResult {
	t.Helper()
	fold := func(q string) (byNS, bySlash24, byPrefix map[string][]string) {
		res, err := cypher.Run(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		byNS, bySlash24, byPrefix = map[string][]string{}, map[string][]string{}, map[string][]string{}
		for i := range res.Rows {
			domain, _ := str(res, i, "domain")
			ns, _ := str(res, i, "ns")
			ipsV, _ := res.Get(i, "ips")
			pfxV, _ := res.Get(i, "prefixes")
			byNS[domain] = append(byNS[domain], ns)
			for _, ip := range stringList(ipsV) {
				if s24, err := netutil.Slash24(ip); err == nil {
					bySlash24[domain] = append(bySlash24[domain], s24)
				}
			}
			byPrefix[domain] = append(byPrefix[domain], stringList(pfxV)...)
		}
		return byNS, bySlash24, byPrefix
	}
	ns, s24, pfx := fold(refNSInfraComNetOrg)
	allNS, _, allPfx := fold(refNSInfraAll)
	return SharedInfraResult{
		ByNS:           groupDomains(ns),
		BySlash24:      groupDomains(s24),
		ByBGPPrefix:    groupDomains(pfx),
		AllByNS:        groupDomains(allNS),
		AllByBGPPrefix: groupDomains(allPfx),
	}
}

// nsInfraEdgeGraph is a small Tranco list whose domains sit under com, net
// and org, under a TLD the original study did not cover (io), and under no
// parent at all; they share nameservers, /24s and BGP prefixes so every
// grouping has more than one group and a group larger than one. One domain
// has no nameserver and one is linked to the same nameserver twice.
func nsInfraEdgeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	node := func(label string, props graph.Props) graph.NodeID { return g.AddNode([]string{label}, props) }
	rel := func(typ string, from, to graph.NodeID) {
		if _, err := g.AddRel(typ, from, to, nil); err != nil {
			t.Fatal(err)
		}
	}
	ranking := node("Ranking", graph.Props{"name": graph.String(TrancoRankingName)})
	tlds := map[string]graph.NodeID{}
	for _, name := range []string{"com", "net", "org", "io"} {
		tlds[name] = node("DomainName", graph.Props{"name": graph.String(name)})
	}
	prefixes := map[string]graph.NodeID{}
	for _, p := range []string{"192.0.2.0/23", "198.51.100.0/24"} {
		prefixes[p] = node("Prefix", graph.Props{"prefix": graph.String(p)})
	}
	ips := map[string]graph.NodeID{}
	for ip, p := range map[string]string{"192.0.2.1": "192.0.2.0/23", "192.0.3.1": "192.0.2.0/23", "198.51.100.7": "198.51.100.0/24"} {
		ips[ip] = node("IP", graph.Props{"ip": graph.String(ip), "af": graph.Int(4)})
		rel("PART_OF", ips[ip], prefixes[p])
	}
	nss := map[string]graph.NodeID{}
	for ns, ip := range map[string]string{"ns1.host.net": "192.0.2.1", "ns2.host.net": "192.0.3.1", "ns3.other.org": "198.51.100.7", "ns4.bare.com": ""} {
		nss[ns] = node("AuthoritativeNameServer", graph.Props{"name": graph.String(ns)})
		if ip != "" {
			rel("RESOLVES_TO", nss[ns], ips[ip])
		}
	}
	for rank, d := range []struct {
		name, tld string
		ns        []string
	}{
		{"a.com", "com", []string{"ns1.host.net"}},
		{"b.com", "com", []string{"ns1.host.net"}},
		{"c.net", "net", []string{"ns2.host.net"}},
		{"d.org", "org", []string{"ns1.host.net", "ns3.other.org", "ns1.host.net"}}, // one NS linked twice
		{"e.org", "org", []string{"ns4.bare.com"}},
		{"f.io", "io", []string{"ns1.host.net"}},
		{"g.io", "io", []string{"ns2.host.net", "ns3.other.org"}},
		{"h", "", []string{"ns1.host.net"}}, // no PARENT
		{"i.net", "net", nil},               // no nameserver
	} {
		dn := node("DomainName", graph.Props{"name": graph.String(d.name)})
		if _, err := g.AddRel("RANK", dn, ranking, graph.Props{"rank": graph.Int(int64(rank + 1))}); err != nil {
			t.Fatal(err)
		}
		if d.tld != "" {
			rel("PARENT", dn, tlds[d.tld])
		}
		for _, ns := range d.ns {
			rel("MANAGED_BY", dn, nss[ns])
		}
	}
	return g
}

// TestChainFoldsMatchPerQueryReference pins the nameserver fold: one walk of
// the chain, split by TLD afterwards, must give exactly the groupings the
// two per-table queries gave.
func TestChainFoldsMatchPerQueryReference(t *testing.T) {
	for _, c := range []struct {
		name string
		g    func(*testing.T) *graph.Graph
	}{
		{"study", studyGraph},
		{"edges", nsInfraEdgeGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.g(t)
			got, err := SharedInfrastructure(g)
			if err != nil {
				t.Fatal(err)
			}
			want := refSharedInfra(t, g)
			if got != want {
				t.Fatalf("folded  %+v\nper-query %+v", got, want)
			}
			if want.ByNS == want.AllByNS || want.ByNS.Groups == 0 {
				t.Fatalf("graph does not separate the com/net/org rows from the rest: %+v", want)
			}
		})
	}
}

// refSPoFQuery is the Cypher harvest SPoF ran before it walked the store:
// per ranked domain, its DNS-chain dependencies with type, AS and
// registration country (RIR delegated files).
const refSPoFQuery = `
MATCH (:Ranking {name:$list})-[:RANK]-(d:DomainName)-[dep:DEPENDS_ON]->(a:AS)
MATCH (a)-[:COUNTRY {reference_name:'nro.delegated_stats'}]-(c:Country)
OPTIONAL MATCH (a)-[:NAME {reference_name:'bgptools.as_names'}]-(n:Name)
RETURN d.name AS domain, dep.dep_type AS typ, a.asn AS asn, c.country_code AS cc, n.name AS asname`

// refSPoF folds refSPoFQuery's rows as SPoF did then: per domain and
// dependency type the set of keys, a set of one being a SPoF of its key.
func refSPoF(t *testing.T, g *graph.Graph, list, level string) SPoFResult {
	t.Helper()
	res, err := cypher.Run(g, refSPoFQuery, map[string]graph.Value{"list": graph.String(list)})
	if err != nil {
		t.Fatal(err)
	}
	domains := map[string]map[string]map[string]bool{} // domain -> type -> keys
	for i := range res.Rows {
		domain, _ := str(res, i, "domain")
		typ, _ := str(res, i, "typ")
		key, _ := str(res, i, "cc")
		if level != "country" {
			av, _ := res.Get(i, "asn")
			asn, _ := av.AsInt()
			name, _ := str(res, i, "asname")
			key = asKey(asn, name)
		}
		if key == "" || typ == "" {
			continue
		}
		if domains[domain] == nil {
			domains[domain] = map[string]map[string]bool{}
		}
		if domains[domain][typ] == nil {
			domains[domain][typ] = map[string]bool{}
		}
		domains[domain][typ][key] = true
	}
	out := SPoFResult{List: list, Level: level, Domains: len(domains)}
	counts := map[string]*SPoFEntry{}
	for _, types := range domains {
		for typ, keys := range types {
			if len(keys) != 1 {
				continue
			}
			for key := range keys {
				e := counts[key]
				if e == nil {
					e = &SPoFEntry{Key: key}
					counts[key] = e
				}
				switch typ {
				case DepDirect:
					e.Direct++
				case DepThirdParty:
					e.ThirdParty++
				case DepHierarchical:
					e.Hierarchical++
				}
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
	return out
}

// spofEdgeGraph is a small pair of top lists whose domains depend, per
// dependency type, on one AS, on two ASes of one country, on two
// countries, on the same AS twice, or only on ASes without a delegated
// country; one domain is ranked twice and one dependency has no type. The
// study graph cannot stand in for it: there, every domain's dependencies of
// one type sit in a single AS.
func spofEdgeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	node := func(label string, props graph.Props) graph.NodeID { return g.AddNode([]string{label}, props) }
	rel := func(typ string, from, to graph.NodeID, props graph.Props) {
		if _, err := g.AddRel(typ, from, to, props); err != nil {
			t.Fatal(err)
		}
	}
	ref := func(name string) graph.Props { return graph.Props{"reference_name": graph.String(name)} }
	lists := map[string]graph.NodeID{}
	for _, name := range []string{TrancoRankingName, "Cisco Umbrella Top 1M"} {
		lists[name] = node("Ranking", graph.Props{"name": graph.String(name)})
	}
	countries := map[string]graph.NodeID{}
	for _, cc := range []string{"US", "DE", "FR"} {
		countries[cc] = node("Country", graph.Props{"country_code": graph.String(cc)})
	}
	ases := map[int64]graph.NodeID{}
	for _, a := range []struct {
		asn       int64
		cc, ccRef string
		name      string
	}{
		{100, "US", "nro.delegated_stats", "ALPHA"},
		{200, "US", "nro.delegated_stats", "BETA"},
		{300, "DE", "nro.delegated_stats", ""},
		{400, "FR", "other.dataset", "GAMMA"},
		{500, "", "", ""},
	} {
		ases[a.asn] = node("AS", graph.Props{"asn": graph.Int(a.asn)})
		if a.cc != "" {
			rel("COUNTRY", ases[a.asn], countries[a.cc], ref(a.ccRef))
		}
		if a.name != "" {
			rel("NAME", ases[a.asn], node("Name", graph.Props{"name": graph.String(a.name)}), ref("bgptools.as_names"))
		}
	}
	type dep struct {
		typ string
		asn int64
	}
	for _, d := range []struct {
		name, list string
		ranks      int
		deps       []dep
	}{
		{"a.com", TrancoRankingName, 1, []dep{{DepDirect, 100}, {DepDirect, 200}, {DepHierarchical, 300}}},
		{"b.com", TrancoRankingName, 1, []dep{{DepDirect, 100}, {DepDirect, 300}, {DepThirdParty, 200}}},
		{"c.com", TrancoRankingName, 1, []dep{{DepDirect, 100}, {DepDirect, 100}, {"", 300}}},
		{"d.com", TrancoRankingName, 1, []dep{{DepDirect, 400}, {DepThirdParty, 500}}},
		{"e.com", TrancoRankingName, 2, []dep{{DepDirect, 300}}},
		{"f.com", "Cisco Umbrella Top 1M", 1, []dep{{DepDirect, 200}, {DepHierarchical, 100}, {DepHierarchical, 200}}},
	} {
		dn := node("DomainName", graph.Props{"name": graph.String(d.name)})
		for r := 0; r < d.ranks; r++ {
			rel("RANK", dn, lists[d.list], graph.Props{"rank": graph.Int(int64(r + 1))})
		}
		for _, dp := range d.deps {
			rel("DEPENDS_ON", dn, ases[dp.asn], graph.Props{"dep_type": graph.String(dp.typ)})
		}
	}
	return g
}

// refNSCountQuery counts the distinct nameservers of every ranked
// .com/.net/.org domain, the harvest Table 3 ran before it walked the
// store.
const refNSCountQuery = `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:PARENT]->(tld:DomainName)
WHERE tld.name IN ['com', 'net', 'org']
OPTIONAL MATCH (d)-[:MANAGED_BY]-(ns:AuthoritativeNameServer)
RETURN d.name AS domain, count(DISTINCT ns.name) AS n, collect(DISTINCT ns.name) AS names`

// refDNSBestPractice classes refNSCountQuery's rows into Table 3.
func refDNSBestPractice(t *testing.T, g *graph.Graph) DNSBestPracticeResult {
	t.Helper()
	total, err := trancoSize(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cypher.Run(g, refNSCountQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	var discarded, meet, exceed, notMeet, inZone int
	for i := range res.Rows {
		nv, _ := res.Get(i, "n")
		n, _ := nv.AsInt()
		switch n {
		case 0:
			discarded++
			continue
		case 1:
			notMeet++
		case 2:
			meet++
		default:
			exceed++
		}
		names, _ := res.Get(i, "names")
		if slices.ContainsFunc(stringList(names), func(ns string) bool { return comNetOrg(netutil.TopLevelDomain(ns)) }) {
			inZone++
		}
	}
	d := res.Len()
	return DNSBestPracticeResult{
		Domains:       d,
		CoveragePct:   pct(d, total),
		DiscardedPct:  pct(discarded, d),
		MeetPct:       pct(meet, d),
		ExceedPct:     pct(exceed, d),
		NotMeetPct:    pct(notMeet, d),
		InZoneGluePct: pct(inZone, d-discarded),
	}
}

// TestDNSChainStudiesMatchQueryReference holds the counting walks of SPoF
// and Table 3 to their Cypher harvests, over the full lists: every SPoF
// entry of both top lists at both levels, and every Table 3 class.
func TestDNSChainStudiesMatchQueryReference(t *testing.T) {
	for _, c := range []struct {
		name string
		g    func(*testing.T) *graph.Graph
	}{
		{"study", studyGraph},
		{"edges", spofEdgeGraph},
	} {
		g := c.g(t)
		for _, list := range []string{TrancoRankingName, "Cisco Umbrella Top 1M"} {
			for _, level := range []string{"country", "AS"} {
				t.Run(c.name+"/"+list+"/"+level, func(t *testing.T) {
					got, err := SPoF(g, list, level, 0)
					if err != nil {
						t.Fatal(err)
					}
					want := refSPoF(t, g, list, level)
					if want.Domains == 0 || len(want.Entries) == 0 {
						t.Fatalf("empty reference: %+v", want)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("walk  %d domains, %d entries: %+v\nquery %d domains, %d entries: %+v",
							got.Domains, len(got.Entries), got.Entries, want.Domains, len(want.Entries), want.Entries)
					}
				})
			}
		}
	}
	for _, c := range []struct {
		name string
		g    func(*testing.T) *graph.Graph
	}{
		{"table3/study", studyGraph},
		{"table3/edges", nsInfraEdgeGraph},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := c.g(t)
			got, err := DNSBestPractice(g)
			if err != nil {
				t.Fatal(err)
			}
			if want := refDNSBestPractice(t, g); got != want || want.Domains == 0 {
				t.Fatalf("walk  %+v\nquery %+v", got, want)
			}
		})
	}
}

func TestSPoFShape(t *testing.T) {
	g := studyGraph(t)
	country, err := SPoF(g, TrancoRankingName, "country", 10)
	if err != nil {
		t.Fatal(err)
	}
	if country.Domains == 0 || len(country.Entries) == 0 {
		t.Fatal("empty SPoF result")
	}
	// Figure 5: the US leads third-party dependencies.
	usThird, maxThird := 0, 0
	for _, e := range country.Entries {
		if e.Key == "US" {
			usThird = e.ThirdParty
		}
		if e.ThirdParty > maxThird {
			maxThird = e.ThirdParty
		}
	}
	if usThird == 0 || usThird != maxThird {
		t.Errorf("US should lead third-party SPoF (US=%d, max=%d)", usThird, maxThird)
	}
	// ccTLD countries appear with hierarchical dependencies.
	hier := map[string]int{}
	for _, e := range country.Entries {
		hier[e.Key] = e.Hierarchical
	}
	for _, cc := range []string{"RU", "CN"} {
		if hier[cc] == 0 {
			t.Errorf("country %s missing hierarchical SPoF (got %v)", cc, hier)
		}
	}

	// Figure 6: infrastructure DNS mostly third-party, registry ASes
	// exclusively hierarchical.
	as, err := SPoF(g, TrancoRankingName, "AS", 10)
	if err != nil {
		t.Fatal(err)
	}
	var sawThirdPartyHeavy, sawRegistry bool
	for _, e := range as.Entries {
		if e.ThirdParty > 0 && e.ThirdParty >= e.Direct {
			sawThirdPartyHeavy = true
		}
		if strings.Contains(e.Key, "REGISTRY") && e.Hierarchical > 0 && e.Direct == 0 {
			sawRegistry = true
		}
	}
	if !sawThirdPartyHeavy {
		t.Error("no third-party-dominant AS in the top entries (paper: Akamai-like operators)")
	}
	if !sawRegistry {
		t.Error("no registry AS with pure hierarchical SPoF")
	}
	// TopN honored.
	if len(as.Entries) > 10 {
		t.Errorf("topN not applied: %d entries", len(as.Entries))
	}
}

func TestSPoFUmbrellaList(t *testing.T) {
	res, err := SPoF(studyGraph(t), "Cisco Umbrella Top 1M", "country", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains == 0 {
		t.Error("Umbrella SPoF analyzed no domains")
	}
}

func TestSneakPeek(t *testing.T) {
	sp, err := SneakPeek(studyGraph(t), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Domain == "" || len(sp.Lines) == 0 {
		t.Fatal("empty sneak peek")
	}
	// The paper's Figure 4 walk touches 13 datasets; a 3-hop walk in the
	// reproduction should fuse a comparable number.
	if len(sp.Datasets) < 8 {
		t.Errorf("sneak peek fused %d datasets (%v), want >= 8", len(sp.Datasets), sp.Datasets)
	}
}

func TestRunAllAndReportRendering(t *testing.T) {
	rep, err := RunAll(studyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Table 4/5", "Figure 5", "Figure 6",
		"§4.1.4", "§5.1.1", "§5.1.2", "RiPKI (2015, paper)", "this reproduction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCompareOriginDatasetsFindsPlantedErrors(t *testing.T) {
	// Paper §6.1: diffing BGPKIT's pfx2asn against IHR's ROV data exposed
	// an IPv6 origin bug in the real feed. The simulator plants the same
	// class of error; the comparison must surface exactly those prefixes.
	g := studyGraph(t)
	res, err := CompareOriginDatasets(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefixesCompared < 1000 {
		t.Fatalf("compared only %d prefixes", res.PrefixesCompared)
	}
	found := map[string]bool{}
	for _, d := range res.Discrepancies {
		found[d.Prefix] = true
		if d.AF != 6 {
			t.Errorf("discrepancy on %s has af %d; the planted bug is IPv6-only", d.Prefix, d.AF)
		}
		if len(d.OnlyInA) == 0 || len(d.OnlyInB) == 0 {
			t.Errorf("discrepancy %+v should disagree on origins in both directions", d)
		}
	}
	for _, e := range studyInternet(t).PlantedErrors {
		if !found[e.Prefix] {
			t.Errorf("planted error on %s not found (got %v)", e.Prefix, found)
		}
	}
	if len(res.Discrepancies) != len(studyInternet(t).PlantedErrors) {
		t.Errorf("discrepancies = %d, planted = %d (false positives?)",
			len(res.Discrepancies), len(studyInternet(t).PlantedErrors))
	}
	if !strings.Contains(res.String(), "discrepancies") {
		t.Error("comparison rendering broken")
	}
}

func TestTable2BothRowsGenerated(t *testing.T) {
	// Table 2's 2015 row, generated: the same study against an Internet
	// whose RPKI deployment is calibrated to the RiPKI-era measurements.
	res, err := core.Build(context.Background(), core.BuildOptions{
		Config: simnet.Config2015().Scale(0.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	r15, err := RPKI(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	between(t, "2015 CoveredPct", r15.CoveredPct, 1, 13)
	between(t, "2015 CDNPct", r15.CDNPct, 0, 8)
	r24, err := RPKI(studyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	growth := r24.CoveredPct / r15.CoveredPct
	if growth < 4 {
		t.Errorf("2015->2024 coverage growth %.1fx, want the paper's ~9x order", growth)
	}
	// In 2015 CDNs lagged badly (0.9%); in 2024 they lead.
	if r15.CDNPct >= r15.CoveredPct {
		t.Errorf("2015 CDN coverage %.1f should lag overall %.1f", r15.CDNPct, r15.CoveredPct)
	}
	if r24.CDNPct <= r24.CoveredPct {
		t.Errorf("2024 CDN coverage %.1f should lead overall %.1f", r24.CDNPct, r24.CoveredPct)
	}
}
