package crawlers

import (
	"context"
	"sync"
	"testing"

	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/ontology"
	"iyp/internal/simnet"
	"iyp/internal/source"
)

// shared fixture: one small simulated Internet + rendered catalog + fully
// crawled graph, built once for the whole package.
var (
	fixtureOnce sync.Once
	fixInternet *simnet.Internet
	fixCatalog  *source.Catalog
	fixGraph    *graph.Graph
	fixReport   ingest.Report
)

func fixture(t *testing.T) (*simnet.Internet, *source.Catalog, *graph.Graph) {
	t.Helper()
	fixtureOnce.Do(func() {
		in, err := simnet.Generate(simnet.DefaultConfig().Scale(0.05))
		if err != nil {
			t.Fatal(err)
		}
		fixInternet = in
		fixCatalog = source.Render(in)
		fixGraph = graph.New()
		for _, e := range ontology.Entities() {
			if e.IdentityKey != "" {
				fixGraph.EnsureIndex(e.Name, e.IdentityKey)
			}
		}
		p := &ingest.Pipeline{Graph: fixGraph, Fetcher: fixCatalog, Crawlers: All(), Concurrency: 4}
		rep, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fixReport = rep
	})
	return fixInternet, fixCatalog, fixGraph
}

func TestRegistryMatchesTable8(t *testing.T) {
	cs := All()
	if len(cs) != 47 {
		t.Errorf("crawlers = %d, want 47", len(cs))
	}
	// The paper's abstract says "23 organizations" while its Table 8
	// enumerates 21 provider rows; this registry reproduces the table
	// (plus UTwente credited separately for the DNS dependency graph).
	orgs := Organizations()
	if len(orgs) != 22 {
		t.Errorf("organizations = %d, want 22: %v", len(orgs), orgs)
	}
	// Dataset names are unique and follow the <org>.<dataset> style.
	seen := map[string]bool{}
	for _, c := range cs {
		ref := c.Reference()
		if ref.Name == "" || ref.Organization == "" {
			t.Errorf("crawler with empty reference: %+v", ref)
		}
		if seen[ref.Name] {
			t.Errorf("duplicate dataset name %q", ref.Name)
		}
		seen[ref.Name] = true
	}
}

func TestAllCrawlersSucceedOnRenderedData(t *testing.T) {
	fixture(t)
	for _, c := range fixReport.Crawls {
		if c.Err != nil {
			t.Errorf("crawler %s failed: %v", c.Dataset, c.Err)
		}
		if c.LinksCreated == 0 {
			t.Errorf("crawler %s imported no relationships", c.Dataset)
		}
	}
}

func TestCrawledGraphShape(t *testing.T) {
	in, _, g := fixture(t)

	// Every simulated AS must exist exactly once.
	if got := g.CountByLabel(ontology.AS); got < len(in.ASes) {
		t.Errorf("AS nodes = %d, want >= %d", got, len(in.ASes))
	}
	// All prefixes from pfx2asn.
	if got := g.CountByLabel(ontology.Prefix); got < len(in.Prefixes) {
		t.Errorf("Prefix nodes = %d, want >= %d", got, len(in.Prefixes))
	}
	// Tranco ranking node with one RANK edge per domain.
	ranks := g.NodesByProp(ontology.Ranking, "name", graph.String("Tranco top 1M"))
	if len(ranks) != 1 {
		t.Fatalf("Tranco ranking nodes = %d", len(ranks))
	}
	if deg := len(relsOf(g, ranks[0], graph.DirBoth, ontology.Rank)); deg != len(in.Domains) {
		t.Errorf("RANK degree = %d, want %d", deg, len(in.Domains))
	}

	st := g.Stats()
	// Relationship types that must exist after a full crawl.
	for _, ty := range []string{
		ontology.Originate, ontology.ResolvesTo, ontology.ManagedBy,
		ontology.Categorized, ontology.CountryRel, ontology.MemberOf,
		ontology.PeersWith, ontology.Rank, ontology.DependsOn,
		ontology.RouteOriginAuthorization, ontology.Assigned,
		ontology.NameRel, ontology.Population, ontology.ExternalID,
		ontology.LocatedIn, ontology.SiblingOf, ontology.Target,
		ontology.Website, ontology.QueriedFrom,
	} {
		if st.ByRelType[ty] == 0 {
			t.Errorf("no %s relationships after full crawl", ty)
		}
	}
	// Node labels that must exist.
	for _, l := range []string{
		ontology.AS, ontology.Prefix, ontology.IP, ontology.HostName,
		ontology.DomainName, ontology.AuthoritativeNameServer,
		ontology.Country, ontology.Organization, ontology.IXP,
		ontology.Facility, ontology.Tag, ontology.OpaqueID,
		ontology.AtlasProbe, ontology.AtlasMeasurement,
		ontology.BGPCollector, ontology.URL, ontology.Estimate,
		ontology.CaidaIXID, ontology.PeeringdbIXID, ontology.PeeringdbOrgID,
		ontology.PeeringdbFacID, ontology.Ranking, ontology.Name,
	} {
		if st.ByLabel[l] == 0 {
			t.Errorf("no %s nodes after full crawl", l)
		}
	}
}

func TestOriginationsMatchModel(t *testing.T) {
	in, _, g := fixture(t)
	// Spot-check: every model prefix's origin has an ORIGINATE edge from
	// the bgpkit dataset.
	checked := 0
	for _, p := range in.Prefixes {
		if checked >= 50 {
			break
		}
		checked++
		pfxNodes := g.NodesByProp(ontology.Prefix, "prefix", graph.String(p.CIDR))
		if len(pfxNodes) != 1 {
			t.Fatalf("prefix %s: %d nodes", p.CIDR, len(pfxNodes))
		}
		asNodes := g.NodesByProp(ontology.AS, "asn", graph.Int(int64(p.Origin.ASN)))
		if len(asNodes) != 1 {
			t.Fatalf("AS%d: %d nodes", p.Origin.ASN, len(asNodes))
		}
		found := false
		for _, rid := range relsOf(g, pfxNodes[0], graph.DirIn, ontology.Originate) {
			from, _ := g.RelEndpoints(rid)
			if from == asNodes[0] {
				found = true
				// Provenance present.
				if v, _ := g.RelProp(rid, ontology.PropReferenceName).AsString(); v == "" {
					t.Error("ORIGINATE edge lacks provenance")
				}
			}
		}
		if !found {
			t.Errorf("no ORIGINATE %d -> %s", p.Origin.ASN, p.CIDR)
		}
	}
}

func TestSameLinkFromMultipleDatasets(t *testing.T) {
	// Paper §2.3: semantically identical links from different datasets
	// coexist as distinct relationships distinguished by reference_name.
	// BGPKIT and PCH both provide originations.
	in, _, g := fixture(t)
	var moas *simnet.Prefix
	for i, p := range in.Prefixes {
		if i%10 != 9 { // present in the PCH snapshot (see renderPCH)
			moas = p
			break
		}
	}
	pfxNode := g.NodesByProp(ontology.Prefix, "prefix", graph.String(moas.CIDR))[0]
	sources := map[string]bool{}
	for _, rid := range relsOf(g, pfxNode, graph.DirIn, ontology.Originate) {
		ref, _ := g.RelProp(rid, ontology.PropReferenceName).AsString()
		sources[ref] = true
	}
	if !sources["bgpkit.pfx2asn"] {
		t.Errorf("missing bgpkit origination: %v", sources)
	}
	if !sources["pch.daily_routing_snapshots_v4"] && !sources["pch.daily_routing_snapshots_v6"] {
		t.Errorf("missing pch origination: %v", sources)
	}
}

func TestNameserverNodesCarryBothLabels(t *testing.T) {
	_, _, g := fixture(t)
	// openintel.ns creates HostName nodes with the
	// AuthoritativeNameServer label — one node, two labels.
	ids := g.NodesByLabel(ontology.AuthoritativeNameServer)
	if len(ids) == 0 {
		t.Fatal("no nameserver nodes")
	}
	for _, id := range ids[:min(20, len(ids))] {
		if !g.NodeHasLabel(id, ontology.HostName) {
			t.Errorf("nameserver node %d lacks HostName label", id)
		}
	}
}

func TestROVTagsPresent(t *testing.T) {
	_, _, g := fixture(t)
	for _, label := range []string{"RPKI Valid", "RPKI NotFound", "IRR Valid"} {
		tags := g.NodesByProp(ontology.Tag, "label", graph.String(label))
		if len(tags) != 1 {
			t.Errorf("tag %q: %d nodes", label, len(tags))
			continue
		}
		if len(relsOf(g, tags[0], graph.DirBoth, ontology.Categorized)) == 0 {
			t.Errorf("tag %q has no CATEGORIZED edges", label)
		}
	}
}

func TestV4RangeToPrefixes(t *testing.T) {
	cases := []struct {
		start string
		count int
		want  []string
	}{
		{"10.0.0.0", 256, []string{"10.0.0.0/24"}},
		{"10.0.0.0", 4096, []string{"10.0.0.0/20"}},
		{"10.0.0.0", 768, []string{"10.0.0.0/23", "10.0.2.0/24"}},
		{"10.0.1.0", 512, []string{"10.0.1.0/24", "10.0.2.0/24"}}, // alignment forces split
	}
	for _, tc := range cases {
		got, err := v4RangeToPrefixes(tc.start, tc.count)
		if err != nil {
			t.Errorf("v4RangeToPrefixes(%s, %d): %v", tc.start, tc.count, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("v4RangeToPrefixes(%s, %d) = %v, want %v", tc.start, tc.count, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("v4RangeToPrefixes(%s, %d)[%d] = %s, want %s", tc.start, tc.count, i, got[i], tc.want[i])
			}
		}
	}
	if _, err := v4RangeToPrefixes("bogus", 256); err == nil {
		t.Error("invalid start should error")
	}
}

func TestCrawlerMissingDatasetFails(t *testing.T) {
	// A crawler against an empty catalog must return an error (which the
	// pipeline then isolates), not panic.
	g := graph.New()
	s := ingest.NewSession(g, source.NewCatalog(), NewTranco().Reference())
	if err := NewTranco().Run(context.Background(), s); err == nil {
		t.Error("crawler against empty catalog should fail")
	}
}

func TestCrawlerToleratesMalformedRows(t *testing.T) {
	// Malformed rows are skipped; valid rows still import.
	c := source.NewCatalog()
	c.Put(source.PathTranco, []byte("1,good.com\nnot-a-rank,bad.com\n2,also-good.org\n"))
	g := graph.New()
	s := ingest.NewSession(g, c, NewTranco().Reference())
	if err := NewTranco().Run(context.Background(), s); err != nil {
		t.Fatalf("tolerant crawler errored: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := g.CountByLabel(ontology.DomainName); got != 2 {
		t.Errorf("domains = %d, want 2", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFullCrawlValidatesAgainstOntology(t *testing.T) {
	// The whole pipeline's output must conform to the ontology: only
	// defined entities and relationship types, canonical identifiers,
	// provenance on every relationship. (Refinement has not run here, so
	// only crawler output is validated.)
	_, _, g := fixture(t)
	if got := ontology.ValidateGraph(g, 20); len(got) != 0 {
		t.Errorf("crawled graph violates the ontology:\n%v", got)
	}
}
