package crawlers

import (
	"context"
	"testing"

	"iyp/internal/graph"
	"iyp/internal/ingest"
	"iyp/internal/ontology"
	"iyp/internal/source"
)

// relsOf lists node id's relationships of one type in direction dir; none
// when the graph has never stored the type.
func relsOf(g *graph.Graph, id graph.NodeID, dir graph.Dir, typ string) []graph.RelID {
	t, ok := g.TypeID(typ)
	if !ok {
		return nil
	}
	return g.Rels(id, dir, []uint16{t}, nil)
}

// runOn runs one crawler against a hand-written catalog and returns the
// resulting graph.
func runOn(t *testing.T, c ingest.Crawler, files map[string]string) *graph.Graph {
	t.Helper()
	cat := source.NewCatalog()
	for path, data := range files {
		cat.Put(path, []byte(data))
	}
	g := graph.New()
	s := ingest.NewSession(g, cat, c.Reference())
	if err := c.Run(context.Background(), s); err != nil {
		t.Fatalf("%s: %v", c.Reference().Name, err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("%s: commit: %v", c.Reference().Name, err)
	}
	return g
}

func singleNode(t *testing.T, g *graph.Graph, label, key string, v graph.Value) graph.NodeID {
	t.Helper()
	ids := g.NodesByProp(label, key, v)
	if len(ids) != 1 {
		t.Fatalf("%s %v: %d nodes", label, v, len(ids))
	}
	return ids[0]
}

func TestRIPEASNamesParsing(t *testing.T) {
	g := runOn(t, NewRIPEASNames(), map[string]string{
		source.PathRIPEASNames: "2497 IIJ Internet Initiative Japan Inc., JP\n" +
			"65001 NONAME-NET\n" + // no country suffix
			"garbage line without asn\n",
	})
	as := singleNode(t, g, ontology.AS, "asn", graph.Int(2497))
	// NAME edge to the name (comma suffix stripped).
	nameRels := relsOf(g, as, graph.DirBoth, ontology.NameRel)
	if len(nameRels) != 1 {
		t.Fatalf("NAME edges = %d", len(nameRels))
	}
	nameNode := nameRels[0]
	_, to := g.RelEndpoints(nameNode)
	if v, _ := g.NodeProp(to, "name").AsString(); v != "IIJ Internet Initiative Japan Inc." {
		t.Errorf("name = %q", v)
	}
	// COUNTRY edge to JP.
	if got := relsOf(g, as, graph.DirBoth, ontology.CountryRel); len(got) != 1 {
		t.Errorf("COUNTRY edges = %d", len(got))
	}
	// The no-country AS still gets its name.
	as2 := singleNode(t, g, ontology.AS, "asn", graph.Int(65001))
	if got := relsOf(g, as2, graph.DirBoth, ontology.NameRel); len(got) != 1 {
		t.Errorf("no-country NAME edges = %d", len(got))
	}
	if got := relsOf(g, as2, graph.DirBoth, ontology.CountryRel); len(got) != 0 {
		t.Errorf("no-country COUNTRY edges = %d", len(got))
	}
}

func TestRIPERPKICanonicalizesROAPrefixes(t *testing.T) {
	g := runOn(t, NewRIPERPKI(), map[string]string{
		source.PathRIPERPKIROAs: `{"roas": [
			{"asn": "AS2497", "prefix": "2001:0DB8::/32", "maxLength": 48, "ta": "apnic"},
			{"asn": "ASbogus", "prefix": "10.0.0.0/8", "maxLength": 8, "ta": "arin"}
		]}`,
	})
	// Bad ASN rows are skipped; good rows canonicalize the prefix.
	pfx := singleNode(t, g, ontology.Prefix, "prefix", graph.String("2001:db8::/32"))
	rels := relsOf(g, pfx, graph.DirIn, ontology.RouteOriginAuthorization)
	if len(rels) != 1 {
		t.Fatalf("ROA edges = %d", len(rels))
	}
	if v, _ := g.RelProp(rels[0], "maxLength").AsInt(); v != 48 {
		t.Errorf("maxLength = %v", v)
	}
	if got := g.CountByLabel(ontology.Prefix); got != 1 {
		t.Errorf("prefixes = %d (the bogus-ASN row must be skipped)", got)
	}
}

func TestAtlasTargetDetection(t *testing.T) {
	g := runOn(t, NewRIPEAtlas(), map[string]string{
		source.PathRIPEAtlasProbes: `{"results": [
			{"id": 1, "asn_v4": 2497, "country_code": "JP", "address_v4": "192.0.2.9", "status": {"name": "Connected"}}
		]}`,
		source.PathRIPEAtlasMeas: `{"results": [
			{"id": 10, "type": "ping", "af": 4, "target": "www.example.com", "status": {"name": "Ongoing"}, "probes": [1]},
			{"id": 11, "type": "ping", "af": 4, "target": "198.51.100.7", "status": {"name": "Ongoing"}, "probes": [1]},
			{"id": 12, "type": "ping", "af": 6, "target": "ignored", "target_ip": "2001:db8::1", "status": {"name": "Stopped"}, "probes": []}
		]}`,
	})
	// Hostname target becomes a HostName node.
	m10 := singleNode(t, g, ontology.AtlasMeasurement, "id", graph.Int(10))
	rels := relsOf(g, m10, graph.DirOut, ontology.Target)
	if len(rels) != 1 {
		t.Fatalf("measurement 10 TARGET edges = %d", len(rels))
	}
	_, to := g.RelEndpoints(rels[0])
	if !g.NodeHasLabel(to, ontology.HostName) {
		t.Error("hostname target not a HostName node")
	}
	// Dotted-quad target becomes an IP node.
	m11 := singleNode(t, g, ontology.AtlasMeasurement, "id", graph.Int(11))
	rels = relsOf(g, m11, graph.DirOut, ontology.Target)
	_, to = g.RelEndpoints(rels[0])
	if !g.NodeHasLabel(to, ontology.IP) {
		t.Error("IPv4 target not an IP node")
	}
	// Explicit target_ip wins and canonicalizes.
	if ids := g.NodesByProp(ontology.IP, "ip", graph.String("2001:db8::1")); len(ids) != 1 {
		t.Error("target_ip not imported canonically")
	}
	// Probe wiring: LOCATED_IN AS, ASSIGNED IP, PART_OF measurement.
	probe := singleNode(t, g, ontology.AtlasProbe, "id", graph.Int(1))
	if got := relsOf(g, probe, graph.DirOut, ontology.LocatedIn); len(got) != 1 {
		t.Errorf("probe LOCATED_IN edges = %d", len(got))
	}
	if got := relsOf(g, probe, graph.DirOut, ontology.PartOf); len(got) != 2 {
		t.Errorf("probe PART_OF edges = %d, want 2 (measurements 10 and 11)", len(got))
	}
}

func TestNRODelegatedStatuses(t *testing.T) {
	g := runOn(t, NewNRODelegated(), map[string]string{
		source.PathNRODelegated: "2.0|nro|20240501|4|19830101|20240501|+0000\n" +
			"apnic|JP|asn|2497|1|19980101|allocated|handle-a\n" +
			"apnic|JP|ipv4|203.0.113.0|256|19980101|assigned|handle-a\n" +
			"arin||ipv4|198.51.100.0|256|19980101|available|arin-pool\n" +
			"ripencc|ZZ|ipv6|2001:db8::|32|19980101|reserved|ripe-pool\n",
	})
	as := singleNode(t, g, ontology.AS, "asn", graph.Int(2497))
	if got := relsOf(g, as, graph.DirOut, ontology.Assigned); len(got) != 1 {
		t.Errorf("AS ASSIGNED edges = %d", len(got))
	}
	p1 := singleNode(t, g, ontology.Prefix, "prefix", graph.String("203.0.113.0/24"))
	if got := relsOf(g, p1, graph.DirOut, ontology.Assigned); len(got) != 1 {
		t.Errorf("assigned prefix edges = %d", len(got))
	}
	p2 := singleNode(t, g, ontology.Prefix, "prefix", graph.String("198.51.100.0/24"))
	if got := relsOf(g, p2, graph.DirOut, ontology.Available); len(got) != 1 {
		t.Errorf("available prefix edges = %d", len(got))
	}
	p3 := singleNode(t, g, ontology.Prefix, "prefix", graph.String("2001:db8::/32"))
	if got := relsOf(g, p3, graph.DirOut, ontology.Reserved); len(got) != 1 {
		t.Errorf("reserved prefix edges = %d", len(got))
	}
	// Both resources share the same opaque-id node (same holder).
	holder := singleNode(t, g, ontology.OpaqueID, "id", graph.String("handle-a"))
	if got := g.Degree(holder, graph.DirIn, nil); got != 2 {
		t.Errorf("holder in-degree = %d, want 2", got)
	}
	// ZZ country codes are skipped.
	if got := relsOf(g, p1, graph.DirOut, ontology.CountryRel); len(got) != 1 {
		t.Errorf("JP prefix COUNTRY edges = %d", len(got))
	}
	if got := relsOf(g, p3, graph.DirOut, ontology.CountryRel); len(got) != 0 {
		t.Errorf("ZZ prefix COUNTRY edges = %d, want 0", len(got))
	}
}

func TestAliceLGResolvesIXPByName(t *testing.T) {
	g := runOn(t, NewAliceLG("amsix"), map[string]string{
		source.PathAliceLGPrefix + "amsix/neighbors.json": `{
			"ixp_name": "IX-NL-01",
			"neighbors": [
				{"asn": 2497, "description": "IIJ", "state": "up"},
				{"asn": 65001, "description": "", "state": "up"}
			]
		}`,
	})
	ixp := singleNode(t, g, ontology.IXP, "name", graph.String("IX-NL-01"))
	if got := len(relsOf(g, ixp, graph.DirIn, ontology.MemberOf)); got != 2 {
		t.Errorf("MEMBER_OF edges = %d", got)
	}
}

func TestBGPToolsTagsQuotedCSV(t *testing.T) {
	g := runOn(t, NewBGPToolsTags(), map[string]string{
		source.PathBGPToolsTags: "AS2497,\"Internet Service Provider\"\nAS65001,\"DDoS Mitigation\"\n",
	})
	tag := singleNode(t, g, ontology.Tag, "label", graph.String("DDoS Mitigation"))
	if got := len(relsOf(g, tag, graph.DirIn, ontology.Categorized)); got != 1 {
		t.Errorf("CATEGORIZED edges = %d", got)
	}
}

func TestIHRROVCommaLabelImport(t *testing.T) {
	g := runOn(t, NewIHRROV(), map[string]string{
		source.PathIHRROV: "prefix,origin_asn,rpki_status,irr_status\n" +
			"\"192.0.2.0/24\",2497,\"RPKI Invalid, more specific\",\"IRR NotFound\"\n",
	})
	// The comma-bearing tag must survive as one label.
	tag := singleNode(t, g, ontology.Tag, "label", graph.String("RPKI Invalid, more specific"))
	rels := relsOf(g, tag, graph.DirIn, ontology.Categorized)
	if len(rels) != 1 {
		t.Fatalf("CATEGORIZED edges = %d", len(rels))
	}
	if v, _ := g.RelProp(rels[0], "origin_asn").AsInt(); v != 2497 {
		t.Errorf("origin_asn = %v", v)
	}
}

func TestCiscoUmbrellaHostVsDomainSplit(t *testing.T) {
	g := runOn(t, NewCiscoUmbrella(), map[string]string{
		source.PathCiscoUmbrella: "1,example.com\n2,www.example.com\n3,api.cdn.example.net\n",
	})
	if got := g.CountByLabel(ontology.DomainName); got != 1 {
		t.Errorf("DomainName nodes = %d, want 1 (apex only)", got)
	}
	if got := g.CountByLabel(ontology.HostName); got != 2 {
		t.Errorf("HostName nodes = %d, want 2 (FQDNs)", got)
	}
}
