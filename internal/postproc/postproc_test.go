package postproc

import (
	"testing"
	"time"

	"iyp/internal/graph"
	"iyp/internal/ontology"
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

func runAll(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := Run(g, time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
}

func addNode(g *graph.Graph, label, key, val string) graph.NodeID {
	return g.AddNode([]string{label}, graph.Props{key: graph.String(val)})
}

func TestAddressFamilyPass(t *testing.T) {
	g := graph.New()
	ip4 := addNode(g, ontology.IP, "ip", "192.0.2.1")
	ip6 := addNode(g, ontology.IP, "ip", "2001:db8::1")
	p4 := addNode(g, ontology.Prefix, "prefix", "192.0.2.0/24")
	p6 := addNode(g, ontology.Prefix, "prefix", "2001:db8::/32")
	bogus := addNode(g, ontology.Prefix, "prefix", "not-a-prefix")
	runAll(t, g)
	for id, want := range map[graph.NodeID]int64{ip4: 4, ip6: 6, p4: 4, p6: 6} {
		if v, _ := g.NodeProp(id, "af").AsInt(); v != want {
			t.Errorf("af(%d) = %d, want %d", id, v, want)
		}
	}
	if !g.NodeProp(bogus, "af").IsNull() {
		t.Error("malformed prefix should not get an af")
	}
}

func TestIPToPrefixLPM(t *testing.T) {
	g := graph.New()
	ip := addNode(g, ontology.IP, "ip", "10.1.2.3")
	short := addNode(g, ontology.Prefix, "prefix", "10.0.0.0/8")
	long := addNode(g, ontology.Prefix, "prefix", "10.1.0.0/16")
	unrelated := addNode(g, ontology.Prefix, "prefix", "192.0.2.0/24")
	runAll(t, g)
	rels := relsOf(g, ip, graph.DirOut, ontology.PartOf)
	if len(rels) != 1 {
		t.Fatalf("IP PART_OF edges = %d, want 1 (longest match only)", len(rels))
	}
	_, to := g.RelEndpoints(rels[0])
	if to != long {
		t.Errorf("LPM chose node %d, want %d (/16)", to, long)
	}
	// Provenance on refinement links.
	if v, _ := g.RelProp(rels[0], ontology.PropReferenceName).AsString(); v != "iyp.ip2prefix" {
		t.Errorf("refinement reference = %q", v)
	}
	_ = short
	_ = unrelated
}

func TestCoveringPrefix(t *testing.T) {
	g := graph.New()
	p8 := addNode(g, ontology.Prefix, "prefix", "10.0.0.0/8")
	p16 := addNode(g, ontology.Prefix, "prefix", "10.1.0.0/16")
	p24 := addNode(g, ontology.Prefix, "prefix", "10.1.2.0/24")
	runAll(t, g)
	check := func(child, wantParent graph.NodeID) {
		t.Helper()
		rels := relsOf(g, child, graph.DirOut, ontology.PartOf)
		if len(rels) != 1 {
			t.Fatalf("prefix %d PART_OF edges = %d", child, len(rels))
		}
		if _, to := g.RelEndpoints(rels[0]); to != wantParent {
			t.Errorf("cover of %d = %d, want %d", child, to, wantParent)
		}
	}
	check(p24, p16)
	check(p16, p8)
	if got := relsOf(g, p8, graph.DirOut, ontology.PartOf); len(got) != 0 {
		t.Error("top prefix should have no cover")
	}
}

func TestURLToHostname(t *testing.T) {
	g := graph.New()
	url := addNode(g, ontology.URL, "url", "https://www.example.com/page")
	runAll(t, g)
	rels := relsOf(g, url, graph.DirOut, ontology.PartOf)
	if len(rels) != 1 {
		t.Fatalf("URL PART_OF edges = %d", len(rels))
	}
	_, host := g.RelEndpoints(rels[0])
	if v, _ := g.NodeProp(host, "name").AsString(); v != "www.example.com" {
		t.Errorf("URL hostname = %q", v)
	}
	if !g.NodeHasLabel(host, ontology.HostName) {
		t.Error("created node lacks HostName label")
	}
}

func TestDNSHierarchy(t *testing.T) {
	g := graph.New()
	host := addNode(g, ontology.HostName, "name", "www.example.com")
	dom := addNode(g, ontology.DomainName, "name", "example.com")
	runAll(t, g)

	// HostName PART_OF DomainName.
	rels := relsOf(g, host, graph.DirOut, ontology.PartOf)
	if len(rels) != 1 {
		t.Fatalf("host PART_OF edges = %d", len(rels))
	}
	if _, to := g.RelEndpoints(rels[0]); to != dom {
		t.Error("hostname linked to wrong domain")
	}
	// DomainName PARENT tld DomainName (created on demand).
	prels := relsOf(g, dom, graph.DirOut, ontology.Parent)
	if len(prels) != 1 {
		t.Fatalf("domain PARENT edges = %d", len(prels))
	}
	_, tld := g.RelEndpoints(prels[0])
	if v, _ := g.NodeProp(tld, "name").AsString(); v != "com" {
		t.Errorf("TLD node = %q", v)
	}
	// The created TLD node must not link to itself.
	if got := relsOf(g, tld, graph.DirOut, ontology.Parent); len(got) != 0 {
		t.Error("TLD must not have a PARENT")
	}
}

func TestCountryInformation(t *testing.T) {
	g := graph.New()
	us := addNode(g, ontology.Country, "country_code", "US")
	zz := addNode(g, ontology.Country, "country_code", "ZZ")
	runAll(t, g)
	if v, _ := g.NodeProp(us, "alpha3").AsString(); v != "USA" {
		t.Errorf("alpha3 = %q", v)
	}
	if v, _ := g.NodeProp(us, "name").AsString(); v != "United States" {
		t.Errorf("name = %q", v)
	}
	// Unknown codes are left as-is (no fabricated data).
	if !g.NodeProp(zz, "alpha3").IsNull() {
		t.Error("unknown country should not get alpha3")
	}
}

func TestPassesAreOrderedAndNamed(t *testing.T) {
	ps := Passes()
	if len(ps) != 6 {
		t.Fatalf("passes = %d, want 6", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Run == nil {
			t.Errorf("malformed pass %+v", p)
		}
		if names[p.Name] {
			t.Errorf("duplicate pass %q", p.Name)
		}
		names[p.Name] = true
	}
	// address_family must precede ip2prefix (the trie parses prefix
	// strings that af validation would have skipped).
	if ps[0].Name != "iyp.address_family" {
		t.Errorf("first pass = %s", ps[0].Name)
	}
}

func TestRunOnEmptyGraph(t *testing.T) {
	g := graph.New()
	runAll(t, g) // must not error or panic
	if g.NumNodes() != 0 {
		t.Error("refinement invented nodes on an empty graph")
	}
}
