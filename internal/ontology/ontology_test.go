package ontology

import (
	"strings"
	"testing"
	"time"

	"iyp/internal/graph"
)

func TestEntityTableMatchesPaper(t *testing.T) {
	// Paper Table 6 lists exactly 24 entities.
	es := Entities()
	if len(es) != 24 {
		t.Fatalf("entities = %d, want 24 (Table 6)", len(es))
	}
	want := []string{
		AS, AtlasMeasurement, AtlasProbe, AuthoritativeNameServer,
		BGPCollector, CaidaIXID, Country, DomainName, Estimate, Facility,
		HostName, IP, IXP, Name, OpaqueID, Organization, PeeringdbFacID,
		PeeringdbIXID, PeeringdbNetID, PeeringdbOrgID, Prefix, Ranking,
		Tag, URL,
	}
	for _, name := range want {
		e, ok := LookupEntity(name)
		if !ok {
			t.Errorf("entity %s missing", name)
			continue
		}
		if e.Description == "" {
			t.Errorf("entity %s lacks a description", name)
		}
	}
	// Entities follow the Neo4j camel-case convention (paper §3.1).
	for _, e := range es {
		if e.Name[0] < 'A' || e.Name[0] > 'Z' {
			t.Errorf("entity %q not camel-case", e.Name)
		}
		if strings.ContainsAny(e.Name, "_ ") {
			t.Errorf("entity %q contains separators", e.Name)
		}
	}
}

func TestRelationshipTableMatchesPaper(t *testing.T) {
	// Paper Table 7 lists exactly 24 relationship types.
	rs := Relationships()
	if len(rs) != 24 {
		t.Fatalf("relationships = %d, want 24 (Table 7)", len(rs))
	}
	want := []string{
		AliasOf, Assigned, Available, Categorized, CountryRel, DependsOn,
		ExternalID, LocatedIn, ManagedBy, MemberOf, NameRel, Originate,
		Parent, PartOf, PeersWith, Population, QueriedFrom, Rank,
		Reserved, ResolvesTo, RouteOriginAuthorization, SiblingOf,
		Target, Website,
	}
	for _, name := range want {
		r, ok := LookupRelationship(name)
		if !ok {
			t.Errorf("relationship %s missing", name)
			continue
		}
		if r.Description == "" {
			t.Errorf("relationship %s lacks a description", name)
		}
	}
	// Relationships are upper-case with underscores (paper §3.1).
	for _, r := range rs {
		if r.Name != strings.ToUpper(r.Name) {
			t.Errorf("relationship %q not upper-case", r.Name)
		}
	}
}

func TestIdentityKeys(t *testing.T) {
	cases := map[string]string{
		AS:         "asn",
		IP:         "ip",
		Prefix:     "prefix",
		Country:    "country_code",
		HostName:   "name",
		Tag:        "label",
		URL:        "url",
		OpaqueID:   "id",
		AtlasProbe: "id",
	}
	for entity, want := range cases {
		if got := IdentityKey(entity); got != want {
			t.Errorf("IdentityKey(%s) = %q, want %q", entity, got, want)
		}
	}
	if IdentityKey("NoSuchEntity") != "" {
		t.Error("unknown entity should have empty identity key")
	}
}

func TestLookupMisses(t *testing.T) {
	if _, ok := LookupEntity("Bogus"); ok {
		t.Error("LookupEntity(Bogus) should miss")
	}
	if _, ok := LookupRelationship("BOGUS_REL"); ok {
		t.Error("LookupRelationship(BOGUS_REL) should miss")
	}
}

func TestReferenceProps(t *testing.T) {
	mod := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	fetch := time.Date(2024, 5, 2, 12, 30, 0, 0, time.UTC)
	ref := Reference{
		Organization:     "BGPKIT",
		Name:             "bgpkit.pfx2asn",
		InfoURL:          "https://data.bgpkit.com/pfx2as",
		DataURL:          "bgpkit/pfx2as.jsonl",
		ModificationTime: mod,
		FetchTime:        fetch,
	}
	p := ref.Props()
	if v, _ := p[PropReferenceOrg].AsString(); v != "BGPKIT" {
		t.Errorf("org = %v", p[PropReferenceOrg])
	}
	if v, _ := p[PropReferenceName].AsString(); v != "bgpkit.pfx2asn" {
		t.Errorf("name = %v", p[PropReferenceName])
	}
	if v, _ := p[PropReferenceModTime].AsString(); v != "2024-05-01T00:00:00Z" {
		t.Errorf("mod time = %v", p[PropReferenceModTime])
	}
	if v, _ := p[PropReferenceFetch].AsString(); v != "2024-05-02T12:30:00Z" {
		t.Errorf("fetch time = %v", p[PropReferenceFetch])
	}

	// Optional fields omitted when empty.
	minimal := Reference{Organization: "X", Name: "x.y"}
	mp := minimal.Props()
	if _, ok := mp[PropReferenceURLInfo]; ok {
		t.Error("empty info URL should be absent")
	}
	if _, ok := mp[PropReferenceModTime]; ok {
		t.Error("zero mod time should be absent")
	}
}

func TestValidateGraphFlagsViolations(t *testing.T) {
	g := graph.New()
	// Clean element.
	as := g.AddNode([]string{AS}, graph.Props{"asn": graph.Int(2497)})
	pfx := g.AddNode([]string{Prefix}, graph.Props{"prefix": graph.String("192.0.2.0/24")})
	ref := Reference{Organization: "T", Name: "t.ds"}
	if _, err := g.AddRel(Originate, as, pfx, ref.Props()); err != nil {
		t.Fatal(err)
	}
	if got := ValidateGraph(g, 0); len(got) != 0 {
		t.Fatalf("clean graph reported violations: %v", got)
	}

	// Unknown label.
	g.AddNode([]string{"Gremlin"}, nil)
	// Missing identity.
	g.AddNode([]string{Tag}, nil)
	// Non-canonical prefix and hostname.
	g.AddNode([]string{Prefix}, graph.Props{"prefix": graph.String("2001:0DB8::/32")})
	g.AddNode([]string{HostName}, graph.Props{"name": graph.String("WWW.Example.COM")})
	// Bad country code.
	g.AddNode([]string{Country}, graph.Props{"country_code": graph.String("usa")})
	// Unprovenanced relationship of an unknown type.
	x := g.AddNode([]string{AS}, graph.Props{"asn": graph.Int(1)})
	if _, err := g.AddRel("FROBNICATES", as, x, nil); err != nil {
		t.Fatal(err)
	}

	got := ValidateGraph(g, 0)
	kinds := map[string]int{}
	for _, v := range got {
		kinds[v.Kind]++
		if v.String() == "" {
			t.Error("empty violation rendering")
		}
	}
	for _, want := range []string{
		"unknown-label", "unknown-rel-type", "missing-identity",
		"non-canonical", "missing-provenance",
	} {
		if kinds[want] == 0 {
			t.Errorf("violation kind %s not detected (got %v)", want, kinds)
		}
	}
	if kinds["non-canonical"] != 3 {
		t.Errorf("non-canonical = %d, want 3 (prefix, hostname, country)", kinds["non-canonical"])
	}
	// The cap applies.
	if got := ValidateGraph(g, 2); len(got) > 2 {
		t.Errorf("maxIssues not applied: %d", len(got))
	}
}
