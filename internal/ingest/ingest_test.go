package ingest

import (
	"context"
	"errors"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"iyp/internal/graph"
	"iyp/internal/ontology"
	"iyp/internal/source"
)

func testSession(t *testing.T) *Session {
	t.Helper()
	g := graph.New()
	return NewSession(g, source.NewCatalog(), ontology.Reference{
		Organization: "Test Org", Name: "test.dataset",
	})
}

// commit applies the session's staged writes and fails the test on error.
func commit(t *testing.T, s *Session) {
	t.Helper()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionNodeCanonicalization(t *testing.T) {
	s := testSession(t)

	// The paper's §2.3 example: two spellings of one IPv6 prefix must
	// merge into a single node.
	a, err := s.Node(ontology.Prefix, "2001:DB8::/32")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Node(ontology.Prefix, "2001:0db8::/32")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("prefix spellings did not deduplicate")
	}

	// ASN spellings.
	x, _ := s.Node(ontology.AS, "AS2497")
	y, _ := s.Node(ontology.AS, uint32(2497))
	z, _ := s.Node(ontology.AS, "2497")
	if x != y || y != z {
		t.Error("ASN spellings did not deduplicate")
	}

	// IP spellings.
	i1, _ := s.Node(ontology.IP, "2001:DB8:0:0:0:0:0:1")
	i2, _ := s.Node(ontology.IP, "2001:db8::1")
	if i1 != i2 {
		t.Error("IP spellings did not deduplicate")
	}

	// Country codes: alpha-3 folds into alpha-2.
	c1, _ := s.Node(ontology.Country, "usa")
	c2, _ := s.Node(ontology.Country, "US")
	if c1 != c2 {
		t.Error("country codes did not deduplicate")
	}
	// Unknown codes survive upper-cased rather than erroring.
	c3, err := s.Node(ontology.Country, "zz")
	if err != nil {
		t.Fatal(err)
	}

	// Hostnames: case and trailing dot.
	h1, _ := s.Node(ontology.HostName, "WWW.Example.COM.")
	h2, _ := s.Node(ontology.HostName, "www.example.com")
	if h1 != h2 {
		t.Error("hostname spellings did not deduplicate")
	}

	// Invalid identifiers error instead of creating garbage nodes.
	if _, err := s.Node(ontology.IP, "not-an-ip"); err == nil {
		t.Error("invalid IP should error")
	}
	if _, err := s.Node(ontology.Prefix, "10.0.0.0/99"); err == nil {
		t.Error("invalid prefix should error")
	}
	if _, err := s.Node(ontology.AS, "ASxyz"); err == nil {
		t.Error("invalid ASN should error")
	}
	if _, err := s.Node("NotAnEntity", "x"); err == nil {
		t.Error("unknown entity should error")
	}

	// Canonical forms land in the graph at commit.
	commit(t, s)
	g := s.Graph()
	if v, _ := g.NodeProp(s.Resolve(a), "prefix").AsString(); v != "2001:db8::/32" {
		t.Errorf("canonical form = %q", v)
	}
	if v, _ := g.NodeProp(s.Resolve(c3), "country_code").AsString(); v != "ZZ" {
		t.Errorf("unknown country = %q", v)
	}
}

func TestSessionNodeCountsAndCache(t *testing.T) {
	s := testSession(t)
	for i := 0; i < 3; i++ {
		if _, err := s.Node(ontology.AS, uint32(1000)); err != nil {
			t.Fatal(err)
		}
	}
	nodes, _ := s.Counts()
	if nodes != 1 {
		t.Errorf("staged nodes = %d, want 1", nodes)
	}
	commit(t, s)
	nodes, _ = s.Counts()
	if nodes != 1 {
		t.Errorf("applied nodes = %d, want 1", nodes)
	}
}

func TestSessionStagesUntilCommit(t *testing.T) {
	s := testSession(t)
	a, _ := s.Node(ontology.AS, uint32(1))
	b, _ := s.Node(ontology.AS, uint32(2))
	if err := s.Link(ontology.PeersWith, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if s.Graph().NumNodes() != 0 || s.Graph().NumRels() != 0 {
		t.Fatal("staged writes leaked into the graph before Commit")
	}
	if s.Committed() {
		t.Error("session reports committed before Commit")
	}
	commit(t, s)
	if s.Graph().NumNodes() != 2 || s.Graph().NumRels() != 1 {
		t.Errorf("graph after commit: %d nodes, %d rels", s.Graph().NumNodes(), s.Graph().NumRels())
	}
	// Commit is idempotent.
	commit(t, s)
	if s.Graph().NumRels() != 1 {
		t.Error("double commit duplicated writes")
	}
}

func TestSessionDiscardLeavesGraphUntouched(t *testing.T) {
	g := graph.New()
	s := NewSession(g, source.NewCatalog(), ontology.Reference{Organization: "T", Name: "t.x"})
	a, _ := s.Node(ontology.AS, uint32(1))
	p, _ := s.Node(ontology.Prefix, "10.0.0.0/8")
	if err := s.Link(ontology.Originate, a, p, nil); err != nil {
		t.Fatal(err)
	}
	// Never committed: the graph must show no trace of the session.
	if g.NumNodes() != 0 || g.NumRels() != 0 {
		t.Errorf("uncommitted session wrote to the graph: %d nodes, %d rels", g.NumNodes(), g.NumRels())
	}
}

// TestSessionLinkProvenance: every staged relationship carries the
// session's reference, which wins over a caller-supplied collision; the
// caller's other props survive and the caller's map is left unchanged.
func TestSessionLinkProvenance(t *testing.T) {
	for _, c := range []struct {
		name  string
		props graph.Props
		extra map[string]int64 // caller props that must reach the graph
	}{
		{"props", graph.Props{"count": graph.Int(2)}, map[string]int64{"count": 2}},
		{"nil", nil, nil},
		{"spoofed", graph.Props{
			ontology.PropReferenceName: graph.String("spoofed"),
			"extra":                    graph.Int(1),
		}, map[string]int64{"extra": 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := testSession(t)
			a, _ := s.Node(ontology.AS, uint32(1))
			p, _ := s.Node(ontology.Prefix, "10.0.0.0/8")
			before := c.props.Clone()
			if err := s.Link(ontology.Originate, a, p, c.props); err != nil {
				t.Fatal(err)
			}
			if !maps.EqualFunc(c.props, before, graph.Value.Equal) {
				t.Errorf("caller props changed: %v, was %v", c.props, before)
			}
			if _, links := s.Counts(); links != 1 {
				t.Errorf("linksCreated = %d", links)
			}
			commit(t, s)
			g := s.Graph()
			rels := g.Rels(s.Resolve(a), graph.DirOut, nil, nil)
			if len(rels) != 1 {
				t.Fatalf("rels = %d", len(rels))
			}
			props := g.RelProps(rels[0])
			if v, _ := props[ontology.PropReferenceName].AsString(); v != "test.dataset" {
				t.Errorf("provenance name = %v", props[ontology.PropReferenceName])
			}
			if v, _ := props[ontology.PropReferenceOrg].AsString(); v != "Test Org" {
				t.Errorf("provenance org = %v", props[ontology.PropReferenceOrg])
			}
			for k, want := range c.extra {
				if v, _ := props[k].AsInt(); v != want {
					t.Errorf("caller prop %s = %v, want %d", k, props[k], want)
				}
			}
			if len(props) != 2+len(c.extra) {
				t.Errorf("props = %v", props)
			}
		})
	}
}

func TestNodeWithProps(t *testing.T) {
	s := testSession(t)
	id, err := s.NodeWithProps(ontology.AtlasProbe, 42, graph.Props{"status": graph.String("Connected")})
	if err != nil {
		t.Fatal(err)
	}
	// First staged value wins within the session...
	if _, err := s.NodeWithProps(ontology.AtlasProbe, 42, graph.Props{"status": graph.String("Abandoned")}); err != nil {
		t.Fatal(err)
	}
	commit(t, s)
	if v, _ := s.Graph().NodeProp(s.Resolve(id), "status").AsString(); v != "Connected" {
		t.Error("first staged prop overwritten")
	}
	// ...and existing graph values win over a later session's props.
	s2 := NewSession(s.Graph(), source.NewCatalog(), ontology.Reference{Organization: "T", Name: "t.2"})
	id2, err := s2.NodeWithProps(ontology.AtlasProbe, 42, graph.Props{"status": graph.String("Abandoned")})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, s2)
	if v, _ := s2.Graph().NodeProp(s2.Resolve(id2), "status").AsString(); v != "Connected" {
		t.Error("existing prop overwritten by later session")
	}
}

func TestSessionSetNodePropAndAddLabel(t *testing.T) {
	s := testSession(t)
	as, _ := s.Node(ontology.AS, uint32(2497))
	if err := s.SetNodeProp(as, "hegemony", graph.Float(0.5)); err != nil {
		t.Fatal(err)
	}
	host, _ := s.Node(ontology.HostName, "ns1.example.com")
	if err := s.AddLabel(host, ontology.AuthoritativeNameServer); err != nil {
		t.Fatal(err)
	}
	// Stale handles from another session are rejected at staging time.
	if err := s.SetNodeProp(9999, "x", graph.Int(1)); err == nil {
		t.Error("invalid handle must error")
	}
	commit(t, s)
	g := s.Graph()
	if v, _ := g.NodeProp(s.Resolve(as), "hegemony").AsFloat(); v != 0.5 {
		t.Errorf("hegemony = %v", v)
	}
	if !g.NodeHasLabel(s.Resolve(host), ontology.AuthoritativeNameServer) {
		t.Error("staged label not applied")
	}
}

// --- pipeline ---

type fakeCrawler struct {
	Base
	run func(ctx context.Context, s *Session) error
}

func (f *fakeCrawler) Run(ctx context.Context, s *Session) error { return f.run(ctx, s) }

func TestPipelineRunsAllCrawlersInParallel(t *testing.T) {
	g := graph.New()
	var crawlers []Crawler
	for i := 0; i < 10; i++ {
		asn := uint32(1000 + i)
		crawlers = append(crawlers, &fakeCrawler{
			Base: Base{Org: "T", Name: "t.ds" + string(rune('a'+i))},
			run: func(_ context.Context, s *Session) error {
				id, err := s.Node(ontology.AS, asn)
				if err != nil {
					return err
				}
				name, err := s.NameNode("X")
				if err != nil {
					return err
				}
				return s.Link(ontology.NameRel, id, name, nil)
			},
		})
	}
	p := &Pipeline{Graph: g, Fetcher: source.NewCatalog(), Crawlers: crawlers, Concurrency: 4}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Crawls) != 10 || len(rep.Failed()) != 0 {
		t.Fatalf("report: %d crawls, %d failed", len(rep.Crawls), len(rep.Failed()))
	}
	if got := g.CountByLabel("AS"); got != 10 {
		t.Errorf("AS nodes = %d", got)
	}
	// The shared Name node deduplicated across parallel sessions.
	if got := g.CountByLabel("Name"); got != 1 {
		t.Errorf("Name nodes = %d, want 1", got)
	}
	if !strings.Contains(rep.String(), "t.dsa") {
		t.Error("report table missing dataset names")
	}
}

func TestPipelineIsolatesErrorsAndPanics(t *testing.T) {
	g := graph.New()
	crawlers := []Crawler{
		&fakeCrawler{Base: Base{Org: "T", Name: "t.ok"}, run: func(_ context.Context, s *Session) error {
			_, err := s.Node(ontology.AS, uint32(1))
			return err
		}},
		&fakeCrawler{Base: Base{Org: "T", Name: "t.fails"}, run: func(context.Context, *Session) error {
			return errors.New("feed is down")
		}},
		&fakeCrawler{Base: Base{Org: "T", Name: "t.panics"}, run: func(context.Context, *Session) error {
			panic("malformed data")
		}},
	}
	p := &Pipeline{Graph: g, Fetcher: source.NewCatalog(), Crawlers: crawlers}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	failed := rep.Failed()
	if len(failed) != 2 {
		t.Fatalf("failed = %d, want 2", len(failed))
	}
	// One dataset failing must not abort the others.
	if got := g.CountByLabel("AS"); got != 1 {
		t.Errorf("AS nodes = %d (good crawler should have run)", got)
	}
	for _, f := range failed {
		if f.Err == nil {
			t.Error("failed crawl without error")
		}
		if f.Dataset == "t.panics" && !strings.Contains(f.Err.Error(), "panic") {
			t.Errorf("panic not converted to error: %v", f.Err)
		}
	}
}

func TestPipelineDiscardsWritesOfFailedCrawlers(t *testing.T) {
	// The atomic-commit guarantee: a crawler that errors or panics midway
	// through writing leaves zero nodes, links, or provenance behind.
	g := graph.New()
	writeThenDie := func(die func()) func(context.Context, *Session) error {
		return func(_ context.Context, s *Session) error {
			a, _ := s.Node(ontology.AS, uint32(666))
			p, _ := s.Node(ontology.Prefix, "192.0.2.0/24")
			if err := s.Link(ontology.Originate, a, p, nil); err != nil {
				return err
			}
			die()
			return nil
		}
	}
	crawlers := []Crawler{
		&fakeCrawler{Base: Base{Org: "T", Name: "t.errs"}, run: func(ctx context.Context, s *Session) error {
			if err := writeThenDie(func() {})(ctx, s); err != nil {
				return err
			}
			return errors.New("died after writing half the dataset")
		}},
		&fakeCrawler{Base: Base{Org: "T", Name: "t.panics"}, run: writeThenDie(func() { panic("boom") })},
		&fakeCrawler{Base: Base{Org: "T", Name: "t.ok"}, run: func(_ context.Context, s *Session) error {
			_, err := s.Node(ontology.AS, uint32(1))
			return err
		}},
	}
	p := &Pipeline{Graph: g, Fetcher: source.NewCatalog(), Crawlers: crawlers}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed()) != 2 {
		t.Fatalf("failed = %d, want 2", len(rep.Failed()))
	}
	st := g.Stats()
	if st.Nodes != 1 || st.Rels != 0 {
		t.Errorf("failed crawlers left writes behind: %d nodes, %d rels", st.Nodes, st.Rels)
	}
	if len(g.NodesByProp(ontology.AS, "asn", graph.Int(666))) != 0 {
		t.Error("failed crawler's node survived")
	}
	// Failed crawls report zero writes.
	for _, f := range rep.Failed() {
		if f.NodesCreated != 0 || f.LinksCreated != 0 {
			t.Errorf("%s reports %d nodes, %d links despite failing", f.Dataset, f.NodesCreated, f.LinksCreated)
		}
	}
}

func TestPipelineTimeoutAbandonsHungCrawler(t *testing.T) {
	g := graph.New()
	hungStarted := make(chan struct{})
	crawlers := []Crawler{
		// Worst case: a crawler that ignores its context entirely.
		&fakeCrawler{Base: Base{Org: "T", Name: "t.hung"}, run: func(_ context.Context, s *Session) error {
			_, _ = s.Node(ontology.AS, uint32(666))
			close(hungStarted)
			time.Sleep(500 * time.Millisecond)
			return nil
		}},
		&fakeCrawler{Base: Base{Org: "T", Name: "t.ok"}, run: func(_ context.Context, s *Session) error {
			_, err := s.Node(ontology.AS, uint32(1))
			return err
		}},
	}
	p := &Pipeline{Graph: g, Fetcher: source.NewCatalog(), Crawlers: crawlers, Timeout: 30 * time.Millisecond}
	start := time.Now()
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-hungStarted
	if time.Since(start) > 400*time.Millisecond {
		t.Error("hung crawler stalled the build past its deadline")
	}
	failed := rep.Failed()
	if len(failed) != 1 || failed[0].Dataset != "t.hung" {
		t.Fatalf("failed = %v", failed)
	}
	if !errors.Is(failed[0].Err, ErrCrawlTimeout) {
		t.Errorf("timeout not classified: %v", failed[0].Err)
	}
	// The healthy crawler completed and committed; the hung one's staged
	// writes are gone.
	if got := g.CountByLabel("AS"); got != 1 {
		t.Errorf("AS nodes = %d, want 1", got)
	}
	if len(g.NodesByProp(ontology.AS, "asn", graph.Int(666))) != 0 {
		t.Error("hung crawler's staged write leaked into the graph")
	}
}

func TestPipelineStampsFetchTime(t *testing.T) {
	g := graph.New()
	fixed := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	c := &fakeCrawler{Base: Base{Org: "T", Name: "t.x"}, run: func(_ context.Context, s *Session) error {
		a, _ := s.Node(ontology.AS, uint32(1))
		b, _ := s.Node(ontology.AS, uint32(2))
		return s.Link(ontology.PeersWith, a, b, nil)
	}}
	p := &Pipeline{Graph: g, Fetcher: source.NewCatalog(), Crawlers: []Crawler{c}, FetchTime: fixed}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var found bool
	g.EachRel(func(id graph.RelID) bool {
		if v, _ := g.RelProp(id, ontology.PropReferenceFetch).AsString(); v == "2024-05-01T00:00:00Z" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("fetch time not stamped on relationships")
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Pipeline{Graph: graph.New(), Fetcher: source.NewCatalog(), Crawlers: []Crawler{
		&fakeCrawler{Base: Base{Org: "T", Name: "t.x"}, run: func(context.Context, *Session) error { return nil }},
	}}
	if _, err := p.Run(ctx); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestPipelineCancellationAwaitsLaunchedCrawlers(t *testing.T) {
	// The mid-run cancellation path must wg.Wait() for every launched
	// supervisor before returning — no goroutines left racing on the
	// report slice (the race detector guards this test).
	g := graph.New()
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	var crawlers []Crawler
	for i := 0; i < 8; i++ {
		crawlers = append(crawlers, &fakeCrawler{
			Base: Base{Org: "T", Name: "t.slow" + string(rune('a'+i))},
			run: func(ctx context.Context, s *Session) error {
				once.Do(func() { started.Done() })
				<-ctx.Done()
				return ctx.Err()
			},
		})
	}
	go func() {
		started.Wait()
		cancel()
	}()
	p := &Pipeline{Graph: g, Fetcher: source.NewCatalog(), Crawlers: crawlers, Concurrency: 2}
	rep, err := p.Run(ctx)
	if err == nil {
		t.Error("cancelled run should return the context error")
	}
	// Every recorded crawl belongs to a fully-supervised goroutine.
	for _, c := range rep.Crawls {
		if c.Err == nil {
			t.Errorf("crawler %s reported success under cancellation", c.Dataset)
		}
	}
	if g.NumNodes() != 0 {
		t.Error("cancelled crawlers committed writes")
	}
}

func TestRunIsolated(t *testing.T) {
	s := testSession(t)
	ok := &fakeCrawler{Base: Base{Org: "T", Name: "t.ok"}, run: func(context.Context, *Session) error { return nil }}
	if err := runIsolated(context.Background(), ok, s); err != nil {
		t.Errorf("clean run: %v", err)
	}
	fails := &fakeCrawler{Base: Base{Org: "T", Name: "t.f"}, run: func(context.Context, *Session) error {
		return errors.New("broken feed")
	}}
	if err := runIsolated(context.Background(), fails, s); err == nil || !strings.Contains(err.Error(), "broken feed") {
		t.Errorf("error not propagated: %v", err)
	}
	panics := &fakeCrawler{Base: Base{Org: "T", Name: "t.p"}, run: func(context.Context, *Session) error {
		var m map[string]int
		m["write"] = 1 // real runtime panic, not a panic(string)
		return nil
	}}
	err := runIsolated(context.Background(), panics, s)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("runtime panic not recovered: %v", err)
	}
}

func TestReportFailedAndString(t *testing.T) {
	rep := Report{
		Crawls: []CrawlReport{
			{Dataset: "a.ok", Organization: "A", NodesCreated: 3, LinksCreated: 5, Duration: 12 * time.Millisecond},
			{Dataset: "b.down", Organization: "B", Err: errors.New("503 upstream")},
			{Dataset: "c.ok", Organization: "C", NodesCreated: 1},
		},
		Total:      100 * time.Millisecond,
		Degraded:   true,
		PolicyNote: "degraded: 2/3 datasets ingested",
	}
	failed := rep.Failed()
	if len(failed) != 1 || failed[0].Dataset != "b.down" {
		t.Errorf("Failed() = %v", failed)
	}
	out := rep.String()
	for _, want := range []string{"a.ok", "ERROR: 503 upstream", "total:", "policy: degraded: 2/3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// An all-clean report has no failures and no policy line.
	clean := Report{Crawls: []CrawlReport{{Dataset: "a.ok"}}}
	if len(clean.Failed()) != 0 {
		t.Error("clean report lists failures")
	}
	if strings.Contains(clean.String(), "policy:") {
		t.Error("clean report prints an empty policy line")
	}
}
