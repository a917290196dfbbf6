package iyp_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record). Each benchmark runs the exact study behind
// one table/figure against a shared knowledge graph and reports the
// headline statistic as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end. Absolute values are measured on
// the calibrated synthetic Internet (see internal/simnet); the shapes —
// who wins, by what factor, where the crossovers sit — mirror the paper.

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"iyp"
	"iyp/internal/graph"
	"iyp/internal/simnet"
	"iyp/internal/studies"
)

// benchScale controls the benchmark graph: 0.25 ≈ 5k ranked domains, 750
// ASes. The paper's instance holds the real top-1M; scale up with
// -benchtime if you want the full-size run.
const benchScale = 0.25

var (
	benchOnce sync.Once
	benchDB   *iyp.DB
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	benchOnce.Do(func() {
		db, err := iyp.Build(context.Background(), iyp.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		benchDB = db
	})
	return benchDB.Graph()
}

// --- E12/E13: the knowledge-graph construction itself (paper §3.1) ---

// BenchmarkFullBuild measures the complete pipeline: simulate, render 47
// datasets, crawl them all, refine. The paper builds its 1M-scale instance
// four times a month; this is the reproduction's equivalent.
func BenchmarkFullBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db, err := iyp.Build(context.Background(), iyp.Options{Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		if len(db.Report.Crawls) != 47 {
			b.Fatalf("crawls = %d", len(db.Report.Crawls))
		}
	}
}

// BenchmarkSnapshotSaveLoad measures the weekly-dump distribution path.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	g := benchGraph(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.snapshot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		if _, err := graph.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: Figure 3 / Listings 1-3 — semantic search patterns ---

func BenchmarkListing1_OriginatingASes(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := benchDB.Query(context.Background(), `MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn`)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	_ = g
	b.ReportMetric(float64(rows), "ases")
}

func BenchmarkListing2_MOAS(b *testing.B) {
	benchGraph(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := benchDB.Query(context.Background(), `
MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
WHERE x.asn <> y.asn
RETURN DISTINCT p.prefix`)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	b.ReportMetric(float64(rows), "moas_prefixes")
}

func BenchmarkListing3_BranchingPattern(b *testing.B) {
	benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := benchDB.Query(context.Background(), `
MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
WHERE org.name STARTS WITH 'ORG-US'
MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
RETURN DISTINCT h.name`)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// listing4Query is the RiPKI study's Listing 4 text (the chain
// rpkiChainQuery in internal/studies/rpki.go walks): ranked domains in a
// rank window, through their hostnames' OpenINTEL resolutions to covering
// prefixes and their RPKI tags. TestPaperListingsVerbatim pins its rows
// and their order over the top tenth.
const listing4Query = `
MATCH (:Ranking {name:'Tranco top 1M'})-[r:RANK]-(d:DomainName)
WHERE r.rank >= $lo AND r.rank <= $hi
MATCH (d)-[:PART_OF]-(h:HostName)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI'
RETURN DISTINCT pfx.prefix AS prefix, t.label AS label`

// listing4TopTenth returns the parameters of Listing 4's "Top 100k" window:
// the first tenth of db's ranking, as studies.RPKI computes it.
func listing4TopTenth(tb testing.TB, db *iyp.DB) iyp.QueryOption {
	tb.Helper()
	res, err := db.Query(context.Background(),
		`MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName) RETURN count(DISTINCT d) AS n`)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := res.ScalarInt()
	if err != nil {
		tb.Fatal(err)
	}
	return iyp.WithParams(map[string]iyp.Value{"lo": iyp.IntValue(1), "hi": iyp.IntValue(n / 10)})
}

// BenchmarkListing4_RPKIWindow runs Listing 4 over the top tenth of the
// ranking — the query behind Table 2's "Top 100k" column — and reports its
// allocations, which the executor's row and key handling dominate.
func BenchmarkListing4_RPKIWindow(b *testing.B) {
	benchGraph(b)
	window := listing4TopTenth(b, benchDB)
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := benchDB.Query(context.Background(), listing4Query, window)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	b.ReportMetric(float64(rows), "prefix_tags")
}

// --- E1: Table 2 — the RiPKI reproduction ---

func BenchmarkTable2_RPKIReproduction(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.RPKIResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.RPKI(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CoveredPct, "covered_pct")       // paper 2024: 52.2
	b.ReportMetric(r.InvalidPct, "invalid_pct")       // paper 2024: 0.12
	b.ReportMetric(r.Top100kPct, "top100k_pct")       // paper 2024: 55.2
	b.ReportMetric(r.Bottom100kPct, "bottom100k_pct") // paper 2024: 61.5
	b.ReportMetric(r.CDNPct, "cdn_pct")               // paper 2024: 68.4
}

// --- E2: §4.1.4 — RPKI by AS classification ---

func BenchmarkSection41_RPKIByCategory(b *testing.B) {
	g := benchGraph(b)
	tags := []string{"Academic", "Government", "DDoS Mitigation", "Content Delivery Network"}
	b.ResetTimer()
	var cats []studies.CategoryCoverage
	for i := 0; i < b.N; i++ {
		var err error
		if cats, err = studies.RPKIByCategory(g, tags); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cats {
		switch c.Tag {
		case "Academic":
			b.ReportMetric(c.CoveredPct, "academic_pct") // paper: 16
		case "Government":
			b.ReportMetric(c.CoveredPct, "government_pct") // paper: 21
		case "DDoS Mitigation":
			b.ReportMetric(c.CoveredPct, "ddos_pct") // paper: 76
		}
	}
}

// --- E6: §5.1.1 — RPKI coverage of the DNS infrastructure ---

func BenchmarkSection51_NameserverRPKI(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.NameserverRPKIResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.NameserverRPKI(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PrefixCoveredPct, "ns_prefix_pct") // paper: 48
	b.ReportMetric(r.DomainCoveredPct, "ns_domain_pct") // paper: 84
}

// --- E7: §5.1.2 — domain-weighted RPKI coverage ---

func BenchmarkSection51_DomainWeightedRPKI(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.DomainWeightedRPKIResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.DomainWeightedRPKI(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TrancoPct, "tranco_pct") // paper: 78.8
	b.ReportMetric(r.CDNPct, "cdn_pct")       // paper: 96
}

// --- E3: Table 3 — DNS best practice ---

func BenchmarkTable3_DNSBestPractice(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.DNSBestPracticeResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.DNSBestPractice(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CoveragePct, "coverage_pct")   // paper: 49
	b.ReportMetric(r.DiscardedPct, "discarded_pct") // paper: 10
	b.ReportMetric(r.MeetPct, "meet_pct")           // paper: 18
	b.ReportMetric(r.ExceedPct, "exceed_pct")       // paper: 67
	b.ReportMetric(r.NotMeetPct, "notmeet_pct")     // paper: 4
	b.ReportMetric(r.InZoneGluePct, "inzone_pct")   // paper: 76
}

// --- E4: Table 4 — shared DNS infrastructure ---

func BenchmarkTable4_SharedInfrastructure(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.SharedInfraResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.SharedInfrastructure(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ByNS.MedianGroupSize), "ns_median")       // paper 2024 @1M: 9
	b.ReportMetric(float64(r.ByNS.MaxGroupSize), "ns_max")             // paper 2024 @1M: 6k
	b.ReportMetric(float64(r.BySlash24.MedianGroupSize), "s24_median") // paper 2024 @1M: 3.9k
	b.ReportMetric(float64(r.BySlash24.MaxGroupSize), "s24_max")       // paper 2024 @1M: 114k
}

// --- E5: Table 5 — shared infrastructure extensions ---

func BenchmarkTable5_SharedInfraExtended(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.SharedInfraResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.SharedInfrastructure(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ByBGPPrefix.MedianGroupSize), "bgp_median")     // paper @1M: 4.1k
	b.ReportMetric(float64(r.ByBGPPrefix.MaxGroupSize), "bgp_max")           // paper @1M: 114k
	b.ReportMetric(float64(r.AllByNS.MaxGroupSize), "all_ns_max")            // paper @1M: 25k
	b.ReportMetric(float64(r.AllByBGPPrefix.MaxGroupSize), "all_prefix_max") // paper @1M: 187k
}

// --- E8/E9: Figures 5 and 6 — SPoF in the DNS chain ---

func BenchmarkFigure5_CountrySPoF(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.SPoFResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.SPoF(g, studies.TrancoRankingName, "country", 10); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range r.Entries {
		if e.Key == "US" {
			b.ReportMetric(float64(e.ThirdParty), "us_thirdparty")
			b.ReportMetric(float64(e.Direct), "us_direct")
		}
	}
	b.ReportMetric(float64(r.Domains), "domains")
}

func BenchmarkFigure6_ASSPoF(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.SPoFResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.SPoF(g, studies.TrancoRankingName, "AS", 10); err != nil {
			b.Fatal(err)
		}
	}
	if len(r.Entries) > 0 {
		b.ReportMetric(float64(r.Entries[0].Total()), "top_as_domains")
	}
}

// --- E11: Figure 4 — the sneak-peek neighbourhood walk ---

func BenchmarkFigure4_SneakPeek(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.SneakPeekResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.SneakPeek(g, 1, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Datasets)), "datasets") // paper: 13
}

// --- ablations: design choices called out in DESIGN.md ---

// BenchmarkAblation_IndexedVsScanLookup quantifies the identity-index
// decision: MATCH by indexed identity property vs a label scan with a
// WHERE filter.
func BenchmarkAblation_IndexedVsScanLookup(b *testing.B) {
	benchGraph(b)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchDB.Query(context.Background(), `MATCH (x:AS {asn: 1001}) RETURN x.asn`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The inequality forces the planner off the equality index.
			if _, err := benchDB.Query(context.Background(), `MATCH (x:AS) WHERE x.asn >= 1001 AND x.asn <= 1001 RETURN x.asn`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_HTTPVsInProcessFetch quantifies the UseHTTP option:
// dataset fetching over a localhost HTTP server vs in-process.
func BenchmarkAblation_HTTPVsInProcessFetch(b *testing.B) {
	cfg := simnet.DefaultConfig().Scale(0.02)
	b.Run("inprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := iyp.Build(context.Background(), iyp.Options{Config: cfg}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := iyp.Build(context.Background(), iyp.Options{Config: cfg, UseHTTP: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E14: §6.1 — dataset comparison ---

// BenchmarkSection61_DatasetComparison diffs the BGPKIT originations
// against IHR's ROV origins, the workflow that exposed a real IPv6 bug in
// the live BGPKIT feed.
func BenchmarkSection61_DatasetComparison(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var r studies.ComparisonResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = studies.CompareOriginDatasets(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.PrefixesCompared), "prefixes_compared")
	b.ReportMetric(float64(len(r.Discrepancies)), "discrepancies")
}

// --- E15: Table 2, first row — the generated 2015 baseline ---

// BenchmarkTable2_2015Baseline rebuilds the Internet with 2015-calibrated
// RPKI deployment and re-runs the RiPKI study, generating Table 2's first
// row instead of quoting it.
func BenchmarkTable2_2015Baseline(b *testing.B) {
	var r studies.RPKIResult
	for i := 0; i < b.N; i++ {
		db, err := iyp.Build(context.Background(), iyp.Options{
			Config: simnet.Config2015().Scale(0.1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if r, err = studies.RPKI(db.Graph()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CoveredPct, "covered_pct") // RiPKI 2015: 6
	b.ReportMetric(r.CDNPct, "cdn_pct")         // RiPKI 2015: 0.9
}
