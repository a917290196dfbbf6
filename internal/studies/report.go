package studies

import (
	"fmt"
	"strings"

	"iyp/internal/graph"
)

// Paper2024 holds the paper's published 2024-side numbers, for
// side-by-side comparison in reports and EXPERIMENTS.md.
var Paper2024 = struct {
	RPKI           RPKIResult
	NameserverRPKI NameserverRPKIResult
	DomainWeighted DomainWeightedRPKIResult
	BestPractice   DNSBestPracticeResult
}{
	RPKI: RPKIResult{
		InvalidPct: 0.12, InvalidMaxLenPct: 75, CoveredPct: 52.2,
		Top100kPct: 55.2, Bottom100kPct: 61.5, CDNPct: 68.4,
	},
	NameserverRPKI: NameserverRPKIResult{PrefixCoveredPct: 48, DomainCoveredPct: 84},
	DomainWeighted: DomainWeightedRPKIResult{TrancoPct: 78.8, CDNPct: 96},
	BestPractice: DNSBestPracticeResult{
		CoveragePct: 49, DiscardedPct: 10, MeetPct: 18, ExceedPct: 67,
		NotMeetPct: 4, InZoneGluePct: 76,
	},
}

// Paper2015RiPKI holds the original RiPKI (2015) numbers from Table 2.
var Paper2015RiPKI = RPKIResult{
	InvalidPct: 0.09, CoveredPct: 6, Top100kPct: 4, Bottom100kPct: 5.5, CDNPct: 0.9,
}

// Report runs every study and renders the paper's tables and figures as
// text, with the paper's values alongside for comparison.
type Report struct {
	RPKI           RPKIResult
	Categories     []CategoryCoverage
	NameserverRPKI NameserverRPKIResult
	DomainWeighted DomainWeightedRPKIResult
	BestPractice   DNSBestPracticeResult
	SharedInfra    SharedInfraResult
	CountrySPoF    SPoFResult
	ASSPoF         SPoFResult
	Comparison     ComparisonResult
}

// RunAll executes all studies against the graph.
func RunAll(g *graph.Graph) (*Report, error) {
	var (
		r   Report
		err error
	)
	if r.RPKI, r.DomainWeighted, err = ripki(g); err != nil {
		return nil, err
	}
	tags := []string{"Academic", "Government", "DDoS Mitigation", "Content Delivery Network"}
	if r.Categories, err = RPKIByCategory(g, tags); err != nil {
		return nil, err
	}
	if r.NameserverRPKI, err = NameserverRPKI(g); err != nil {
		return nil, err
	}
	if r.BestPractice, err = DNSBestPractice(g); err != nil {
		return nil, err
	}
	if r.SharedInfra, err = SharedInfrastructure(g); err != nil {
		return nil, err
	}
	if r.CountrySPoF, err = SPoF(g, TrancoRankingName, "country", 10); err != nil {
		return nil, err
	}
	if r.ASSPoF, err = SPoF(g, TrancoRankingName, "AS", 10); err != nil {
		return nil, err
	}
	if r.Comparison, err = CompareOriginDatasets(g); err != nil {
		return nil, err
	}
	return &r, nil
}

// String renders every table and figure.
func (r *Report) String() string {
	var sb strings.Builder

	sb.WriteString("== Table 2: RiPKI reproduction (RPKI status of prefixes hosting Tranco domains) ==\n")
	fmt.Fprintf(&sb, "%-22s %10s %10s %10s %12s %8s\n", "", "Invalid", "Covered", "Top 100k", "Bottom 100k", "CDN")
	p15 := Paper2015RiPKI
	fmt.Fprintf(&sb, "%-22s %9.2f%% %9.1f%% %9.1f%% %11.1f%% %7.1f%%\n", "RiPKI (2015, paper)",
		p15.InvalidPct, p15.CoveredPct, p15.Top100kPct, p15.Bottom100kPct, p15.CDNPct)
	p24 := Paper2024.RPKI
	fmt.Fprintf(&sb, "%-22s %9.2f%% %9.1f%% %9.1f%% %11.1f%% %7.1f%%\n", "IYP (2024, paper)",
		p24.InvalidPct, p24.CoveredPct, p24.Top100kPct, p24.Bottom100kPct, p24.CDNPct)
	fmt.Fprintf(&sb, "%-22s %9.2f%% %9.1f%% %9.1f%% %11.1f%% %7.1f%%\n", "this reproduction",
		r.RPKI.InvalidPct, r.RPKI.CoveredPct, r.RPKI.Top100kPct, r.RPKI.Bottom100kPct, r.RPKI.CDNPct)
	fmt.Fprintf(&sb, "invalids due to max-length: %.0f%% (paper: 75%%); distinct prefixes: %d\n\n",
		r.RPKI.InvalidMaxLenPct, r.RPKI.TotalPrefixes)

	sb.WriteString("== §4.1.4: RPKI coverage by BGP.Tools AS category ==\n")
	fmt.Fprintf(&sb, "%-28s %10s %10s\n", "category", "prefixes", "covered")
	for _, c := range r.Categories {
		fmt.Fprintf(&sb, "%-28s %10d %9.1f%%\n", c.Tag, c.Prefixes, c.CoveredPct)
	}
	sb.WriteString("(paper: Academic 16%, Government 21%, DDoS Mitigation 76%)\n\n")

	sb.WriteString("== §5.1.1: RPKI coverage of the DNS infrastructure ==\n")
	fmt.Fprintf(&sb, "nameserver prefixes covered: %.1f%% of %d (paper: 48%%)\n",
		r.NameserverRPKI.PrefixCoveredPct, r.NameserverRPKI.Prefixes)
	fmt.Fprintf(&sb, "domains behind covered nameservers: %.1f%% of %d (paper: 84%%)\n\n",
		r.NameserverRPKI.DomainCoveredPct, r.NameserverRPKI.Domains)

	sb.WriteString("== §5.1.2: domain-weighted RPKI coverage ==\n")
	fmt.Fprintf(&sb, "Tranco domains on covered prefixes: %.1f%% of %d (paper: 78.8%% vs 52.2%% prefix-weighted)\n",
		r.DomainWeighted.TrancoPct, r.DomainWeighted.Domains)
	fmt.Fprintf(&sb, "CDN-hosted domains on covered prefixes: %.1f%% of %d (paper: 96%% vs 68.4%%)\n\n",
		r.DomainWeighted.CDNPct, r.DomainWeighted.CDNDomains)

	sb.WriteString("== Table 3: DNS best practice (.com/.net/.org) ==\n")
	fmt.Fprintf(&sb, "%-22s %9s %10s %6s %7s %9s %8s\n", "", "coverage", "discarded", "meet", "exceed", "not meet", "in-zone")
	bp := Paper2024.BestPractice
	fmt.Fprintf(&sb, "%-22s %8.0f%% %9.0f%% %5.0f%% %6.0f%% %8.0f%% %7.0f%%\n", "IYP (2024, paper)",
		bp.CoveragePct, bp.DiscardedPct, bp.MeetPct, bp.ExceedPct, bp.NotMeetPct, bp.InZoneGluePct)
	fmt.Fprintf(&sb, "%-22s %8.1f%% %9.1f%% %5.1f%% %6.1f%% %8.1f%% %7.1f%%\n", "this reproduction",
		r.BestPractice.CoveragePct, r.BestPractice.DiscardedPct, r.BestPractice.MeetPct,
		r.BestPractice.ExceedPct, r.BestPractice.NotMeetPct, r.BestPractice.InZoneGluePct)
	sb.WriteByte('\n')

	sb.WriteString("== Table 4/5: DNS shared infrastructure (group sizes) ==\n")
	fmt.Fprintf(&sb, "%-44s %8s %8s\n", "grouping", "median", "max")
	rows := []struct {
		name string
		st   GroupStats
	}{
		{".com/.net/.org grouped by NS set", r.SharedInfra.ByNS},
		{".com/.net/.org grouped by /24", r.SharedInfra.BySlash24},
		{".com/.net/.org grouped by BGP prefix", r.SharedInfra.ByBGPPrefix},
		{"all Tranco grouped by NS set", r.SharedInfra.AllByNS},
		{"all Tranco grouped by BGP prefix", r.SharedInfra.AllByBGPPrefix},
	}
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-44s %8d %8d\n", row.name, row.st.MedianGroupSize, row.st.MaxGroupSize)
	}
	sb.WriteString("(paper 2024, at 1M scale: NS 9/6k, /24 3.9k/114k, BGP prefix 4.1k/114k, all-NS 15/25k, all-prefix 6k/187k)\n\n")

	sb.WriteString(spofTable("Figure 5: country-based SPoF in the DNS chain", r.CountrySPoF))
	sb.WriteString("(paper: third-party concentrated on US; hierarchical led by ccTLD countries RU/CN/GB)\n\n")
	sb.WriteString(spofTable("Figure 6: AS-based SPoF in the DNS chain", r.ASSPoF))
	sb.WriteString("(paper: infrastructure operators mostly third-party; registrar DNS mostly direct)\n\n")

	sb.WriteString("== §6.1: dataset comparison (bgpkit.pfx2asn vs ihr.rov origins) ==\n")
	sb.WriteString(r.Comparison.String())
	sb.WriteString("(paper: this workflow exposed a real IPv6 origin bug in the BGPKIT feed)\n")
	return sb.String()
}

func spofTable(title string, r SPoFResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s (%s, %d domains) ==\n", title, r.List, r.Domains)
	fmt.Fprintf(&sb, "%-36s %8s %12s %14s\n", r.Level, "direct", "third-party", "hierarchical")
	for _, e := range r.Entries {
		fmt.Fprintf(&sb, "%-36s %8d %12d %14d\n", e.Key, e.Direct, e.ThirdParty, e.Hierarchical)
	}
	return sb.String()
}
