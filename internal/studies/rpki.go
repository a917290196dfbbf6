// Package studies reproduces the paper's evaluation on top of the
// knowledge graph: the RiPKI study (§4.1, Table 2), the DNS-robustness
// study (§4.2, Tables 3-4), their extensions (Table 5, §5.1), and the
// SPoF-in-the-DNS-chain analysis (§5.2, Figures 5-6). Every study is a
// handful of IYP queries plus a few lines of aggregation, exactly like the
// paper's Jupyter notebooks.
package studies

import (
	"fmt"
	"strings"

	"iyp/internal/cypher"
	"iyp/internal/graph"
)

// TrancoRankingName is the Ranking node the studies pivot on.
const TrancoRankingName = "Tranco top 1M"

// run executes a query, wrapping errors with the study context.
func run(g *graph.Graph, study, q string, params map[string]graph.Value) (*cypher.Result, error) {
	res, err := cypher.Run(g, q, params)
	if err != nil {
		return nil, fmt.Errorf("studies: %s: %w", study, err)
	}
	return res, nil
}

// str returns the named column of row i as a string; ok is false when the
// value is not one.
func str(res *cypher.Result, i int, col string) (s string, ok bool) {
	v, _ := res.Get(i, col)
	return v.AsString()
}

// rpkiCovered reports whether an IHR ROV tag label means "covered by a
// ROA" (valid or invalid — everything except NotFound).
func rpkiCovered(label string) bool {
	return strings.HasPrefix(label, "RPKI") && label != "RPKI NotFound"
}

// rpkiInvalid reports whether a tag label is one of the two invalid
// states.
func rpkiInvalid(label string) bool {
	return strings.HasPrefix(label, "RPKI Invalid")
}

// RPKIResult is the 2024 column of Table 2, plus the max-length share of
// invalids quoted in §4.1.3.
type RPKIResult struct {
	// TotalPrefixes is the number of distinct prefixes hosting Tranco
	// domains (the denominator of CoveredPct/InvalidPct).
	TotalPrefixes int
	// InvalidPct is the share of prefixes with an RPKI-invalid
	// announcement (paper: 0.12%).
	InvalidPct float64
	// InvalidMaxLenPct is the share of invalids caused by a wrong max
	// length (paper: 75%).
	InvalidMaxLenPct float64
	// CoveredPct is the share of prefixes covered by RPKI (paper: 52.2%).
	CoveredPct float64
	// Top100kPct / Bottom100kPct are coverage for the first and last
	// tenth of the ranking (paper: 55.2% / 61.5%).
	Top100kPct    float64
	Bottom100kPct float64
	// CDNPct is coverage over prefixes originated by
	// 'Content Delivery Network'-tagged ASes hosting Tranco domains
	// (paper: 68.4%).
	CDNPct float64
}

// rpkiChainQuery is the paper's Listing 4 without its rank window: ranked
// domain -> hostname -> OpenINTEL resolution -> covering prefix -> IHR ROV
// tag, one row per distinct (rank, domain, prefix, tag). Table 2's windows
// and CDN column and §5.1.2's domain counts are all folded from its rows.
const rpkiChainQuery = `
MATCH (:Ranking {name:'Tranco top 1M'})-[r:RANK]-(d:DomainName)
MATCH (d)-[:PART_OF]-(h:HostName)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI'
RETURN DISTINCT r.rank AS rank, d.name AS domain, pfx.prefix AS prefix, t.label AS label`

// cdnPrefixQuery returns the prefixes originated by ASes carrying the
// BGP.Tools CDN tag, as in §4.1.3.
const cdnPrefixQuery = `
MATCH (pfx:Prefix)-[:ORIGINATE]-(:AS)-[:CATEGORIZED]-(:Tag {label:'Content Delivery Network'})
RETURN DISTINCT pfx.prefix AS prefix`

// The per-prefix RPKI states a coverage accumulates.
const (
	stCovered uint8 = 1 << iota
	stInvalid
	stInvalidMaxLen
)

// coverage folds (prefix, label) rows into per-prefix RPKI states. A
// prefix counts as covered/invalid if any of its origins is.
type coverage map[string]uint8

func (c coverage) add(prefix, label string) {
	st := c[prefix]
	if rpkiCovered(label) {
		st |= stCovered
	}
	if rpkiInvalid(label) {
		st |= stInvalid
		if label == "RPKI Invalid, more specific" {
			st |= stInvalidMaxLen
		}
	}
	c[prefix] = st
}

// stats returns the number of prefixes, their covered and invalid shares,
// and the share of the invalids caused by a wrong max length.
func (c coverage) stats() (total int, coveredPct, invalidPct, invalidMaxLenPct float64) {
	var covered, invalid, maxLen int
	for _, st := range c {
		if st&stCovered != 0 {
			covered++
		}
		if st&stInvalid != 0 {
			invalid++
		}
		if st&stInvalidMaxLen != 0 {
			maxLen++
		}
	}
	total = len(c)
	return total, pct(covered, total), pct(invalid, total), pct(maxLen, invalid)
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// countTrue returns how many values of m are true.
func countTrue(m map[string]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// trancoSize returns the number of ranked Tranco domains.
func trancoSize(g *graph.Graph) (int, error) {
	res, err := run(g, "tranco-size",
		`MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName) RETURN count(DISTINCT d) AS n`, nil)
	if err != nil {
		return 0, err
	}
	n, err := res.ScalarInt()
	return int(n), err
}

// ripki walks the RiPKI chain once and folds its rows into Table 2 and
// §5.1.2. The "Top 100k" and "Bottom 100k" windows scale to the first and
// last tenth of the simulated list, preserving the paper's 100k-out-of-1M
// proportions; a row whose rank is not a number is in no window. The
// domain-weighted figures take every row, and the CDN figures the rows on
// CDN-originated prefixes.
func ripki(g *graph.Graph) (RPKIResult, DomainWeightedRPKIResult, error) {
	var out RPKIResult
	var dw DomainWeightedRPKIResult
	n, err := trancoSize(g)
	if err != nil {
		return out, dw, err
	}
	cdnRes, err := run(g, "ripki-cdn", cdnPrefixQuery, nil)
	if err != nil {
		return out, dw, err
	}
	cdn := map[string]bool{}
	for i := range cdnRes.Rows {
		if p, ok := str(cdnRes, i, "prefix"); ok {
			cdn[p] = true
		}
	}
	res, err := run(g, "ripki", rpkiChainQuery, nil)
	if err != nil {
		return out, dw, err
	}

	all, top, bottom, cdnCov := coverage{}, coverage{}, coverage{}, coverage{}
	domains, cdnDomains := map[string]bool{}, map[string]bool{}
	topHi, bottomLo := float64(n/10), float64(n-n/10+1)
	for i := range res.Rows {
		domain, _ := str(res, i, "domain")
		prefix, okPrefix := str(res, i, "prefix")
		label, okLabel := str(res, i, "label")
		covered := rpkiCovered(label)
		domains[domain] = domains[domain] || covered
		if cdn[prefix] {
			cdnDomains[domain] = cdnDomains[domain] || covered
		}
		if !okPrefix || !okLabel {
			continue
		}
		if cdn[prefix] {
			cdnCov.add(prefix, label)
		}
		rv, _ := res.Get(i, "rank")
		rank, ranked := rv.AsFloat()
		if !ranked || rank < 1 || rank > float64(n) {
			continue
		}
		all.add(prefix, label)
		if rank <= topHi {
			top.add(prefix, label)
		}
		if rank >= bottomLo {
			bottom.add(prefix, label)
		}
	}

	out.TotalPrefixes, out.CoveredPct, out.InvalidPct, out.InvalidMaxLenPct = all.stats()
	_, out.Top100kPct, _, _ = top.stats()
	_, out.Bottom100kPct, _, _ = bottom.stats()
	_, out.CDNPct, _, _ = cdnCov.stats()
	dw.Domains, dw.CDNDomains = len(domains), len(cdnDomains)
	dw.TrancoPct = pct(countTrue(domains), dw.Domains)
	dw.CDNPct = pct(countTrue(cdnDomains), dw.CDNDomains)
	return out, dw, nil
}

// RPKI reproduces the RiPKI study (Table 2's 2024 row).
func RPKI(g *graph.Graph) (RPKIResult, error) {
	r, _, err := ripki(g)
	return r, err
}

// CategoryCoverage is one row of the §4.1.4 analysis: RPKI coverage of
// prefixes originated by ASes carrying a BGP.Tools tag.
type CategoryCoverage struct {
	Tag        string
	Prefixes   int
	CoveredPct float64
}

// RPKIByCategory reproduces §4.1.4: RPKI deployment per AS classification
// tag (paper: Academic 16%, Government 21%, DDoS Mitigation 76%).
func RPKIByCategory(g *graph.Graph, tags []string) ([]CategoryCoverage, error) {
	const q = `
MATCH (pfx:Prefix)-[:ORIGINATE]-(:AS)-[:CATEGORIZED {reference_name:'bgptools.tags'}]-(:Tag {label:$tag})
MATCH (pfx)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI'
RETURN DISTINCT pfx.prefix AS prefix, t.label AS label`
	var out []CategoryCoverage
	for _, tag := range tags {
		res, err := run(g, "rpki-by-category", q, map[string]graph.Value{"tag": graph.String(tag)})
		if err != nil {
			return nil, err
		}
		cov := coverage{}
		for i := range res.Rows {
			prefix, ok1 := str(res, i, "prefix")
			label, ok2 := str(res, i, "label")
			if ok1 && ok2 {
				cov.add(prefix, label)
			}
		}
		total, covered, _, _ := cov.stats()
		out = append(out, CategoryCoverage{Tag: tag, Prefixes: total, CoveredPct: covered})
	}
	return out, nil
}

// NameserverRPKIResult is §5.1.1: RPKI coverage of the DNS infrastructure.
type NameserverRPKIResult struct {
	// PrefixCoveredPct is the share of nameserver-hosting prefixes
	// covered by RPKI (paper: 48%).
	PrefixCoveredPct float64
	// DomainCoveredPct is the share of Tranco domains served by at least
	// one RPKI-covered nameserver (paper: 84%).
	DomainCoveredPct float64
	// Prefixes and Domains are the respective denominators.
	Prefixes int
	Domains  int
}

// NameserverRPKI reproduces §5.1.1 by swapping the hostname branch of the
// RiPKI query for the MANAGED_BY branch (the paper's description of the
// reused query).
func NameserverRPKI(g *graph.Graph) (NameserverRPKIResult, error) {
	const q = `
MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:MANAGED_BY]-(ns:AuthoritativeNameServer)
MATCH (ns)-[:RESOLVES_TO]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI'
RETURN d.name AS domain, pfx.prefix AS prefix, t.label AS label`
	var out NameserverRPKIResult
	res, err := run(g, "nameserver-rpki", q, nil)
	if err != nil {
		return out, err
	}
	prefixCovered := map[string]bool{}
	domainCovered := map[string]bool{}
	for i := range res.Rows {
		domain, _ := str(res, i, "domain")
		prefix, _ := str(res, i, "prefix")
		label, _ := str(res, i, "label")
		cov := rpkiCovered(label)
		prefixCovered[prefix] = prefixCovered[prefix] || cov
		domainCovered[domain] = domainCovered[domain] || cov
	}
	out.Prefixes = len(prefixCovered)
	out.Domains = len(domainCovered)
	out.PrefixCoveredPct = pct(countTrue(prefixCovered), out.Prefixes)
	out.DomainCoveredPct = pct(countTrue(domainCovered), out.Domains)
	return out, nil
}

// DomainWeightedRPKIResult is §5.1.2: counting domains instead of
// prefixes.
type DomainWeightedRPKIResult struct {
	// TrancoPct is the share of Tranco domains hosted on RPKI-covered
	// prefixes (paper: 78.8% vs 52.2% prefix-weighted).
	TrancoPct float64
	// CDNPct is the same over CDN-hosted domains (paper: 96% vs 68.4%).
	CDNPct float64
	// Domains / CDNDomains are the denominators.
	Domains    int
	CDNDomains int
}

// DomainWeightedRPKI reproduces §5.1.2: the RiPKI chain, counting domains
// instead of prefixes.
func DomainWeightedRPKI(g *graph.Graph) (DomainWeightedRPKIResult, error) {
	_, dw, err := ripki(g)
	return dw, err
}
