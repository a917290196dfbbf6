package simnet

import (
	"fmt"
	"net/netip"
	"sort"
)

// ccTLDWeights spreads the non-gTLD share of the domain list over
// country-code TLDs. Russia, China and the UK lead, which is what produces
// the hierarchical-dependency concentration of Figure 5.
var ccTLDWeights = []struct {
	TLD     string
	Country string
	Weight  float64
}{
	{"ru", "RU", 0.14}, {"cn", "CN", 0.12}, {"uk", "GB", 0.11},
	{"de", "DE", 0.09}, {"jp", "JP", 0.07}, {"fr", "FR", 0.06},
	{"br", "BR", 0.05}, {"in", "IN", 0.05}, {"nl", "NL", 0.04},
	{"pl", "PL", 0.04}, {"it", "IT", 0.03}, {"es", "ES", 0.03},
	{"ua", "UA", 0.03}, {"tr", "TR", 0.03}, {"se", "SE", 0.02},
	{"ch", "CH", 0.02}, {"au", "AU", 0.02}, {"kr", "KR", 0.02},
	{"ca", "CA", 0.02}, {"mx", "MX", 0.01},
}

func (g *generator) genTLDs() {
	registries := g.byCategory[CatRegistry]
	if len(registries) == 0 {
		registries = g.in.ASes[:1]
	}
	// One registry operator per country: assigned once, never reused for
	// another country (a TLD's hierarchical dependency must be stable).
	assigned := map[string]*AS{}
	used := map[*AS]bool{}
	ri := 0
	nextRegistry := func(cc string) *AS {
		if a, ok := assigned[cc]; ok {
			return a
		}
		// Prefer an unused registry AS already in the right country.
		var pick *AS
		for _, a := range registries {
			if !used[a] && a.Country == cc {
				pick = a
				break
			}
		}
		// Otherwise repatriate the next unused registry AS.
		if pick == nil {
			for ; ri < len(registries); ri++ {
				if !used[registries[ri]] {
					pick = registries[ri]
					break
				}
			}
		}
		// Registry pool exhausted (tiny configs): promote a government
		// or enterprise AS from that country, else any unused AS.
		if pick == nil {
			for _, pool := range []string{CatGovernment, CatEnterprise, CatISP} {
				for _, a := range g.byCategory[pool] {
					if !used[a] && (a.Country == cc || pick == nil) {
						pick = a
						if a.Country == cc {
							break
						}
					}
				}
				if pick != nil && pick.Country == cc {
					break
				}
			}
		}
		if pick == nil {
			pick = registries[0] // degenerate fallback
		}
		pick.Country = cc
		pick.RIR = rirForCountry(cc)
		used[pick] = true
		assigned[cc] = pick
		return pick
	}

	// Generic TLDs operated from the US.
	gtlds := make([]string, 0, len(g.cfg.DNS.TLDShares))
	for t := range g.cfg.DNS.TLDShares {
		gtlds = append(gtlds, t)
	}
	sort.Strings(gtlds)
	for _, t := range gtlds {
		g.in.TLDs = append(g.in.TLDs, &TLD{
			Name: t, CC: false, Country: "US", RegistryAS: nextRegistry("US"),
		})
	}
	for _, cw := range ccTLDWeights {
		g.in.TLDs = append(g.in.TLDs, &TLD{
			Name: cw.TLD, CC: true, Country: cw.Country,
			RegistryAS: nextRegistry(cw.Country),
		})
	}
}

func (g *generator) tldByName(name string) *TLD {
	for _, t := range g.in.TLDs {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// --- nameserver providers ---

func isComNetOrg(tld string) bool { return tld == "com" || tld == "net" || tld == "org" }

func (g *generator) genNSProviders() {
	dnsASes := append([]*AS(nil), g.byCategory[CatDNS]...)
	dnsASes = append(dnsASes, g.byCategory[CatHosting]...)
	dnsASes = append(dnsASes, g.byCategory[CatCloud]...)
	if len(dnsASes) == 0 {
		dnsASes = g.in.ASes
	}

	n := g.cfg.NumNSProviders
	managed := int(0.45 * float64(g.cfg.NumDomains))
	sizes := g.r.zipfSizes(managed, n, 1.25)
	groupTarget := max(8, int(0.006*float64(g.cfg.NumDomains)))

	// Zone TLDs are assigned against a domain-weighted quota: ~30% of
	// managed domains must sit behind out-of-zone (.io) nameservers so the
	// in-zone glue share of Table 3 lands near the calibrated 76%.
	var cumAll, cumIo int
	for i := 0; i < n; i++ {
		a := dnsASes[i%len(dnsASes)]
		zoneTLD := "com"
		cumAll += sizes[i]
		if float64(cumIo+sizes[i]) < 0.45*float64(cumAll) {
			zoneTLD = "io"
			cumIo += sizes[i]
		} else if g.r.bernoulli(0.12) {
			zoneTLD = "net"
		} else if g.r.bernoulli(0.12) {
			zoneTLD = "org"
		}
		p := &NSProvider{
			ID:      i + 1,
			Name:    fmt.Sprintf("dnsprov%d", i+1),
			Org:     a.Org,
			AS:      a,
			Zone:    fmt.Sprintf("dnsprov%d.%s", i+1, zoneTLD),
			ZoneTLD: zoneTLD,
		}
		// Nameserver-prefix RPKI coverage with a popularity bias: the
		// biggest providers (lowest index = largest Zipf share) are
		// covered, the tail mostly is not. Prefix-level coverage lands
		// near cfg.DNS.NSRPKICoverage while domain-level coverage is
		// much higher (paper §5.1.1: 48% vs 84%).
		// Band probabilities scale with the configured nameserver-prefix
		// coverage (0.48 reproduces the paper's 2024 stratification; a
		// 2015-calibrated config shrinks all bands proportionally).
		nsCov := g.cfg.DNS.NSRPKICoverage
		var wantCovered bool
		switch {
		case i < n*32/100:
			wantCovered = g.r.bernoulli(min(1, nsCov/0.48))
		case i < n*70/100:
			wantCovered = g.r.bernoulli(nsCov * 0.62)
		default:
			wantCovered = g.r.bernoulli(nsCov * 0.31)
		}

		// Carve this provider's nameserver hosting prefixes out of its
		// AS's address space (up to 3 v4, 1 v6). The AS's first three v4
		// prefixes are skipped when possible: they belong to the
		// customer-nameserver pool stratified separately in genRPKI.
		var v4all, v6pool []*Prefix
		for _, pf := range a.Prefixes {
			if pf.AF == 4 {
				v4all = append(v4all, pf)
			}
			if pf.AF == 6 && len(v6pool) < 1 {
				v6pool = append(v6pool, pf)
			}
		}
		// Take the AS's *last* v4 prefixes: the first three belong to the
		// customer-nameserver pool and the low-index content prefixes to
		// web hosting, both stratified separately in genRPKI.
		v4pool := v4all
		if len(v4pool) > 3 {
			v4pool = v4pool[len(v4pool)-3:]
		}
		for _, pf := range append(append([]*Prefix(nil), v4pool...), v6pool...) {
			forceRPKI(pf, wantCovered)
		}

		nVariants := len(v4pool)
		if sizes[i] > 0 {
			nVariants = clampInt(sizes[i]/groupTarget, 1, 400)
		}
		for v := 0; v < nVariants; v++ {
			// Variant size drives the best-practice buckets of Table 3:
			// 1 NS (not meet), 2 NS (meet), 3+ (exceed).
			nServers := g.sampleNSCount()
			variant := &NSVariant{}
			for s := 0; s < nServers; s++ {
				// Slot-indexed prefix choice plus /24-wrapped addresses
				// keep the whole provider inside a handful of /24s, the
				// consolidation signature Table 4's grouping measures.
				vp := v4pool[s%max(len(v4pool), 1)]
				ns := &Nameserver{
					Name:     fmt.Sprintf("ns%d-%02d.%s", s+1, v+1, p.Zone),
					IPv4:     nsIP(vp),
					V4Prefix: vp,
					Provider: p,
				}
				if len(v6pool) > 0 {
					ns.IPv6 = v6pool[0].NextHostIP()
					ns.V6Prefix = v6pool[0]
				}
				variant.Servers = append(variant.Servers, ns)
			}
			p.Variants = append(p.Variants, variant)
		}
		g.in.NSProviders = append(g.in.NSProviders, p)
	}
	// Third-party dependency chains: the second provider (an
	// Akamai-like infrastructure operator) hosts the zones of roughly a
	// third of the other providers. Providers 0 and 1 self-host.
	if len(g.in.NSProviders) > 2 {
		infra := g.in.NSProviders[1]
		for _, p := range g.in.NSProviders[2:] {
			if g.r.bernoulli(0.35) {
				p.ThirdParty = infra
			}
		}
	}
}

// sampleNSCount draws a nameserver-set size matching the calibrated
// meet/exceed/not-meet shares (normalized over kept domains).
func (g *generator) sampleNSCount() int {
	d := g.cfg.DNS
	kept := 1 - d.DiscardedShare
	x := g.r.Float64() * kept
	switch {
	case x < d.NotMeetShare:
		return 1
	case x < d.NotMeetShare+d.MeetShare:
		return 2
	default:
		return g.r.intBetween(3, 7)
	}
}

// forceRPKI overrides a prefix's ROA state (used to stratify nameserver
// hosting prefixes after genRPKI's category-level pass).
func forceRPKI(p *Prefix, covered bool) {
	if covered {
		if p.ROA == nil {
			pp := netip.MustParsePrefix(p.CIDR)
			p.ROA = &ROA{Prefix: p.CIDR, ASN: p.Origin.ASN, MaxLength: pp.Bits()}
		}
		if p.RPKIStatus != RPKIInvalid && p.RPKIStatus != RPKIInvalidMoreSpecific {
			p.RPKIStatus = RPKIValid
		}
		return
	}
	p.ROA = nil
	p.RPKIStatus = RPKINotFound
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// --- domains ---

// hostBand describes hosting-category shares for a popularity band. The
// asymmetry between top and bottom is what reproduces Table 2's
// counter-intuitive result: bottom-100k prefixes have better RPKI coverage
// than top-100k prefixes, because top domains often sit on dedicated
// enterprise space with poor coverage, while their CDN-hosted share
// concentrates on few (well-covered) prefixes.
type hostBand struct {
	cats    []string
	weights []float64
}

var (
	topBand = hostBand{
		cats:    []string{CatCDN, CatCloud, CatHosting, CatEnterprise, CatISP},
		weights: []float64{0.30, 0.12, 0.13, 0.35, 0.10},
	}
	midBand = hostBand{
		cats:    []string{CatCDN, CatCloud, CatHosting, CatEnterprise, CatISP, CatAcademic, CatGovernment},
		weights: []float64{0.22, 0.28, 0.35, 0.05, 0.06, 0.02, 0.02},
	}
	bottomBand = hostBand{
		cats:    []string{CatCDN, CatCloud, CatHosting, CatEnterprise, CatISP, CatAcademic, CatGovernment},
		weights: []float64{0.05, 0.25, 0.52, 0.05, 0.09, 0.02, 0.02},
	}
)

func (g *generator) genDomains() {
	n := g.cfg.NumDomains

	// TLD assignment honoring configured shares; remainder spreads over
	// ccTLDs by weight.
	tldList := g.tldAssignment(n)

	// Managed-provider assignment pool: sizes were fixed in
	// genNSProviders; rebuild the same Zipf split and shuffle so
	// provider size correlates only weakly with rank.
	managed := int(0.45 * float64(n))
	provSizes := g.r.zipfSizes(managed, len(g.in.NSProviders), 1.25)
	var provPool []*NSProvider
	for i, s := range provSizes {
		for j := 0; j < s; j++ {
			provPool = append(provPool, g.in.NSProviders[i])
		}
	}
	g.r.Shuffle(len(provPool), func(i, j int) { provPool[i], provPool[j] = provPool[j], provPool[i] })

	// Reseller NS sets for "hosted-unique" domains that share a small
	// default set, keyed per hosting AS.
	resellerSets := map[uint32][]*NSVariant{}

	hostingASes := g.byCategory[CatHosting]
	if len(hostingASes) == 0 {
		hostingASes = g.in.ASes
	}

	provIdx := 0
	for i := 0; i < n; i++ {
		tld := tldList[i]
		d := &Domain{
			Name: fmt.Sprintf("%s%d.%s", domainWord(g.r), i+1, tld.Name),
			TLD:  tld,
			Rank: i + 1,
		}
		g.assignHosting(d, i, n)

		// Glue: a share of com/net/org domains has no usable glue and
		// lands in the study's "discarded" bucket; other TLDs rarely.
		noGlueP := 0.05
		if isComNetOrg(tld.Name) {
			noGlueP = g.cfg.DNS.DiscardedShare
		}
		if g.r.bernoulli(noGlueP) {
			d.HasGlue = false
			g.in.Domains = append(g.in.Domains, d)
			continue
		}
		d.HasGlue = true

		// Nameserver deployment mode.
		mode := g.r.Float64()
		switch {
		case mode < 0.45 && provIdx < len(provPool):
			// Managed-DNS provider.
			p := provPool[provIdx]
			provIdx++
			d.Provider = p
			v := p.Variants[g.r.Intn(len(p.Variants))]
			d.NS = v.Servers
			d.InZoneGlue = isComNetOrg(p.ZoneTLD)
		case mode < 0.88:
			// Hosted-unique: nameservers named per customer but living
			// in a hosting provider's address space.
			host := hostingASes[g.r.powerLawInt(0, len(hostingASes)-1, 1.3)]
			if g.r.bernoulli(0.4) {
				// Reseller default set shared by a handful of domains.
				sets := resellerSets[host.ASN]
				if len(sets) == 0 || g.r.bernoulli(0.15) {
					v := g.makeUniqueNS(host, fmt.Sprintf("res%d.hoster%d.com", len(sets)+1, host.ASN), g.sampleNSCount())
					resellerSets[host.ASN] = append(sets, v)
					d.NS = v.Servers
				} else {
					d.NS = sets[g.r.Intn(len(sets))].Servers
				}
				d.InZoneGlue = true // reseller zones are .com above
			} else {
				var base string
				if g.r.bernoulli(0.35) {
					base = d.Name // ns under the customer domain
					d.InZoneGlue = isComNetOrg(tld.Name)
				} else {
					base = fmt.Sprintf("cust%d.hoster%d.com", i, host.ASN)
					d.InZoneGlue = true
				}
				v := g.makeUniqueNS(host, base, g.sampleNSCount())
				d.NS = v.Servers
			}
		default:
			// Self-hosted on the domain's own infrastructure.
			d.SelfHosted = true
			host := d.HostAS
			if host == nil {
				host = g.in.ASes[g.r.Intn(len(g.in.ASes))]
			}
			v := g.makeUniqueNS(host, d.Name, g.sampleNSCount())
			d.NS = v.Servers
			d.InZoneGlue = isComNetOrg(tld.Name)
		}
		g.in.Domains = append(g.in.Domains, d)
	}
}

// tldAssignment builds the per-rank TLD list.
func (g *generator) tldAssignment(n int) []*TLD {
	var (
		tlds    []*TLD
		weights []float64
		gsum    float64
	)
	for t, share := range g.cfg.DNS.TLDShares {
		gsum += share
		tlds = append(tlds, g.tldByName(t))
		weights = append(weights, share)
	}
	// Stable iteration: sort by name alongside weights.
	sort.Sort(&tldSorter{tlds, weights})
	rest := 1 - gsum
	var ccsum float64
	for _, cw := range ccTLDWeights {
		ccsum += cw.Weight
	}
	for _, cw := range ccTLDWeights {
		tlds = append(tlds, g.tldByName(cw.TLD))
		weights = append(weights, rest*cw.Weight/ccsum)
	}
	out := make([]*TLD, n)
	for i := range out {
		out[i] = tlds[g.r.weightedIndex(weights)]
	}
	return out
}

type tldSorter struct {
	tlds    []*TLD
	weights []float64
}

func (s *tldSorter) Len() int           { return len(s.tlds) }
func (s *tldSorter) Less(i, j int) bool { return s.tlds[i].Name < s.tlds[j].Name }
func (s *tldSorter) Swap(i, j int) {
	s.tlds[i], s.tlds[j] = s.tlds[j], s.tlds[i]
	s.weights[i], s.weights[j] = s.weights[j], s.weights[i]
}

// assignHosting picks the apex hosting for a ranked domain.
func (g *generator) assignHosting(d *Domain, rank, n int) {
	band := midBand
	switch {
	case rank < n/10:
		band = topBand
	case rank >= n*9/10:
		band = bottomBand
	}
	cat := band.cats[g.r.weightedIndex(band.weights)]
	pool := g.byCategory[cat]
	if len(pool) == 0 {
		pool = g.in.ASes
	}
	// Zipf over the category's ASes: big CDNs absorb most sites.
	a := pool[g.r.powerLawInt(0, len(pool)-1, 1.1)]
	d.HostAS = a
	var v4, v6 []*Prefix
	for _, p := range a.Prefixes {
		if p.AF == 4 {
			v4 = append(v4, p)
		} else {
			v6 = append(v6, p)
		}
	}
	// Hosting companies keep their first prefixes for customer
	// nameservers; web content lives in the rest.
	if cat == CatHosting && len(v4) > 3 {
		v4 = v4[3:]
	}
	if len(v4) == 0 {
		return // unresolvable apex; rare and harmless
	}
	nIPs := 1
	if rank < n/10 {
		nIPs = g.r.intBetween(1, 3)
	}
	// Consolidation: CDN and cloud hosting concentrates on the
	// first (well-covered) prefixes; others spread out.
	zipfExp := 2.2
	switch cat {
	case CatHosting:
		zipfExp = 1.8
	case CatISP, CatEnterprise:
		zipfExp = 0.5
	}
	for k := 0; k < nIPs; k++ {
		p := v4[g.r.powerLawInt(0, len(v4)-1, zipfExp)]
		p.WebHosted = true
		d.HostIPv4 = append(d.HostIPv4, p.NextHostIP())
		d.HostPrefix = append(d.HostPrefix, p)
	}
	if len(v6) > 0 && g.r.bernoulli(0.5) {
		p := v6[g.r.powerLawInt(0, len(v6)-1, zipfExp)]
		d.HostIPv6 = append(d.HostIPv6, p.NextHostIP())
		d.HostPrefix = append(d.HostPrefix, p)
	}
}

// makeUniqueNS creates a dedicated nameserver set under base, with IPs in
// the host AS's space.
func (g *generator) makeUniqueNS(host *AS, base string, count int) *NSVariant {
	var v4 []*Prefix
	for _, p := range host.Prefixes {
		if p.AF == 4 {
			v4 = append(v4, p)
		}
	}
	v := &NSVariant{}
	for s := 0; s < count; s++ {
		ns := &Nameserver{Name: fmt.Sprintf("ns%d.%s", s+1, base)}
		if len(v4) > 0 {
			p := v4[s%min(len(v4), 3)] // NS concentrated in few prefixes
			ns.IPv4 = nsIP(p)
			ns.V4Prefix = p
		}
		v.Servers = append(v.Servers, ns)
	}
	return v
}

// nsIP allocates a nameserver address from p's first /24, wrapping after
// 250 hosts: nameservers of one operator share a handful of /24s (and
// occasionally an address, as real anycast nameservers do).
func nsIP(p *Prefix) string {
	ip := ipFrom(p, p.HostedIPs%250)
	p.HostedIPs++
	return ip
}

// hosterTLD deterministically assigns a hosting company's nameserver zone
// TLD (mostly .com, some .net/.io) from its ASN.
func hosterTLD(asn uint32) string {
	switch asn % 10 {
	case 0, 2, 4, 7:
		return "io"
	case 3:
		return "net"
	default:
		return "com"
	}
}

var domainWords = []string{
	"alpha", "breeze", "cobalt", "dune", "ember", "flux", "glade", "harbor",
	"iris", "juniper", "krait", "lumen", "mesa", "nova", "onyx", "pique",
	"quartz", "raven", "sable", "tundra", "umber", "vertex", "willow",
	"xenon", "yonder", "zephyr",
}

func domainWord(r *rng) string {
	return domainWords[r.Intn(len(domainWords))] + domainWords[r.Intn(len(domainWords))]
}

// --- rankings & query popularity ---

func (g *generator) genRankings() {
	umbrella := 1
	cloudflare := 1
	for i, d := range g.in.Domains {
		popTop := i < len(g.in.Domains)/2
		// Cisco Umbrella: DNS-popularity list, strongly overlapping
		// Tranco at the top.
		p := 0.45
		if popTop {
			p = 0.8
		}
		if g.r.bernoulli(p) {
			d.UmbrellaRank = umbrella
			umbrella++
		}
		// Cloudflare Radar ranking covers a smaller head.
		if i < len(g.in.Domains)*2/5 && g.r.bernoulli(0.8) {
			d.CloudflareRank = cloudflare
			cloudflare++
		}
		// QUERIED_FROM: popular domains see their top querying ASes.
		if i < len(g.in.Domains)/5 {
			k := g.r.intBetween(2, 5)
			for j := 0; j < k; j++ {
				cc := g.pickCountry()
				pool := g.eyeballs[cc]
				if len(pool) == 0 {
					continue
				}
				a := pool[g.r.powerLawInt(0, len(pool)-1, 1.4)]
				if !hasASN(d.TopQueryASNs, a.ASN) {
					d.TopQueryASNs = append(d.TopQueryASNs, a.ASN)
				}
			}
		}
	}
}
