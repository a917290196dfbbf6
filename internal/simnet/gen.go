package simnet

import (
	"fmt"
	"net/netip"
	"sort"

	"iyp/internal/netutil"
)

// Generate builds a synthetic Internet from cfg. Generation is
// deterministic: identical configs produce identical models.
func Generate(cfg Config) (*Internet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		cfg: cfg,
		r:   newRNG(cfg.Seed),
		in: &Internet{
			Cfg:         cfg,
			Countries:   netutil.Countries(),
			Populations: map[string]int64{},
			asByASN:     map[uint32]*AS{},
		},
		v4cursor: netip.MustParseAddr("20.0.0.0"),
		v6cursor: netip.MustParseAddr("2400::"),
	}
	g.genOrgs()
	g.genASes()
	g.genTopology()
	g.genPrefixes()
	g.genRPKI()
	g.genIXPs()
	g.genTLDs()
	g.genNSProviders()
	g.genDomains()
	g.genInvalids()
	g.genPlantedErrors()
	g.genRankings()
	g.genCollectors()
	g.genAtlas()
	g.genCitizenLab()
	g.genPopulations()
	return g.in, nil
}

type generator struct {
	cfg Config
	r   *rng
	in  *Internet

	v4cursor netip.Addr
	v6cursor netip.Addr

	// eyeballASes per country for population estimates and probes.
	eyeballs map[string][]*AS
	// byCategory indexes ASes by primary category.
	byCategory map[string][]*AS
}

// countryWeights biases resource registration to large economies, keeping
// the US-heavy concentration the SPoF figures depend on.
var countryWeights = map[string]float64{
	"US": 0.22, "CN": 0.08, "RU": 0.05, "DE": 0.05, "GB": 0.05,
	"JP": 0.04, "FR": 0.04, "BR": 0.04, "IN": 0.04, "NL": 0.03,
	"CA": 0.03, "AU": 0.02, "KR": 0.02, "IT": 0.02, "ES": 0.02,
	"PL": 0.02, "UA": 0.015, "TR": 0.015, "SE": 0.015, "CH": 0.015,
}

const defaultCountryWeight = 0.006

func (g *generator) pickCountry() string {
	cs := g.in.Countries
	weights := make([]float64, len(cs))
	for i, c := range cs {
		w, ok := countryWeights[c.Alpha2]
		if !ok {
			w = defaultCountryWeight
		}
		weights[i] = w
	}
	return cs[g.r.weightedIndex(weights)].Alpha2
}

// rirForCountry maps a registration country to its RIR, as in NRO
// delegated files.
func rirForCountry(cc string) string {
	switch cc {
	case "US", "CA":
		return "arin"
	case "BR", "AR", "CL", "CO", "MX":
		return "lacnic"
	case "ZA", "NG", "KE", "EG":
		return "afrinic"
	case "CN", "JP", "KR", "IN", "AU", "NZ", "SG", "HK", "TW", "ID",
		"TH", "VN", "MY", "PH":
		return "apnic"
	default:
		return "ripencc"
	}
}

// --- organizations ---

func (g *generator) genOrgs() {
	for i := 0; i < g.cfg.NumOrgs; i++ {
		cc := g.pickCountry()
		o := &Org{
			ID:      i + 1,
			Name:    fmt.Sprintf("ORG-%s-%04d", cc, i+1),
			Country: cc,
		}
		if g.r.bernoulli(0.45) {
			o.PeeringdbOrgID = 10000 + i
		}
		g.in.Orgs = append(g.in.Orgs, o)
	}
}

// --- ASes ---

func (g *generator) genASes() {
	n := g.cfg.NumASes
	// Deterministic category assignment honoring categoryShares.
	cats := make([]string, 0, n)
	for _, cs := range categoryShares {
		k := int(cs.Share * float64(n))
		if k == 0 && cs.Share > 0 {
			k = 1
		}
		for i := 0; i < k && len(cats) < n; i++ {
			cats = append(cats, cs.Cat)
		}
	}
	for len(cats) < n {
		cats = append(cats, CatEnterprise)
	}
	g.r.Shuffle(len(cats), func(i, j int) { cats[i], cats[j] = cats[j], cats[i] })
	// Keep a handful of category anchors at fixed ranks so the model
	// always contains the roles the studies need, regardless of shuffle.
	anchors := []string{CatTier1, CatCDN, CatCDN, CatDNS, CatDNS, CatCloud, CatHosting, CatDDoS, CatRegistry, CatRegistry}
	for i, c := range anchors {
		if i < len(cats) {
			cats[i] = c
		}
	}

	asn := uint32(1000)
	for i := 0; i < n; i++ {
		cat := cats[i]
		cc := g.pickCountry()
		// Infrastructure heavyweights skew American, which drives the
		// third-party SPoF concentration of Figure 5.
		usBias := map[string]float64{CatCDN: 0.7, CatDNS: 0.7, CatDDoS: 0.7, CatCloud: 0.7, CatHosting: 0.45}
		if g.r.bernoulli(usBias[cat]) {
			cc = "US"
		}
		org := g.in.Orgs[g.r.Intn(len(g.in.Orgs))]
		// A fifth of orgs hold several ASes (siblings); the rest get a
		// dedicated org on first use.
		if len(org.ASes) > 0 && !g.r.bernoulli(0.2) {
			for tries := 0; tries < 4 && len(org.ASes) > 0; tries++ {
				org = g.in.Orgs[g.r.Intn(len(g.in.Orgs))]
			}
		}
		asn += uint32(g.r.intBetween(1, 7))
		a := &AS{
			ASN:      asn,
			Name:     asName(cat, cc, i),
			Org:      org,
			Country:  cc,
			RIR:      rirForCountry(cc),
			OpaqueID: fmt.Sprintf("%s-%s-%05d", rirForCountry(cc), "hdl", org.ID),
			Category: cat,
			PopShare: map[string]float64{},
		}
		a.Tags = tagsFor(cat, g.r)
		a.ASdbLayer1, a.ASdbLayer2 = asdbFor(cat)
		a.RoVistaScore = g.r.Float64() * 0.6
		if cat == CatTier1 || cat == CatISP {
			a.RoVistaScore = 0.3 + g.r.Float64()*0.7
		}
		if g.r.bernoulli(0.35) {
			a.PeeringdbNetID = 20000 + i
		}
		org.ASes = append(org.ASes, a)
		g.in.ASes = append(g.in.ASes, a)
		g.in.asByASN[a.ASN] = a
	}

	g.byCategory = map[string][]*AS{}
	g.eyeballs = map[string][]*AS{}
	for _, a := range g.in.ASes {
		g.byCategory[a.Category] = append(g.byCategory[a.Category], a)
		if a.Category == CatISP || a.Category == CatTier1 {
			g.eyeballs[a.Country] = append(g.eyeballs[a.Country], a)
		}
	}
}

func asName(cat, cc string, i int) string {
	switch cat {
	case CatTier1:
		return fmt.Sprintf("BACKBONE-%d Global Transit", i+1)
	case CatCDN:
		return fmt.Sprintf("EDGECAST-%d CDN", i+1)
	case CatCloud:
		return fmt.Sprintf("NIMBUS-%d Cloud", i+1)
	case CatHosting:
		return fmt.Sprintf("RACKFARM-%d Hosting", i+1)
	case CatDNS:
		return fmt.Sprintf("ZONEHOST-%d DNS", i+1)
	case CatAcademic:
		return fmt.Sprintf("UNIV-NET-%s-%d", cc, i+1)
	case CatGovernment:
		return fmt.Sprintf("GOV-NET-%s-%d", cc, i+1)
	case CatDDoS:
		return fmt.Sprintf("SHIELDWALL-%d Mitigation", i+1)
	case CatRegistry:
		return fmt.Sprintf("REGISTRY-OPS-%d", i+1)
	case CatISP:
		return fmt.Sprintf("TELECOM-%s-%d", cc, i+1)
	default:
		return fmt.Sprintf("CORP-NET-%s-%d", cc, i+1)
	}
}

// tagsFor produces BGP.Tools-style tags for an AS.
func tagsFor(cat string, r *rng) []string {
	tags := []string{bgpToolsTag(cat)}
	if cat == CatISP && r.bernoulli(0.6) {
		tags = append(tags, "Eyeball")
	}
	if cat == CatTier1 {
		tags = append(tags, "Tier1")
	}
	if (cat == CatCDN || cat == CatDNS || cat == CatDDoS) && r.bernoulli(0.7) {
		tags = append(tags, "Anycast")
	}
	return tags
}

// bgpToolsTag maps model categories to the tag vocabulary the BGP.Tools
// dataset uses (and the paper quotes: 'Content Delivery Network',
// 'Academic', 'Government', 'DDoS Mitigation').
func bgpToolsTag(cat string) string {
	switch cat {
	case CatCDN:
		return "Content Delivery Network"
	case CatCloud:
		return "Cloud Computing"
	case CatHosting:
		return "Server Hosting"
	case CatDNS:
		return "Managed DNS"
	case CatAcademic:
		return "Academic"
	case CatGovernment:
		return "Government"
	case CatDDoS:
		return "DDoS Mitigation"
	case CatTier1:
		return "Tier1"
	case CatRegistry:
		return "Internet Critical Infra"
	case CatISP:
		return "Internet Service Provider"
	default:
		return "Corporate Network"
	}
}

func asdbFor(cat string) (string, string) {
	switch cat {
	case CatTier1, CatISP:
		return "Computer and Information Technology", "Internet Service Provider (ISP)"
	case CatCDN, CatCloud, CatHosting:
		return "Computer and Information Technology", "Hosting, Cloud Provider, or CDN"
	case CatDNS:
		return "Computer and Information Technology", "Internet Exchange Point, DNS, or Infrastructure"
	case CatAcademic:
		return "Education and Research", "Colleges, Universities, and Professional Schools"
	case CatGovernment:
		return "Government and Public Administration", "Government"
	case CatDDoS:
		return "Computer and Information Technology", "Computer and Network Security"
	case CatRegistry:
		return "Computer and Information Technology", "Internet Exchange Point, DNS, or Infrastructure"
	default:
		return "Other", "Corporate"
	}
}

// --- topology ---

func (g *generator) genTopology() {
	ases := g.in.ASes
	n := len(ases)
	// Size weight drives provider attractiveness (preferential
	// attachment): earlier index = bigger network.
	tier1s := g.byCategory[CatTier1]
	// Full mesh among tier-1s.
	for i, a := range tier1s {
		for _, b := range tier1s[i+1:] {
			a.Peers = append(a.Peers, b.ASN)
			b.Peers = append(b.Peers, a.ASN)
		}
	}
	// Every non-tier1 AS picks 1-3 providers among ASes with a lower
	// index (preferential attachment by inverse index weight).
	for i, a := range ases {
		if a.Category == CatTier1 {
			continue
		}
		nProv := g.r.intBetween(1, 3)
		for p := 0; p < nProv; p++ {
			// Bias to small indexes.
			j := g.r.powerLawInt(0, max(i-1, 0), 1.6)
			prov := ases[j]
			if prov == a || hasASN(a.Providers, prov.ASN) {
				continue
			}
			a.Providers = append(a.Providers, prov.ASN)
			prov.Customers = append(prov.Customers, a.ASN)
		}
		// Lateral peering.
		if g.r.bernoulli(0.5) {
			j := g.r.Intn(n)
			if peer := ases[j]; peer != a && !hasASN(a.Peers, peer.ASN) {
				a.Peers = append(a.Peers, peer.ASN)
				peer.Peers = append(peer.Peers, a.ASN)
			}
		}
	}
	// Customer-cone sizes: accumulate bottom-up (index order approximates
	// hierarchy depth because providers always have smaller indexes).
	cone := make(map[uint32]int, n)
	for i := n - 1; i >= 0; i-- {
		a := ases[i]
		c := 1
		for _, cust := range a.Customers {
			c += cone[cust]
		}
		cone[a.ASN] = c
	}
	order := append([]*AS(nil), ases...)
	sort.SliceStable(order, func(i, j int) bool { return cone[order[i].ASN] > cone[order[j].ASN] })
	total := 0
	for _, c := range cone {
		total += c
	}
	for rank, a := range order {
		a.Rank = rank + 1
		a.ConeSize = cone[a.ASN]
		a.Hegemony = float64(a.ConeSize) / float64(total) * (0.8 + g.r.Float64()*0.4)
		if a.Hegemony > 1 {
			a.Hegemony = 1
		}
	}
	// Population shares: per country, Zipf over its eyeball networks.
	for cc, list := range g.eyeballs {
		shares := g.r.zipfSizes(1000, len(list), 1.2)
		for i, a := range list {
			a.PopShare[cc] = float64(shares[i]) / 1000.0
		}
	}
}

func hasASN(s []uint32, asn uint32) bool {
	for _, x := range s {
		if x == asn {
			return true
		}
	}
	return false
}

// --- addressing ---

// allocV4 carves the next /bits IPv4 prefix. The cursor is aligned *up*
// to the block size first — masking down would overlap a previously
// allocated smaller block.
func (g *generator) allocV4(bits int) *Prefix {
	step := uint32(1) << (32 - bits)
	a4 := g.v4cursor.As4()
	cur := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	if cur%step != 0 {
		cur = (cur/step + 1) * step
	}
	start := netip.AddrFrom4([4]byte{byte(cur >> 24), byte(cur >> 16), byte(cur >> 8), byte(cur)})
	p := netip.PrefixFrom(start, bits)
	cur += step
	g.v4cursor = netip.AddrFrom4([4]byte{byte(cur >> 24), byte(cur >> 16), byte(cur >> 8), byte(cur)})
	return &Prefix{CIDR: p.String(), AF: 4}
}

// allocV6 carves the next /bits IPv6 prefix (bits <= 64), aligning the
// cursor up like allocV4.
func (g *generator) allocV6(bits int) *Prefix {
	a16 := g.v6cursor.As16()
	var hi uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(a16[i])
	}
	step := uint64(1) << (64 - bits)
	if hi%step != 0 {
		hi = (hi/step + 1) * step
	}
	var start [16]byte
	v := hi
	for i := 7; i >= 0; i-- {
		start[i] = byte(v)
		v >>= 8
	}
	p := netip.PrefixFrom(netip.AddrFrom16(start), bits)
	hi += step
	var out [16]byte
	for i := 7; i >= 0; i-- {
		out[i] = byte(hi)
		hi >>= 8
	}
	g.v6cursor = netip.AddrFrom16(out)
	return &Prefix{CIDR: p.String(), AF: 6}
}

// ipFrom returns the n-th usable address inside prefix p.
func ipFrom(p *Prefix, n int) string {
	pp := netip.MustParsePrefix(p.CIDR)
	addr := pp.Addr()
	for i := 0; i <= n; i++ {
		addr = addr.Next()
	}
	return addr.String()
}

// NextHostIP assigns the next unused address from p.
func (p *Prefix) NextHostIP() string {
	ip := ipFrom(p, p.HostedIPs)
	p.HostedIPs++
	return ip
}

// --- prefixes & BGP ---

func (g *generator) genPrefixes() {
	for _, a := range g.in.ASes {
		nv4 := g.prefixCount(a)
		for i := 0; i < nv4; i++ {
			bits := g.r.intBetween(20, 24)
			p := g.allocV4(bits)
			p.Origin = a
			a.Prefixes = append(a.Prefixes, p)
			g.in.Prefixes = append(g.in.Prefixes, p)
		}
		// ~40% of ASes also announce IPv6.
		if g.r.bernoulli(0.4) {
			nv6 := max(1, nv4/2)
			for i := 0; i < nv6; i++ {
				bits := []int{32, 40, 44, 48}[g.r.Intn(4)]
				p := g.allocV6(bits)
				p.Origin = a
				a.Prefixes = append(a.Prefixes, p)
				g.in.Prefixes = append(g.in.Prefixes, p)
			}
		}
	}
	// MOAS: a small fraction of prefixes has a second origin.
	for _, p := range g.in.Prefixes {
		if g.r.bernoulli(0.004) {
			other := g.in.ASes[g.r.Intn(len(g.in.ASes))]
			if other != p.Origin {
				p.MOASOrigin = other
			}
		}
	}
	// Anycast tagging.
	for _, p := range g.in.Prefixes {
		switch p.Origin.Category {
		case CatCDN:
			p.Anycast = g.r.bernoulli(0.6)
		case CatDDoS:
			p.Anycast = g.r.bernoulli(0.8)
		case CatDNS:
			p.Anycast = g.r.bernoulli(0.5)
		default:
			p.Anycast = g.r.bernoulli(0.01)
		}
	}
}

func (g *generator) prefixCount(a *AS) int {
	switch a.Category {
	case CatTier1:
		return g.r.intBetween(12, 30)
	case CatCDN:
		return g.r.intBetween(10, 24)
	case CatCloud:
		return g.r.intBetween(12, 30)
	case CatHosting:
		return g.r.intBetween(5, 14)
	case CatDNS:
		return g.r.intBetween(4, 10)
	case CatISP:
		// Scale with topological importance.
		base := g.r.intBetween(2, 8)
		if a.ConeSize > 10 {
			base += g.r.intBetween(4, 12)
		}
		return base
	case CatDDoS:
		return g.r.intBetween(4, 10)
	default:
		return g.r.intBetween(1, 3)
	}
}

// genInvalids flips a calibrated fraction of covered (prefix, origin)
// pairs to RPKI-invalid. It runs after domain hosting is assigned and
// prefers prefixes that actually host content, so the (tiny) invalid rate
// is observable in the Tranco-centric Table 2 statistics even at reduced
// scale — in the real Internet the rate is measured over the full table.
func (g *generator) genInvalids() {
	cfg := g.cfg.RPKI
	var hosting, other []*Prefix
	for _, p := range g.in.Prefixes {
		if p.ROA == nil || p.RPKIStatus != RPKIValid {
			continue
		}
		if p.WebHosted {
			hosting = append(hosting, p)
		} else {
			other = append(other, p)
		}
	}
	nInvalid := int(cfg.InvalidRate * float64(len(g.in.Prefixes)))
	if nInvalid < 1 {
		nInvalid = 1
	}
	for i := 0; i < nInvalid; i++ {
		var p *Prefix
		// The first invalid is always drawn from content-hosting space so
		// the tiny invalid rate stays observable in the Tranco-centric
		// Table 2 statistic at any scale; the rest spread 35/65.
		fromHosting := i == 0 || g.r.bernoulli(0.35)
		switch {
		case len(hosting) > 0 && (fromHosting || len(other) == 0):
			k := g.r.Intn(len(hosting))
			p = hosting[k]
			hosting = append(hosting[:k], hosting[k+1:]...)
		case len(other) > 0:
			k := g.r.Intn(len(other))
			p = other[k]
			other = append(other[:k], other[k+1:]...)
		default:
			return
		}
		if g.r.bernoulli(cfg.InvalidMaxLenShare) {
			// Announcement more specific than the ROA's max length.
			pp := netip.MustParsePrefix(p.CIDR)
			p.ROA.MaxLength = pp.Bits() - g.r.intBetween(1, 2)
			cover := netip.PrefixFrom(pp.Addr(), p.ROA.MaxLength).Masked()
			p.ROA.Prefix = cover.String()
			p.RPKIStatus = RPKIInvalidMoreSpecific
		} else {
			// ROA registered to a different origin.
			other := g.in.ASes[g.r.Intn(len(g.in.ASes))]
			if other == p.Origin {
				continue
			}
			p.ROA.ASN = other.ASN
			p.RPKIStatus = RPKIInvalid
		}
	}
}

// genPlantedErrors selects IPv6 prefixes whose BGPKIT rendering will
// carry a wrong origin (paper §6.1: comparing pfx2asn against other
// origin datasets in IYP exposed an IPv6 bug in the real feed).
func (g *generator) genPlantedErrors() {
	n := g.cfg.PlantedOriginErrors
	if n <= 0 {
		return
	}
	var v6 []*Prefix
	for _, p := range g.in.Prefixes {
		if p.AF == 6 && p.MOASOrigin == nil {
			v6 = append(v6, p)
		}
	}
	for i := 0; i < n && len(v6) > 0; i++ {
		k := g.r.Intn(len(v6))
		p := v6[k]
		v6 = append(v6[:k], v6[k+1:]...)
		wrong := g.in.ASes[g.r.Intn(len(g.in.ASes))]
		if wrong == p.Origin {
			continue
		}
		g.in.PlantedErrors = append(g.in.PlantedErrors, PlantedOriginError{
			Prefix: p.CIDR, TrueOrigin: p.Origin.ASN, WrongOrigin: wrong.ASN,
		})
	}
}

// --- RPKI & IRR ---

func (g *generator) genRPKI() {
	cfg := g.cfg.RPKI
	coverage := func(cat string) float64 {
		if v, ok := cfg.CoverageByCategory[cat]; ok {
			return v
		}
		return cfg.DefaultCoverage
	}
	hostingIdx := map[*AS]int{}
	for i, a := range g.byCategory[CatHosting] {
		hostingIdx[a] = i
	}
	nHosting := len(g.byCategory[CatHosting])
	for _, a := range g.in.ASes {
		cov := coverage(a.Category)
		a.RPKIAdopter = cov > 0
		// Infrastructure categories cover their busiest (lowest-index)
		// prefixes first — this concentration is what makes
		// domain-weighted coverage exceed prefix-weighted coverage
		// (paper §5.1.2). Other categories cover at random. Hosting
		// companies under-cover their first three prefixes (where their
		// customers' vanity nameservers live) and over-cover the rest,
		// keeping the category average while reproducing the lower RPKI
		// coverage of the DNS infrastructure (§5.1.1).
		deterministic := a.Category == CatCDN || a.Category == CatDNS || a.Category == CatDDoS || a.Category == CatCloud
		for i, p := range a.Prefixes {
			var covered bool
			switch {
			case deterministic:
				covered = i < int(cov*float64(len(a.Prefixes))+0.5)
			case a.Category == CatHosting && i < 3 && hostingIdx[a] < nHosting/4:
				// The big hosting companies (which absorb most vanity
				// nameservers) have their NS prefixes in RPKI...
				covered = true
			case a.Category == CatHosting && i < 3:
				// ...while the long tail mostly does not (§5.1.1).
				covered = g.r.bernoulli(cov * 0.35)
			case a.Category == CatHosting:
				covered = g.r.bernoulli(cov * 1.2)
			default:
				covered = g.r.bernoulli(cov)
			}
			if !covered {
				p.RPKIStatus = RPKINotFound
				continue
			}
			pp := netip.MustParsePrefix(p.CIDR)
			p.ROA = &ROA{Prefix: p.CIDR, ASN: a.ASN, MaxLength: pp.Bits()}
			p.RPKIStatus = RPKIValid
		}
	}
	// IRR: broader but sloppier coverage.
	for _, p := range g.in.Prefixes {
		switch {
		case g.r.bernoulli(0.70):
			p.IRRStatus = IRRValid
		case g.r.bernoulli(0.05):
			p.IRRStatus = IRRInvalid
		default:
			p.IRRStatus = IRRNotFound
		}
	}
}
