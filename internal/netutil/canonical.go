// Package netutil provides canonicalization helpers and data structures for
// network identifiers used throughout IYP: IP addresses, IP prefixes, AS
// numbers, and country codes.
//
// Canonical forms are the cornerstone of node deduplication in the knowledge
// graph (paper §2.3): the same resource may appear in many spellings across
// datasets (2001:DB8::/32 vs 2001:0db8::/32, "AS2497" vs "2497", "us" vs
// "US") and must map to exactly one node.
package netutil

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// CanonicalIP parses s as an IPv4 or IPv6 address and returns its canonical
// textual form (lower-case, shortest IPv6 representation, no leading zeros).
// IPv4-mapped IPv6 addresses (::ffff:a.b.c.d) are unwrapped to plain IPv4,
// matching how measurement datasets treat them.
func CanonicalIP(s string) (string, error) {
	addr, err := netip.ParseAddr(strings.TrimSpace(s))
	if err != nil {
		return "", fmt.Errorf("netutil: invalid IP address %q: %w", s, err)
	}
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	// Strip zone: graph nodes identify global resources, not local scopes.
	addr = addr.WithZone("")
	return addr.String(), nil
}

// CanonicalPrefix parses s as a CIDR prefix and returns its canonical form:
// masked network address (host bits zeroed) in canonical IP spelling plus
// prefix length. "2001:0DB8::1/32" canonicalizes to "2001:db8::/32".
func CanonicalPrefix(s string) (string, error) {
	p, err := netip.ParsePrefix(strings.TrimSpace(s))
	if err != nil {
		return "", fmt.Errorf("netutil: invalid prefix %q: %w", s, err)
	}
	p = p.Masked()
	addr := p.Addr()
	if addr.Is4In6() {
		// Re-derive as a v4 prefix; a 4-in-6 /n maps to a v4 /(n-96).
		bits := p.Bits() - 96
		if bits < 0 {
			return "", fmt.Errorf("netutil: prefix %q: 4-in-6 prefix shorter than /96", s)
		}
		p = netip.PrefixFrom(addr.Unmap(), bits).Masked()
	}
	return p.String(), nil
}

// AddressFamily returns 4 or 6 for a canonical IP or prefix string.
func AddressFamily(s string) (int, error) {
	if strings.Contains(s, "/") {
		p, err := netip.ParsePrefix(s)
		if err != nil {
			return 0, fmt.Errorf("netutil: invalid prefix %q: %w", s, err)
		}
		if p.Addr().Unmap().Is4() {
			return 4, nil
		}
		return 6, nil
	}
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("netutil: invalid IP %q: %w", s, err)
	}
	if a.Unmap().Is4() {
		return 4, nil
	}
	return 6, nil
}

// ParseASN extracts an AS number from common spellings: "2497", "AS2497",
// "as2497", "ASN2497", with surrounding whitespace. Values are bounded to
// the 32-bit ASN space.
func ParseASN(s string) (uint32, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	switch {
	case strings.HasPrefix(upper, "ASN"):
		t = t[3:]
	case strings.HasPrefix(upper, "AS"):
		t = t[2:]
	}
	n, err := strconv.ParseUint(strings.TrimSpace(t), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("netutil: invalid ASN %q: %w", s, err)
	}
	return uint32(n), nil
}

// IsPrivateASN reports whether asn falls in an RFC 6996 private-use range.
func IsPrivateASN(asn uint32) bool {
	return (asn >= 64512 && asn <= 65534) || (asn >= 4200000000 && asn <= 4294967294)
}

// Hostname normalization ------------------------------------------------

// CanonicalHostname lower-cases a hostname and strips any trailing dot, the
// form used for HostName and DomainName node identities.
func CanonicalHostname(s string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(s)), ".")
}

// PublicSuffixDepth is the number of labels IYP treats as the TLD portion
// when splitting registered domains. The reproduction, like the paper's
// datasets, only needs single-label public suffixes.
const PublicSuffixDepth = 1

// SecondLevelDomain returns the registered (second-level) domain of a
// hostname: the last two labels. ok is false when the name has fewer than
// two labels.
func SecondLevelDomain(hostname string) (sld string, ok bool) {
	h := CanonicalHostname(hostname)
	labels := strings.Split(h, ".")
	if len(labels) < 2 || labels[0] == "" {
		return "", false
	}
	return strings.Join(labels[len(labels)-2:], "."), true
}

// TopLevelDomain returns the final label of hostname ("" when empty).
func TopLevelDomain(hostname string) string {
	h := CanonicalHostname(hostname)
	if h == "" {
		return ""
	}
	i := strings.LastIndexByte(h, '.')
	return h[i+1:]
}

// HostnameFromURL extracts the canonical hostname from a URL without
// depending on net/url semantics for relative references. Returns "" when
// no host component is present.
func HostnameFromURL(rawurl string) string {
	s := strings.TrimSpace(rawurl)
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	} else {
		return ""
	}
	for _, sep := range []byte{'/', '?', '#'} {
		if i := strings.IndexByte(s, sep); i >= 0 {
			s = s[:i]
		}
	}
	if i := strings.IndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	// Strip port, careful with bracketed IPv6 hosts.
	if strings.HasPrefix(s, "[") {
		if i := strings.IndexByte(s, ']'); i >= 0 {
			s = s[1:i]
		}
	} else if i := strings.LastIndexByte(s, ':'); i >= 0 && strings.Count(s, ":") == 1 {
		s = s[:i]
	}
	return CanonicalHostname(s)
}

// Slash24 returns the /24 prefix covering an IPv4 address, used by the DNS
// robustness study to group nameservers by adjacent address space. For IPv6
// addresses it returns the /48, the conventional equivalent granularity.
func Slash24(ip string) (string, error) {
	a, err := netip.ParseAddr(ip)
	if err != nil {
		return "", fmt.Errorf("netutil: invalid IP %q: %w", ip, err)
	}
	a = a.Unmap()
	bits := 24
	if a.Is6() {
		bits = 48
	}
	return netip.PrefixFrom(a, bits).Masked().String(), nil
}
