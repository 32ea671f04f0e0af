// Package mapping implements the paper's primary contribution: the CDN
// mapping system that routes each DNS request to a proximal server cluster.
//
// It provides the three request-routing policies the paper evaluates —
// traditional NS-based mapping (route by the LDNS), end-user mapping (route
// by the EDNS0 client-subnet prefix), and client-aware NS-based mapping
// (route by the LDNS's measured client cluster) — together with the scoring
// layer built on ping-target measurements, the two-level (global + local)
// load balancer, and the mapping-unit policies of §5.1 (/x client blocks
// with optional BGP CIDR aggregation).
package mapping

import (
	"fmt"
	"net/netip"

	"eum/internal/world"
)

// UnitPolicy maps a client prefix to the mapping unit it belongs to — the
// finest-grain set of client IPs for which server assignment decisions are
// made (§5.1). Coarser units mean fewer entries to measure and cache but a
// larger cluster radius and hence lower mapping accuracy (Fig 22).
type UnitPolicy interface {
	// UnitFor returns the canonical mapping-unit prefix containing addr;
	// its length is the ECS scope of answers for the unit.
	UnitFor(addr netip.Addr) netip.Prefix
}

// PrefixUnits maps clients to fixed /x blocks. The natural choices are
// /24 for IPv4 and /48 for IPv6 — what ECS-enabled resolvers send — with
// coarser values trading accuracy for fewer units.
type PrefixUnits struct {
	// X is the IPv4 prefix length (1..32).
	X uint8
	// X6 is the IPv6 prefix length; 0 means 48.
	X6 uint8
}

// UnitFor implements UnitPolicy.
func (p PrefixUnits) UnitFor(addr netip.Addr) netip.Prefix {
	addr = addr.Unmap()
	bits := int(p.X)
	if addr.Is6() {
		bits = int(p.X6)
		if bits == 0 {
			bits = 48
		}
	}
	pre, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}
	}
	return pre
}

// String returns "/x units".
func (p PrefixUnits) String() string { return fmt.Sprintf("/%d units", p.X) }

// CIDRUnits maps clients to BGP-announced CIDRs: /24 blocks within the same
// announcement are combined, since they are likely proximal in the network
// sense (§5.1 reduced 3.76M /24 blocks to 444K units this way). Addresses
// not covered by any announcement fall back to the base prefix policy.
type CIDRUnits struct {
	Base PrefixUnits
	// set indexes announced CIDRs for longest-prefix matching; minBits
	// and maxBits bound the probe range.
	set              map[netip.Prefix]bool
	minBits, maxBits int
}

// NewCIDRUnits builds a CIDR-aggregating unit policy from a BGP table.
func NewCIDRUnits(base PrefixUnits, cidrs []netip.Prefix) *CIDRUnits {
	c := &CIDRUnits{Base: base, set: make(map[netip.Prefix]bool, len(cidrs)), minBits: 32, maxBits: 0}
	for _, p := range cidrs {
		p = p.Masked()
		c.set[p] = true
		if p.Bits() < c.minBits {
			c.minBits = p.Bits()
		}
		if p.Bits() > c.maxBits {
			c.maxBits = p.Bits()
		}
	}
	return c
}

// Lookup returns the most specific announced CIDR containing addr. The
// probe starts no longer than addr's own family allows: a table holding
// IPv6 announcements longer than /32 must still match IPv4 addresses.
func (c *CIDRUnits) Lookup(addr netip.Addr) (netip.Prefix, bool) {
	addr = addr.Unmap()
	for bits := min(c.maxBits, addr.BitLen()); bits >= c.minBits; bits-- {
		p, err := addr.Prefix(bits)
		if err != nil {
			return netip.Prefix{}, false
		}
		if c.set[p] {
			return p, true
		}
	}
	return netip.Prefix{}, false
}

// UnitFor implements UnitPolicy: the covering CIDR when one exists (but
// never coarser than the base policy allows for accuracy), else the base
// /x block.
func (c *CIDRUnits) UnitFor(addr netip.Addr) netip.Prefix {
	if p, ok := c.Lookup(addr); ok {
		return p
	}
	return c.Base.UnitFor(addr)
}

// String describes the policy.
func (c *CIDRUnits) String() string {
	return fmt.Sprintf("BGP-CIDR units over %s (%d announcements)", c.Base, len(c.set))
}

// CountUnits returns the number of distinct mapping units with non-zero
// demand that policy u induces over the world's client blocks — the y axis
// of Fig 22b.
func CountUnits(w *world.World, u UnitPolicy) int {
	seen := map[netip.Prefix]bool{}
	for _, b := range w.Blocks {
		seen[u.UnitFor(b.Prefix.Addr())] = true
	}
	return len(seen)
}

// UnitClusters groups the world's client blocks by mapping unit, for
// cluster-radius analyses (Fig 22a).
func UnitClusters(w *world.World, u UnitPolicy) map[netip.Prefix][]*world.ClientBlock {
	out := map[netip.Prefix][]*world.ClientBlock{}
	for _, b := range w.Blocks {
		k := u.UnitFor(b.Prefix.Addr())
		out[k] = append(out[k], b)
	}
	return out
}
