package mapping

import (
	"cmp"
	"net/netip"
	"slices"

	"eum/internal/world"
)

// Index is the map's lookup from what a query carries to the table whose
// row answers it: client leaves (IPv4 /24s, IPv6 /48s) and resolver
// addresses, each with its table. It is the only per-block state a name
// server holds, so it travels in every full image and a replica answers
// from it without knowing the world the publisher built it from. Arrays
// are sorted and flat — a few bytes per block resident, allocation-free
// binary search on the hot path. The fields are exported because
// internal/mapwire writes and reads them one for one; nothing may modify an
// index once a layout refers to it.
type Index struct {
	V4 Leaves[uint32] // keys: the /24 network, the address's top 24 bits
	V6 Leaves[uint64] // keys: the /48 network, the address's top 48 bits

	// Resolvers holds resolver addresses in their 16-byte form (an IPv4
	// address as IPv4-mapped), strictly ascending, and ResolverTable the
	// table of each. A resolver's position here is its slot, which the
	// ClientAwareNS candidate lists are keyed by.
	Resolvers     [][2]uint64
	ResolverTable []int32
}

// Leaves is one address family's client leaves: Keys strictly ascending,
// Table the table of each, and Rank each leaf's place among the
// family's leaves in (block demand descending, key ascending) order — a
// permutation of 0..len-1. A query coarser than a leaf resolves to the
// lowest rank inside it: the highest-demand block, ties to the lowest key.
type Leaves[K uint32 | uint64] struct {
	Keys  []K
	Table []int32
	Rank  []uint32
}

// addr128 splits an address's 16-byte form into two uint64 halves.
func addr128(a netip.Addr) [2]uint64 {
	b := a.As16()
	var h [2]uint64
	for i := 0; i < 16; i++ {
		h[i/8] = h[i/8]<<8 | uint64(b[i])
	}
	return h
}

// compare128 orders 16-byte addresses numerically.
func compare128(a, b [2]uint64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// addr32 returns an IPv4 address as a big-endian uint32.
func addr32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// The mapping units (§5.1): an IPv4 client's /24 and an IPv6 client's /48,
// the widths of the index's leaves and the ECS scope of an answer that
// found its unit.
const (
	v4UnitBits = 24
	v6UnitBits = 48
)

// unitOf returns the mapping unit holding a.
func unitOf(a netip.Addr) netip.Prefix {
	a = a.Unmap()
	bits := v4UnitBits
	if a.Is6() {
		bits = v6UnitBits
	}
	p, _ := a.Prefix(bits)
	return p
}

// leaf is one client block as the index builder sorts it.
type leaf[K uint32 | uint64] struct {
	key    K
	table  int32
	demand float64
}

// newLeaves lays out one family's leaves in key order and ranks them.
func newLeaves[K uint32 | uint64](ls []leaf[K]) Leaves[K] {
	slices.SortFunc(ls, func(a, b leaf[K]) int { return cmp.Compare(a.key, b.key) })
	out := Leaves[K]{Keys: make([]K, len(ls)), Table: make([]int32, len(ls)), Rank: make([]uint32, len(ls))}
	type byDemand struct {
		demand float64
		pos    uint32 // ascends with the key, so it breaks demand ties
	}
	order := make([]byDemand, len(ls))
	for i, l := range ls {
		out.Keys[i], out.Table[i], order[i] = l.key, l.table, byDemand{l.demand, uint32(i)}
	}
	slices.SortFunc(order, func(a, b byDemand) int {
		switch {
		case a.demand > b.demand:
			return -1
		case a.demand < b.demand:
			return 1
		}
		return int(a.pos) - int(b.pos)
	})
	for r, o := range order {
		out.Rank[o.pos] = uint32(r)
	}
	return out
}

// buildIndex indexes the world's client blocks and resolvers under the
// tables buildLayout assigned them, by position in the builder's universe:
// assign[i] is w.LDNSes[i]'s table and assign[len(w.LDNSes)+i]
// w.Blocks[i]'s. It returns with the index the world LDNS in each resolver
// slot. Two resolvers at one address keep the first in world order.
func buildIndex(w *world.World, assign []int32) (*Index, []*world.LDNS) {
	ldnsTable, blockTable := assign[:len(w.LDNSes)], assign[len(w.LDNSes):]
	var v4 []leaf[uint32]
	var v6 []leaf[uint64]
	for i, b := range w.Blocks {
		if a := b.Prefix.Addr().Unmap(); a.Is4() {
			v4 = append(v4, leaf[uint32]{addr32(a) >> 8, blockTable[i], b.Demand})
		} else {
			v6 = append(v6, leaf[uint64]{addr128(a)[0] >> 16, blockTable[i], b.Demand})
		}
	}
	type resolver struct {
		addr  [2]uint64
		table int32
		ldns  *world.LDNS
	}
	rs := make([]resolver, len(w.LDNSes))
	for i, l := range w.LDNSes {
		rs[i] = resolver{addr128(l.Addr), ldnsTable[i], l}
	}
	slices.SortStableFunc(rs, func(a, b resolver) int { return compare128(a.addr, b.addr) })
	rs = slices.CompactFunc(rs, func(a, b resolver) bool { return a.addr == b.addr })
	ix := &Index{
		V4:            newLeaves(v4),
		V6:            newLeaves(v6),
		Resolvers:     make([][2]uint64, len(rs)),
		ResolverTable: make([]int32, len(rs)),
	}
	ldnses := make([]*world.LDNS, len(rs))
	for i, r := range rs {
		ix.Resolvers[i], ix.ResolverTable[i], ldnses[i] = r.addr, r.table, r.ldns
	}
	return ix, ldnses
}

// client returns the table of the highest-demand block inside p — a
// mapping unit, a truncated ECS source, or anything at or below the leaf
// granularity, which is the single leaf holding p. Ties go to the lowest
// leaf key, so the answer is deterministic.
func (ix *Index) client(p netip.Prefix) (int32, bool) {
	if a := p.Addr().Unmap(); a.Is4() {
		return ix.V4.best(addr32(a)>>(32-v4UnitBits), v4UnitBits-p.Bits())
	}
	return ix.V6.best(addr128(p.Addr())[0]>>(64-v6UnitBits), v6UnitBits-p.Bits())
}

// best scans the sorted keys sharing key's bits above the lowest span
// (none when span <= 0: the one leaf equal to key) and returns the table
// of the lowest-ranked among them.
func (l *Leaves[K]) best(key K, span int) (int32, bool) {
	span = max(span, 0)
	best := -1
	i, _ := slices.BinarySearch(l.Keys, key>>span<<span)
	for ; i < len(l.Keys) && l.Keys[i]>>span == key>>span; i++ {
		if best < 0 || l.Rank[i] < l.Rank[best] {
			best = i
		}
	}
	if best < 0 {
		return -1, false
	}
	return l.Table[best], true
}

// resolver returns the slot of a resolver address.
func (ix *Index) resolver(a netip.Addr) (int, bool) {
	return slices.BinarySearchFunc(ix.Resolvers, addr128(a), compare128)
}

// Len returns how many endpoints the index holds: client leaves and
// resolvers.
func (ix *Index) Len() int { return len(ix.V4.Keys) + len(ix.V6.Keys) + len(ix.Resolvers) }

// Prefixes returns up to n client leaves as prefixes, IPv4 first, in key
// order — real client subnets to try a query with.
func (ix *Index) Prefixes(n int) []netip.Prefix {
	var out []netip.Prefix
	for _, k := range ix.V4.Keys[:min(n, len(ix.V4.Keys))] {
		out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(k >> 16), byte(k >> 8), byte(k)}), 24))
	}
	for _, k := range ix.V6.Keys[:min(n-len(out), len(ix.V6.Keys))] {
		var b [16]byte
		for i := 0; i < 6; i++ {
			b[i] = byte(k >> (40 - 8*i))
		}
		out = append(out, netip.PrefixFrom(netip.AddrFrom16(b), 48))
	}
	return out
}

// memoryBytes is the resident size of the index arrays.
func (ix *Index) memoryBytes() uint64 {
	return uint64(len(ix.V4.Keys))*(4+4+4) + uint64(len(ix.V6.Keys))*(8+4+4) +
		uint64(len(ix.Resolvers))*(16+4)
}
