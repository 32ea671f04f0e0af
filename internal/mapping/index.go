package mapping

import (
	"cmp"
	"math/bits"
	"net/netip"
	"slices"
	"unsafe"

	"eum/internal/world"
)

// Index is the map's lookup from what a query carries to the table whose
// row answers it: client leaves (IPv4 /24s, IPv6 /48s) and resolver
// addresses, each with its table. It is the only per-block state a name
// server holds, so it travels in every full image and a replica answers
// from it without knowing the world the publisher built it from. Arrays
// are sorted and flat — a v4 leaf takes 8 bytes resident, a v6 leaf 12 —
// and searched without allocating on the hot path. The fields are exported
// because internal/mapwire writes and reads them one for one; nothing may
// modify an index once a layout refers to it.
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

// Leaves is one address family's client leaves and the table of each.
// Keys[i] packs a leaf's network above its span: key<<8 | span, strictly
// ascending by key. Leaves rank by block demand, highest first, ties to the
// lower key, and a leaf's span is the widest s (up to the family's 24 or 48
// bits) at which it ranks first among the leaves sharing its key above the
// low s bits. So every non-empty aligned group of 2^s keys holds exactly
// one leaf of span ≥ s, its highest-demand block, and a query coarser than
// a leaf resolves to that one.
type Leaves[K uint32 | uint64] struct {
	Keys  []K
	Table []int32
}

// spanBits is how many low bits of a Leaves key hold the leaf's span.
const spanBits = 8

// Key returns leaf i's network.
func (l *Leaves[K]) Key(i int) K { return l.Keys[i] >> spanBits }

// Span returns leaf i's span.
func (l *Leaves[K]) Span(i int) int { return int(l.Keys[i] & (1<<spanBits - 1)) }

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

// newLeaves lays out one family's leaves, whose keys are width bits wide,
// in key order and stamps each with its span. A leaf ranks first in every
// group that holds no better leaf, so its span stops one bit short of the
// longest prefix it shares with a better leaf; in key order the nearest
// better leaves on either side share the longest ones. One pass with a
// stack of the leaves no later leaf has beaten yet finds both.
func newLeaves[K uint32 | uint64](ls []leaf[K], width int) Leaves[K] {
	slices.SortFunc(ls, func(a, b leaf[K]) int { return cmp.Compare(a.key, b.key) })
	// better reports whether leaf i ranks before leaf j: more demand, or
	// as much and a lower key.
	better := func(i, j int) bool { return ls[i].demand > ls[j].demand || ls[i].demand == ls[j].demand && i < j }
	// split is the widest span at which leaves i and j still fall in
	// different groups.
	split := func(i, j int) int { return bits.Len64(uint64(ls[i].key^ls[j].key)) - 1 }
	span := make([]int, len(ls))
	var stack []int
	for i := range ls {
		span[i] = width
		for len(stack) > 0 && better(i, stack[len(stack)-1]) {
			j := stack[len(stack)-1]
			span[j] = min(span[j], split(i, j))
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			span[i] = split(i, stack[len(stack)-1])
		}
		stack = append(stack, i)
	}
	out := Leaves[K]{Keys: make([]K, len(ls)), Table: make([]int32, len(ls))}
	for i, l := range ls {
		out.Keys[i], out.Table[i] = l.key<<spanBits|K(span[i]), l.table
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
		V4:            newLeaves(v4, v4UnitBits),
		V6:            newLeaves(v6, v6UnitBits),
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

// best returns the table of the leaf that spans the group of keys sharing
// key's bits above the lowest span (none when span <= 0: the one leaf
// equal to key), found by scanning the group from its lowest key.
func (l *Leaves[K]) best(key K, span int) (int32, bool) {
	span = max(span, 0)
	i, _ := slices.BinarySearch(l.Keys, key>>span<<span<<spanBits)
	for ; i < len(l.Keys) && l.Key(i)>>span == key>>span; i++ {
		if l.Span(i) >= span {
			return l.Table[i], true
		}
	}
	return -1, false
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
	for i := range min(n, len(ix.V4.Keys)) {
		k := ix.V4.Key(i)
		out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(k >> 16), byte(k >> 8), byte(k)}), 24))
	}
	for i := range min(n-len(out), len(ix.V6.Keys)) {
		k := ix.V6.Key(i)
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
	return uint64(cap(ix.V4.Keys))*uint64(unsafe.Sizeof(uint32(0))) +
		uint64(cap(ix.V4.Table))*uint64(unsafe.Sizeof(int32(0))) +
		uint64(cap(ix.V6.Keys))*uint64(unsafe.Sizeof(uint64(0))) +
		uint64(cap(ix.V6.Table))*uint64(unsafe.Sizeof(int32(0))) +
		uint64(cap(ix.Resolvers))*uint64(unsafe.Sizeof([2]uint64{})) +
		uint64(cap(ix.ResolverTable))*uint64(unsafe.Sizeof(int32(0)))
}
