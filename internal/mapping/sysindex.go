package mapping

import (
	"cmp"
	"net/netip"
	"slices"
	"unsafe"

	"eum/internal/world"
)

// sysIndex replaces the System's per-endpoint Go maps (leaf-prefix → block,
// mapping-unit → representative block, resolver address → LDNS) with
// sorted flat arrays and binary search: a few bytes per block resident
// instead of a map entry per block, and allocation-free lookups on the
// query hot path. Indexes refer to blocks and LDNSes by position in the
// world's slices.
type sysIndex struct {
	blocks []*world.ClientBlock
	ldnses []*world.LDNS

	// Leaf blocks, keyed by the fixed-width network bits per family:
	// the /24 network (addr32 >> 8) for IPv4, the /48 network (top 48 bits)
	// for IPv6. Keys are unique and sorted.
	leaf4Keys   []uint32
	leaf4Blocks []int32
	leaf6Keys   []uint64
	leaf6Blocks []int32

	// Mapping units → highest-demand representative block. IPv4 unit keys
	// pack (network address << 8 | prefix bits) into a uint64; IPv6 units
	// need the full 128-bit address plus bits (unit6Key), compared
	// lexicographically.
	unit4Keys   []uint64
	unit4Blocks []int32
	unit6Keys   []unit6Key
	unit6Blocks []int32

	// Resolvers, sorted by netip.Addr ordering.
	ldnsAddrs []netip.Addr
	ldnsIdx   []int32
}

// unit6Key is an IPv6 mapping-unit key: the masked address and its prefix
// length, ordered lexicographically.
type unit6Key struct {
	hi, lo uint64
	bits   uint8
}

func (k unit6Key) compare(o unit6Key) int {
	if c := cmp.Compare(k.hi, o.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(k.lo, o.lo); c != 0 {
		return c
	}
	return cmp.Compare(k.bits, o.bits)
}

// addr128 splits an address's 16-byte form into two uint64 halves.
func addr128(a netip.Addr) (hi, lo uint64) {
	b := a.As16()
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return hi, lo
}

// addr32 returns an IPv4 address as a big-endian uint32.
func addr32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// unit4KeyFor packs an IPv4 unit prefix into its uint64 index key.
func unit4KeyFor(p netip.Prefix) uint64 {
	return uint64(addr32(p.Addr().Unmap()))<<8 | uint64(uint8(p.Bits()))
}

// unit6KeyFor builds the IPv6 unit index key.
func unit6KeyFor(p netip.Prefix) unit6Key {
	hi, lo := addr128(p.Addr())
	return unit6Key{hi: hi, lo: lo, bits: uint8(p.Bits())}
}

// buildSysIndex assembles the System's lookup structures from the world.
// Temporary maps keep construction O(n); only the sorted arrays stay
// resident.
func buildSysIndex(w *world.World, units UnitPolicy) *sysIndex {
	ix := &sysIndex{blocks: w.Blocks, ldnses: w.LDNSes}

	type p32 struct {
		k   uint32
		idx int32
	}
	type p64 struct {
		k   uint64
		idx int32
	}
	type p128 struct {
		k   unit6Key
		idx int32
	}
	var leaf4 []p32
	var leaf6 []p64
	// Highest-demand representative per unit, first block winning ties —
	// the same rule the map-based index applied in world order.
	rep4 := map[uint64]int32{}
	rep6 := map[unit6Key]int32{}
	for i, b := range w.Blocks {
		a := b.Prefix.Addr().Unmap()
		if a.Is4() {
			leaf4 = append(leaf4, p32{addr32(a) >> 8, int32(i)})
		} else {
			hi, _ := addr128(a)
			leaf6 = append(leaf6, p64{hi >> 16, int32(i)})
		}
		u := units.UnitFor(b.Prefix.Addr())
		ua := u.Addr().Unmap()
		if ua.Is4() {
			k := unit4KeyFor(u)
			if j, ok := rep4[k]; !ok || b.Demand > w.Blocks[j].Demand {
				rep4[k] = int32(i)
			}
		} else {
			k := unit6KeyFor(u)
			if j, ok := rep6[k]; !ok || b.Demand > w.Blocks[j].Demand {
				rep6[k] = int32(i)
			}
		}
	}

	slices.SortFunc(leaf4, func(a, b p32) int { return cmp.Compare(a.k, b.k) })
	ix.leaf4Keys = make([]uint32, len(leaf4))
	ix.leaf4Blocks = make([]int32, len(leaf4))
	for i, e := range leaf4 {
		ix.leaf4Keys[i] = e.k
		ix.leaf4Blocks[i] = e.idx
	}
	slices.SortFunc(leaf6, func(a, b p64) int { return cmp.Compare(a.k, b.k) })
	ix.leaf6Keys = make([]uint64, len(leaf6))
	ix.leaf6Blocks = make([]int32, len(leaf6))
	for i, e := range leaf6 {
		ix.leaf6Keys[i] = e.k
		ix.leaf6Blocks[i] = e.idx
	}

	u4 := make([]p64, 0, len(rep4))
	for k, idx := range rep4 {
		u4 = append(u4, p64{k, idx})
	}
	slices.SortFunc(u4, func(a, b p64) int { return cmp.Compare(a.k, b.k) })
	ix.unit4Keys = make([]uint64, len(u4))
	ix.unit4Blocks = make([]int32, len(u4))
	for i, e := range u4 {
		ix.unit4Keys[i] = e.k
		ix.unit4Blocks[i] = e.idx
	}
	u6 := make([]p128, 0, len(rep6))
	for k, idx := range rep6 {
		u6 = append(u6, p128{k, idx})
	}
	slices.SortFunc(u6, func(a, b p128) int { return a.k.compare(b.k) })
	ix.unit6Keys = make([]unit6Key, len(u6))
	ix.unit6Blocks = make([]int32, len(u6))
	for i, e := range u6 {
		ix.unit6Keys[i] = e.k
		ix.unit6Blocks[i] = e.idx
	}

	type pAddr struct {
		a   netip.Addr
		idx int32
	}
	la := make([]pAddr, len(w.LDNSes))
	for i, l := range w.LDNSes {
		la[i] = pAddr{l.Addr, int32(i)}
	}
	slices.SortFunc(la, func(a, b pAddr) int { return a.a.Compare(b.a) })
	ix.ldnsAddrs = make([]netip.Addr, len(la))
	ix.ldnsIdx = make([]int32, len(la))
	for i, e := range la {
		ix.ldnsAddrs[i] = e.a
		ix.ldnsIdx[i] = e.idx
	}
	return ix
}

// searchU32 returns the position of k in keys, or -1. Manual binary search
// keeps the hot path free of closure allocations.
func searchU32(keys []uint32, k uint32) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(keys) && keys[lo] == k {
		return lo
	}
	return -1
}

// lowerBoundU32 returns the first position whose key is >= k (len(keys)
// when none is). Range scans over the sorted leaf keys use it to find the
// start of a coarse prefix's span.
func lowerBoundU32(keys []uint32, k uint32) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func lowerBoundU64(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func searchU64(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(keys) && keys[lo] == k {
		return lo
	}
	return -1
}

func searchUnit6(keys []unit6Key, k unit6Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m].compare(k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(keys) && keys[lo] == k {
		return lo
	}
	return -1
}

func searchAddr(keys []netip.Addr, a netip.Addr) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m].Compare(a) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(keys) && keys[lo] == a {
		return lo
	}
	return -1
}

// blockByLeaf resolves a leaf prefix key (the /24 or /48 around addr) to
// its client block.
func (ix *sysIndex) blockByLeaf(addr netip.Addr) (*world.ClientBlock, bool) {
	a := addr.Unmap()
	if a.Is4() {
		if i := searchU32(ix.leaf4Keys, addr32(a)>>8); i >= 0 {
			return ix.blocks[ix.leaf4Blocks[i]], true
		}
		return nil, false
	}
	hi, _ := addr128(a)
	if i := searchU64(ix.leaf6Keys, hi>>16); i >= 0 {
		return ix.blocks[ix.leaf6Blocks[i]], true
	}
	return nil, false
}

// coarseRep resolves an ECS prefix coarser than the leaf granularity (a
// truncated /20 from a privacy-limiting public resolver, say) to the
// highest-demand known block inside it, by range-scanning the sorted leaf
// keys across the prefix's span. Exact unit/leaf lookups cannot serve
// this case: they probe only the query's base leaf, which may hold no
// block even when sibling leaves inside the coarse prefix do. Ties go to
// the lowest leaf key, so the answer is deterministic.
func (ix *sysIndex) coarseRep(query netip.Prefix) (*world.ClientBlock, bool) {
	a := query.Addr().Unmap()
	if a.Is4() {
		if query.Bits() >= 24 {
			return ix.blockByLeaf(a)
		}
		span := uint32(1) << (24 - query.Bits())
		base := (addr32(a) >> 8) &^ (span - 1)
		best := int32(-1)
		for i := lowerBoundU32(ix.leaf4Keys, base); i < len(ix.leaf4Keys) && ix.leaf4Keys[i] < base+span; i++ {
			j := ix.leaf4Blocks[i]
			if best < 0 || ix.blocks[j].Demand > ix.blocks[best].Demand {
				best = j
			}
		}
		if best >= 0 {
			return ix.blocks[best], true
		}
		return nil, false
	}
	if query.Bits() >= 48 {
		return ix.blockByLeaf(a)
	}
	span := uint64(1) << (48 - query.Bits())
	hi, _ := addr128(a)
	base := (hi >> 16) &^ (span - 1)
	best := int32(-1)
	for i := lowerBoundU64(ix.leaf6Keys, base); i < len(ix.leaf6Keys) && ix.leaf6Keys[i] < base+span; i++ {
		j := ix.leaf6Blocks[i]
		if best < 0 || ix.blocks[j].Demand > ix.blocks[best].Demand {
			best = j
		}
	}
	if best >= 0 {
		return ix.blocks[best], true
	}
	return nil, false
}

// unitRep resolves a mapping unit to its representative block.
func (ix *sysIndex) unitRep(unit netip.Prefix) (*world.ClientBlock, bool) {
	ua := unit.Addr().Unmap()
	if ua.Is4() {
		if i := searchU64(ix.unit4Keys, unit4KeyFor(unit)); i >= 0 {
			return ix.blocks[ix.unit4Blocks[i]], true
		}
		return nil, false
	}
	if i := searchUnit6(ix.unit6Keys, unit6KeyFor(unit)); i >= 0 {
		return ix.blocks[ix.unit6Blocks[i]], true
	}
	return nil, false
}

// ldnsByAddr resolves a resolver address to its LDNS (exact address
// equality, as the map-based index used).
func (ix *sysIndex) ldnsByAddr(addr netip.Addr) (*world.LDNS, bool) {
	if i := searchAddr(ix.ldnsAddrs, addr); i >= 0 {
		return ix.ldnses[ix.ldnsIdx[i]], true
	}
	return nil, false
}

// memoryBytes is the resident size of the index arrays (excluding the
// world's own block and LDNS slices, which the index only references).
func (ix *sysIndex) memoryBytes() uint64 {
	return uint64(len(ix.leaf4Keys))*4 + uint64(len(ix.leaf4Blocks))*4 +
		uint64(len(ix.leaf6Keys))*8 + uint64(len(ix.leaf6Blocks))*4 +
		uint64(len(ix.unit4Keys))*8 + uint64(len(ix.unit4Blocks))*4 +
		uint64(len(ix.unit6Keys))*uint64(unsafe.Sizeof(unit6Key{})) + uint64(len(ix.unit6Blocks))*4 +
		uint64(len(ix.ldnsAddrs))*uint64(unsafe.Sizeof(netip.Addr{})) + uint64(len(ix.ldnsIdx))*4
}
