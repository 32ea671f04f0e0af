package mapping

import (
	"cmp"
	"net/netip"
	"slices"
	"unsafe"

	"eum/internal/world"
)

// sysIndex replaces the System's per-endpoint Go maps (leaf prefix → block,
// resolver address → LDNS) with sorted flat arrays and binary search: a few
// bytes per block resident instead of a map entry per block, and
// allocation-free lookups on the query hot path. Indexes refer to blocks and
// LDNSes by position in the world's slices.
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

	// Resolvers, sorted by netip.Addr ordering.
	ldnsAddrs []netip.Addr
	ldnsIdx   []int32
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

// keyed pairs a sort key with the world position it stands for.
type keyed[K any] struct {
	k K
	i int32
}

// sortedIndex sorts the pairs by key and splits them into the key array a
// lookup searches and the positions it returns.
func sortedIndex[K any](ps []keyed[K], compare func(a, b K) int) ([]K, []int32) {
	slices.SortFunc(ps, func(a, b keyed[K]) int { return compare(a.k, b.k) })
	keys, idx := make([]K, len(ps)), make([]int32, len(ps))
	for n, p := range ps {
		keys[n], idx[n] = p.k, p.i
	}
	return keys, idx
}

// buildSysIndex assembles the System's lookup structures from the world.
func buildSysIndex(w *world.World) *sysIndex {
	var leaf4 []keyed[uint32]
	var leaf6 []keyed[uint64]
	for i, b := range w.Blocks {
		if a := b.Prefix.Addr().Unmap(); a.Is4() {
			leaf4 = append(leaf4, keyed[uint32]{addr32(a) >> 8, int32(i)})
		} else {
			hi, _ := addr128(a)
			leaf6 = append(leaf6, keyed[uint64]{hi >> 16, int32(i)})
		}
	}
	la := make([]keyed[netip.Addr], len(w.LDNSes))
	for i, l := range w.LDNSes {
		la[i] = keyed[netip.Addr]{l.Addr, int32(i)}
	}
	ix := &sysIndex{blocks: w.Blocks, ldnses: w.LDNSes}
	ix.leaf4Keys, ix.leaf4Blocks = sortedIndex(leaf4, cmp.Compare[uint32])
	ix.leaf6Keys, ix.leaf6Blocks = sortedIndex(leaf6, cmp.Compare[uint64])
	ix.ldnsAddrs, ix.ldnsIdx = sortedIndex(la, netip.Addr.Compare)
	return ix
}

// blockIn returns the highest-demand known block inside p — a mapping unit,
// a truncated ECS source, or anything at or below the leaf granularity,
// which is the single leaf holding p. Ties go to the lowest leaf key, so
// the answer is deterministic.
func (ix *sysIndex) blockIn(p netip.Prefix) (*world.ClientBlock, bool) {
	a := p.Addr().Unmap()
	var j int32
	if a.Is4() {
		j = bestLeaf(ix, ix.leaf4Keys, ix.leaf4Blocks, addr32(a)>>8, 24-p.Bits())
	} else {
		hi, _ := addr128(a)
		j = bestLeaf(ix, ix.leaf6Keys, ix.leaf6Blocks, hi>>16, 48-p.Bits())
	}
	if j < 0 {
		return nil, false
	}
	return ix.blocks[j], true
}

// bestLeaf scans the sorted leaf keys sharing key's bits above the lowest
// span (none when span <= 0: the one leaf equal to key) and returns the
// position of the highest-demand block among them, or -1.
func bestLeaf[K uint32 | uint64](ix *sysIndex, keys []K, blocks []int32, key K, span int) int32 {
	span = max(span, 0)
	base := key >> span << span
	best := int32(-1)
	i, _ := slices.BinarySearch(keys, base)
	for ; i < len(keys) && keys[i]>>span == key>>span; i++ {
		if j := blocks[i]; best < 0 || ix.blocks[j].Demand > ix.blocks[best].Demand {
			best = j
		}
	}
	return best
}

// ldnsByAddr resolves a resolver address to its LDNS (exact address
// equality, as the map-based index used).
func (ix *sysIndex) ldnsByAddr(addr netip.Addr) (*world.LDNS, bool) {
	if i, ok := slices.BinarySearchFunc(ix.ldnsAddrs, addr, netip.Addr.Compare); ok {
		return ix.ldnses[ix.ldnsIdx[i]], true
	}
	return nil, false
}

// memoryBytes is the resident size of the index arrays (excluding the
// world's own block and LDNS slices, which the index only references).
func (ix *sysIndex) memoryBytes() uint64 {
	return uint64(len(ix.leaf4Keys))*4 + uint64(len(ix.leaf4Blocks))*4 +
		uint64(len(ix.leaf6Keys))*8 + uint64(len(ix.leaf6Blocks))*4 +
		uint64(len(ix.ldnsAddrs))*uint64(unsafe.Sizeof(netip.Addr{})) + uint64(len(ix.ldnsIdx))*4
}
