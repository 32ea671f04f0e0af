package mapping

import (
	"cmp"
	"math"
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
// are sorted and flat and searched without allocating on the hot path: a
// v4 leaf takes 3 bytes resident (its span and a u16 table) plus its share
// of its run's 8, an IPv4 resolver 6. The fields are exported because
// internal/mapwire writes and reads them one for one; nothing may modify
// an index once a layout refers to it.
type Index struct {
	V4 Leaves[uint32] // keys: the /24 network, the address's top 24 bits
	V6 Leaves[uint64] // keys: the /48 network, the address's top 48 bits

	// Resolvers4 holds the IPv4 resolver addresses and Resolvers6 the IPv6
	// ones in their 16-byte form, none of them IPv4-mapped, each strictly
	// ascending. A resolver's slot is its place in Resolvers4, or past
	// them its place in Resolvers6, and ResolverTable holds each slot's
	// table.
	Resolvers4    []uint32
	Resolvers6    [][2]uint64
	ResolverTable TableColumn
}

// Leaves is one address family's client leaves, in key order, and the
// span and table of each. The keys are stored as runs: Runs holds the
// first key of each maximal run of consecutive keys, ascending, and
// RunLeaf the leaf that run starts at, so leaf i of a run starting at leaf
// f with key k has key k+(i-f). Leaves rank by block demand, highest
// first, ties to the lower key, and a leaf's span is the widest s (up to
// the family's 24 or 48 bits) at which it ranks first among the leaves
// sharing its key above the low s bits. So every non-empty aligned group
// of 2^s keys holds exactly one leaf of span ≥ s, its highest-demand
// block, and a query coarser than a leaf resolves to that one.
type Leaves[K uint32 | uint64] struct {
	Runs    []K
	RunLeaf []uint32
	Spans   []uint8
	Table   TableColumn
}

// Len returns how many leaves there are.
func (l *Leaves[K]) Len() int { return len(l.Spans) }

// Run returns run r's first key and the leaves [lo, hi) it holds.
func (l *Leaves[K]) Run(r int) (first K, lo, hi int) {
	lo, hi = int(l.RunLeaf[r]), len(l.Spans)
	if r+1 < len(l.RunLeaf) {
		hi = int(l.RunLeaf[r+1])
	}
	return l.Runs[r], lo, hi
}

// Key returns leaf i's network.
func (l *Leaves[K]) Key(i int) K {
	r, found := slices.BinarySearch(l.RunLeaf, uint32(i))
	if !found {
		r--
	}
	first, lo, _ := l.Run(r)
	return first + K(i-lo)
}

// Span returns leaf i's span.
func (l *Leaves[K]) Span(i int) int { return int(l.Spans[i]) }

// MaxNarrowTables is the most tables whose numbers a TableColumn keeps as
// u16s.
const MaxNarrowTables = math.MaxUint16

// TableWidth is the bytes a table number takes in a layout of the given
// table count, in a TableColumn and in a wire image alike: 2 up to
// MaxNarrowTables, 4 past it.
func TableWidth(tables int) int {
	if tables > MaxNarrowTables {
		return 4
	}
	return 2
}

// TableColumn holds a table number per entry, in the width TableWidth
// gives the layout's table count: Narrow for 2 bytes, Wide for 4. An
// empty column may leave both nil.
type TableColumn struct {
	Narrow []uint16
	Wide   []uint32
}

// newTableColumn returns a column of n entries for a layout of the given
// table count.
func newTableColumn(n, tables int) TableColumn {
	if TableWidth(tables) == 4 {
		return TableColumn{Wide: make([]uint32, n)}
	}
	return TableColumn{Narrow: make([]uint16, n)}
}

// At returns entry i's table.
func (c TableColumn) At(i int) int32 {
	if c.Wide != nil {
		return int32(c.Wide[i])
	}
	return int32(c.Narrow[i])
}

// set stores t, one of the layout's tables, as entry i.
func (c TableColumn) set(i int, t int32) {
	if c.Wide != nil {
		c.Wide[i] = uint32(t)
	} else {
		c.Narrow[i] = uint16(t)
	}
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

// newLeaves lays out one family's leaves, whose keys are width bits wide,
// in key order under a layout of the given table count and stamps each
// with its span. A leaf ranks first in every group that holds no better
// leaf, so its span stops one bit short of the longest prefix it shares
// with a better leaf; in key order the nearest better leaves on either side
// share the longest ones. One pass with a stack of the leaves no later
// leaf has beaten yet finds both.
func newLeaves[K uint32 | uint64](ls []leaf[K], width, tables int) Leaves[K] {
	slices.SortFunc(ls, func(a, b leaf[K]) int { return cmp.Compare(a.key, b.key) })
	// better reports whether leaf i ranks before leaf j: more demand, or
	// as much and a lower key.
	better := func(i, j int) bool { return ls[i].demand > ls[j].demand || ls[i].demand == ls[j].demand && i < j }
	// split is the widest span at which leaves i and j still fall in
	// different groups.
	split := func(i, j int) int { return bits.Len64(uint64(ls[i].key^ls[j].key)) - 1 }
	out := Leaves[K]{Spans: make([]uint8, len(ls)), Table: newTableColumn(len(ls), tables)}
	var stack []int
	runs := 0
	for i := range ls {
		out.Spans[i] = uint8(width)
		for len(stack) > 0 && better(i, stack[len(stack)-1]) {
			j := stack[len(stack)-1]
			out.Spans[j] = min(out.Spans[j], uint8(split(i, j)))
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			out.Spans[i] = uint8(split(i, stack[len(stack)-1]))
		}
		stack = append(stack, i)
		out.Table.set(i, ls[i].table)
		if i == 0 || ls[i].key != ls[i-1].key+1 {
			runs++
		}
	}
	out.Runs, out.RunLeaf = make([]K, 0, runs), make([]uint32, 0, runs)
	for i, l := range ls {
		if i == 0 || l.key != ls[i-1].key+1 {
			out.Runs, out.RunLeaf = append(out.Runs, l.key), append(out.RunLeaf, uint32(i))
		}
	}
	return out
}

// buildIndex indexes the world's client blocks and resolvers under the
// tables buildLayout assigned them, of which there are tables, by position
// in the builder's universe: assign[i] is w.LDNSes[i]'s table and
// assign[len(w.LDNSes)+i] w.Blocks[i]'s. Two resolvers at one address keep
// the first in world order.
func buildIndex(w *world.World, assign []int32, tables int) *Index {
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
	type resolver[A any] struct {
		addr  A
		table int32
	}
	var r4 []resolver[uint32]
	var r6 []resolver[[2]uint64]
	for i, l := range w.LDNSes {
		if a := l.Addr.Unmap(); a.Is4() {
			r4 = append(r4, resolver[uint32]{addr32(a), ldnsTable[i]})
		} else {
			r6 = append(r6, resolver[[2]uint64]{addr128(a), ldnsTable[i]})
		}
	}
	slices.SortStableFunc(r4, func(a, b resolver[uint32]) int { return cmp.Compare(a.addr, b.addr) })
	r4 = slices.CompactFunc(r4, func(a, b resolver[uint32]) bool { return a.addr == b.addr })
	slices.SortStableFunc(r6, func(a, b resolver[[2]uint64]) int { return compare128(a.addr, b.addr) })
	r6 = slices.CompactFunc(r6, func(a, b resolver[[2]uint64]) bool { return a.addr == b.addr })
	ix := &Index{
		V4:            newLeaves(v4, v4UnitBits, tables),
		V6:            newLeaves(v6, v6UnitBits, tables),
		Resolvers4:    make([]uint32, len(r4)),
		Resolvers6:    make([][2]uint64, len(r6)),
		ResolverTable: newTableColumn(len(r4)+len(r6), tables),
	}
	for i, r := range r4 {
		ix.Resolvers4[i] = r.addr
		ix.ResolverTable.set(i, r.table)
	}
	for i, r := range r6 {
		ix.Resolvers6[i] = r.addr
		ix.ResolverTable.set(len(r4)+i, r.table)
	}
	return ix
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
// equal to key), found by scanning the group from its lowest key: the
// search finds the run holding or following that key, and the scan walks
// leaf numbers from there, run by run.
func (l *Leaves[K]) best(key K, span int) (int32, bool) {
	span = max(span, 0)
	lo := key >> span << span
	r, found := slices.BinarySearch(l.Runs, lo)
	if !found && r > 0 {
		r-- // the run holding lo, if any
	}
	for ; r < len(l.Runs); r++ {
		first, start, end := l.Run(r)
		for i := start + int(min(max(lo, first)-first, K(end-start))); i < end; i++ {
			if (first+K(i-start))>>span != key>>span {
				return -1, false
			}
			if int(l.Spans[i]) >= span {
				return l.Table.At(i), true
			}
		}
	}
	return -1, false
}

// resolver returns the slot of a resolver address; an IPv4-mapped address
// finds the slot of the IPv4 one.
func (ix *Index) resolver(a netip.Addr) (int, bool) {
	if a = a.Unmap(); a.Is4() {
		return slices.BinarySearch(ix.Resolvers4, addr32(a))
	}
	i, ok := slices.BinarySearchFunc(ix.Resolvers6, addr128(a), compare128)
	return len(ix.Resolvers4) + i, ok
}

// Len returns how many endpoints the index holds: client leaves and
// resolvers.
func (ix *Index) Len() int {
	return ix.V4.Len() + ix.V6.Len() + len(ix.Resolvers4) + len(ix.Resolvers6)
}

// Prefixes returns up to n client leaves as prefixes, IPv4 first, in key
// order — real client subnets to try a query with.
func (ix *Index) Prefixes(n int) []netip.Prefix {
	var out []netip.Prefix
	for i := range min(n, ix.V4.Len()) {
		k := ix.V4.Key(i)
		out = append(out, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(k >> 16), byte(k >> 8), byte(k)}), 24))
	}
	for i := range min(n-len(out), ix.V6.Len()) {
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
	return ix.V4.memoryBytes() + ix.V6.memoryBytes() +
		residentBytes(ix.Resolvers4) + residentBytes(ix.Resolvers6) + ix.ResolverTable.memoryBytes()
}

func (l *Leaves[K]) memoryBytes() uint64 {
	return residentBytes(l.Runs) + residentBytes(l.RunLeaf) + residentBytes(l.Spans) + l.Table.memoryBytes()
}

func (c TableColumn) memoryBytes() uint64 { return residentBytes(c.Narrow) + residentBytes(c.Wide) }

// residentBytes is the resident size of a column: its capacity times its
// element's size.
func residentBytes[E any](col []E) uint64 {
	var e E
	return uint64(cap(col)) * uint64(unsafe.Sizeof(e))
}
