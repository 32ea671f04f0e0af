package mapping

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"eum/internal/cdn"
	"eum/internal/world"
)

// unitIndexRef is the client lookup as a mapping-unit index answered it,
// kept as the reference for the one range query that replaced it: a query
// coarser than its unit resolves to the highest-demand block among the
// leaves inside the query (ties to the lowest leaf); any other to the
// unit's representative — its highest-demand block, ties to the first in
// world order — and failing that to the leaf block holding the address.
type unitIndexRef struct {
	rep  map[netip.Prefix]*world.ClientBlock
	leaf map[netip.Prefix]*world.ClientBlock
}

// unitPolicy names a mapping-unit policy the unit index was built under.
type unitPolicy struct {
	name    string
	unitFor func(netip.Addr) netip.Prefix
}

// prefixUnits maps IPv4 clients to /x blocks and IPv6 clients to /x6.
func prefixUnits(x, x6 int) unitPolicy {
	return unitPolicy{fmt.Sprintf("/%d and /%d units", x, x6), func(a netip.Addr) netip.Prefix {
		a = a.Unmap()
		bits := x
		if a.Is6() {
			bits = x6
		}
		p, _ := a.Prefix(bits)
		return p
	}}
}

// cidrUnits maps clients to the most specific BGP announcement holding
// them, and failing one to their leaf.
func cidrUnits(cidrs []netip.Prefix) unitPolicy {
	set := map[netip.Prefix]bool{}
	for _, c := range cidrs {
		set[c.Masked()] = true
	}
	return unitPolicy{"BGP-CIDR units", func(a netip.Addr) netip.Prefix {
		a = a.Unmap()
		for bits := a.BitLen(); bits >= 0; bits-- {
			if p, _ := a.Prefix(bits); set[p] {
				return p
			}
		}
		return leafOf(a)
	}}
}

func newUnitIndexRef(t *testing.T, w *world.World, units unitPolicy) *unitIndexRef {
	r := &unitIndexRef{rep: map[netip.Prefix]*world.ClientBlock{}, leaf: map[netip.Prefix]*world.ClientBlock{}}
	for _, b := range w.Blocks {
		u := units.unitFor(b.Prefix.Addr())
		if cur, ok := r.rep[u]; !ok || b.Demand > cur.Demand {
			r.rep[u] = b
		}
		l := leafOf(b.Prefix.Addr())
		if _, dup := r.leaf[l]; dup {
			t.Fatalf("two blocks in leaf %v", l)
		}
		r.leaf[l] = b
	}
	return r
}

// leafOf returns the /24 or /48 holding a.
func leafOf(a netip.Addr) netip.Prefix {
	a = a.Unmap()
	bits := 48
	if a.Is4() {
		bits = 24
	}
	p, _ := a.Prefix(bits)
	return p
}

func (r *unitIndexRef) lookup(unit, query netip.Prefix) (*world.ClientBlock, bool) {
	if query.Bits() < unit.Bits() {
		return r.coarse(query)
	}
	if b, ok := r.rep[unit]; ok {
		return b, true
	}
	b, ok := r.leaf[leafOf(query.Addr())]
	return b, ok
}

// coarse walks every leaf inside q in ascending order.
func (r *unitIndexRef) coarse(q netip.Prefix) (*world.ClientBlock, bool) {
	l := leafOf(q.Addr())
	if q.Bits() >= l.Bits() {
		b, ok := r.leaf[l]
		return b, ok
	}
	var best *world.ClientBlock
	a := q.Masked().Addr()
	for n := 1 << (l.Bits() - q.Bits()); n > 0; n-- {
		if b, ok := r.leaf[leafOf(a)]; ok && (best == nil || b.Demand > best.Demand) {
			best = b
		}
		a = nextLeaf(a)
	}
	return best, best != nil
}

// nextLeaf returns the first address of the leaf after a's.
func nextLeaf(a netip.Addr) netip.Addr {
	if a.Is4() {
		b := a.As4()
		i := 2 // the last byte of a /24
		for ; b[i] == 0xff; i-- {
			b[i] = 0
		}
		b[i]++
		return netip.AddrFrom4(b)
	}
	b := a.As16()
	i := 5 // the last byte of a /48
	for ; b[i] == 0xff; i-- {
		b[i] = 0
	}
	b[i]++
	return netip.AddrFrom16(b)
}

// blockIndex indexes w with every block its own table — its position in
// w.Blocks — so a lookup names the block it found.
func blockIndex(w *world.World) *Index {
	assign := make([]int32, len(w.LDNSes)+len(w.Blocks))
	for i := range w.Blocks {
		assign[len(w.LDNSes)+i] = int32(i)
	}
	return buildIndex(w, assign)
}

// blockIn returns the block a blockIndex lookup of p finds.
func blockIn(ix *Index, w *world.World, p netip.Prefix) (*world.ClientBlock, bool) {
	if i, ok := ix.client(p); ok {
		return w.Blocks[i], true
	}
	return nil, false
}

// TestLeafSpansNameGroupBest: in an index of block positions, at every
// level of each family and in every non-empty aligned group of leaves there,
// exactly one leaf spans the group, and it is the group's best block by a
// brute-force scan — highest demand, ties to the lowest key — on a v4-only
// Small world and on one with 30 % IPv6 blocks.
func TestLeafSpansNameGroupBest(t *testing.T) {
	for name, w := range map[string]*world.World{"v4": smallLab().World, "mixed": v6World} {
		ix := blockIndex(w)
		groups := checkSpans(t, name+" IPv4", w, &ix.V4, v4UnitBits) +
			checkSpans(t, name+" IPv6", w, &ix.V6, v6UnitBits)
		t.Logf("%s: %d IPv4 and %d IPv6 leaves, %d groups checked", name, len(ix.V4.Keys), len(ix.V6.Keys), groups)
		if name == "mixed" && len(ix.V6.Keys) == 0 {
			t.Fatal("the mixed world has no IPv6 leaves")
		}
	}
}

// checkSpans checks one family's spans, whose keys are width bits wide,
// group by group against a scan of the blocks each leaf indexes, and returns
// how many groups it checked.
func checkSpans[K uint32 | uint64](t *testing.T, name string, w *world.World, l *Leaves[K], width int) int {
	t.Helper()
	groups := 0
	for s := 0; s <= width; s++ {
		for lo := 0; lo < len(l.Keys); {
			hi, best, spanning := lo, lo, 0
			for ; hi < len(l.Keys) && l.Key(hi)>>s == l.Key(lo)>>s; hi++ {
				if w.Blocks[l.Table[hi]].Demand > w.Blocks[l.Table[best]].Demand {
					best = hi
				}
				if l.Span(hi) >= s {
					spanning++
				}
			}
			if spanning != 1 || l.Span(best) < s {
				t.Fatalf("%s: the /%d group of leaves %d..%d has %d spanning leaves; its best, leaf %d, spans %d",
					name, width-s, lo, hi-1, spanning, best, l.Span(best))
			}
			groups++
			lo = hi
		}
	}
	return groups
}

// TestClientLookupMatchesUnitIndex: the one range query MapAt makes — the
// highest-demand block inside the coarser of unit and query — resolves to
// the table of the block the mapping-unit index it replaced returned, table
// for table and found for found, under an index of block positions (one
// block per table, so the block itself: the leaf-exact reference) and under
// 50-mile partitions, with fixed /x units coarser and finer than the leaves, coarse
// and fine IPv6 units, and BGP-CIDR units, on a v4-only and a mixed world,
// for queries at and around every block.
func TestClientLookupMatchesUnitIndex(t *testing.T) {
	worlds := map[string]*world.World{
		"v4":    world.MustGenerate(world.Config{Seed: 3, NumBlocks: 2000}),
		"mixed": world.MustGenerate(world.Config{Seed: 3, NumBlocks: 2000, IPv6Fraction: 0.3}),
	}
	for name, w := range worlds {
		p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 3, NumDeployments: 60, ServersPerDeployment: 2})
		sb := NewSnapshotBuilder(w, p, testNet, Config{PingTargets: 200, PartitionMiles: 50})
		sb.mu.Lock()
		miles50 := sb.layoutLocked()
		sb.mu.Unlock()
		_, miles50Tables := assigned(sb)
		identity := blockIndex(w)
		pos := make(map[*world.ClientBlock]int32, len(w.Blocks))
		for i, b := range w.Blocks {
			pos[b] = int32(i)
		}
		partitionings := []struct {
			name    string
			ix      *Index
			tableOf func(*world.ClientBlock) int32
		}{
			{"identity", identity, func(b *world.ClientBlock) int32 { return pos[b] }},
			{"50-mile", miles50.Index, func(b *world.ClientBlock) int32 { return miles50Tables[pos[b]] }},
		}
		policies := []unitPolicy{
			prefixUnits(16, 48), prefixUnits(20, 48), prefixUnits(22, 48), prefixUnits(24, 48), prefixUnits(28, 48),
			prefixUnits(24, 40), prefixUnits(24, 56),
			cidrUnits(w.BGPCIDRs()),
		}
		for _, part := range partitionings {
			lookups, found := 0, 0
			for _, units := range policies {
				ref := newUnitIndexRef(t, w, units)
				for _, b := range w.Blocks {
					a := b.Prefix.Addr()
					bits := []int{32, 24, 21, 20, 16}
					if a.Is6() {
						bits = []int{64, 56, 48, 40}
					}
					// A host inside the block, and one in the next leaf, which
					// is often unknown.
					for _, host := range []netip.Addr{a.Next().Next(), nextLeaf(a)} {
						for _, n := range bits {
							q, _ := host.Prefix(n)
							want, wantOK := ref.lookup(units.unitFor(q.Addr()), q)
							unit := units.unitFor(q.Addr())
							if q.Bits() < unit.Bits() {
								unit = q
							}
							got, ok := part.ix.client(unit)
							if ok != wantOK || (ok && got != part.tableOf(want)) {
								t.Fatalf("%s world, %s partitions, %v, query %v: table %d (found %v), the unit index gave block %v (found %v)",
									name, part.name, units.name, q, got, ok, want, wantOK)
							}
							lookups++
							if ok {
								found++
							}
						}
					}
				}
			}
			if found == 0 || found == lookups {
				t.Fatalf("%s world, %s partitions: %d of %d lookups found a block; want both outcomes", name, part.name, found, lookups)
			}
			t.Logf("%s world, %s partitions: %d lookups, %d found a block, 0 differences", name, part.name, lookups, found)
		}
	}
}

// TestRowsByAddressMatchAssignedPartitions: every world block's subnet and
// every world resolver's address is in the map, and reads the row of the
// table buildLayout gave that block's or resolver's partition — the one
// way the figures and the authority ask the map. Checked for every block and
// resolver of the Small and Full labs' sizes (seed 1), v4-only and with
// 30% IPv6 blocks, under identity and 50-mile partitions, at one ping
// target per ten blocks — and at the Small size at 800 targets and with
// clustering off too, where every partition has a row of its own.
func TestRowsByAddressMatchAssignedPartitions(t *testing.T) {
	same := func(a, b Row) bool { return slices.Equal(a.Head, b.Head) && slices.Equal(a.Tail, b.Tail) }
	sizes := []struct {
		blocks, deps int
		targets      []int
	}{{4000, 400, []int{0, 800, 400}}, {20000, 2642, []int{2000}}}
	for _, size := range sizes {
		for _, v6 := range []float64{0, 0.3} {
			w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: size.blocks, IPv6Fraction: v6})
			p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: size.deps, ServersPerDeployment: 8})
			for _, miles := range []float64{0, 50} {
				for _, targets := range size.targets {
					sb := NewSnapshotBuilder(w, p, testNet, Config{PingTargets: targets, PartitionMiles: miles})
					sn := sb.Build(1, EndUser)
					ldnsTables, blockTables := assigned(sb)
					for i, b := range w.Blocks {
						if got, ok := sn.ClientRow(b.Prefix); !ok || !same(got, sn.row(blockTables[i])) {
							t.Fatalf("%d blocks, v6 %g, %g miles, %d targets: block %v reads another row (found %v)",
								size.blocks, v6, miles, targets, b.Prefix, ok)
						}
					}
					for i, l := range w.LDNSes {
						if got, ok := sn.ResolverRow(l.Addr); !ok || !same(got, sn.row(ldnsTables[i])) {
							t.Fatalf("%d blocks, v6 %g, %g miles, %d targets: resolver %v reads another row (found %v)",
								size.blocks, v6, miles, targets, l.Addr, ok)
						}
					}
				}
			}
			t.Logf("%d blocks, %d resolvers, v6 %g: every row by address is its partition's table's", len(w.Blocks), len(w.LDNSes), v6)
		}
	}
}
