package mapping

import (
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

func newUnitIndexRef(t *testing.T, w *world.World, units UnitPolicy) *unitIndexRef {
	r := &unitIndexRef{rep: map[netip.Prefix]*world.ClientBlock{}, leaf: map[netip.Prefix]*world.ClientBlock{}}
	for _, b := range w.Blocks {
		u := units.UnitFor(b.Prefix.Addr())
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

// blockIndex indexes w with every block its own partition — its position
// in w.Blocks — so a lookup names the block it found.
func blockIndex(w *world.World) *Index {
	assign := make([]int32, len(w.LDNSes)+len(w.Blocks))
	for i := range w.Blocks {
		assign[len(w.LDNSes)+i] = int32(i)
	}
	ix, _ := buildIndex(w, assign)
	return ix
}

// blockIn returns the block a blockIndex lookup of p finds.
func blockIn(ix *Index, w *world.World, p netip.Prefix) (*world.ClientBlock, bool) {
	if part, ok := ix.client(p); ok {
		return w.Blocks[part], true
	}
	return nil, false
}

// TestClientLookupMatchesUnitIndex: the one range query MapAt makes — the
// highest-demand block inside the coarser of unit and query — resolves to
// the partition of the block the mapping-unit index it replaced returned,
// partition for partition and found for found, under identity partitions
// (one block per partition, so the block itself) and under 50-mile
// partitions, with fixed /x units coarser and finer than the leaves, coarse
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
		_, miles50Parts := assigned(sb)
		identity := blockIndex(w)
		pos := make(map[*world.ClientBlock]int32, len(w.Blocks))
		for i, b := range w.Blocks {
			pos[b] = int32(i)
		}
		partitionings := []struct {
			name   string
			ix     *Index
			partOf func(*world.ClientBlock) int32
		}{
			{"identity", identity, func(b *world.ClientBlock) int32 { return pos[b] }},
			{"50-mile", miles50.Index, func(b *world.ClientBlock) int32 { return miles50Parts[pos[b]] }},
		}
		policies := []UnitPolicy{
			PrefixUnits{X: 16}, PrefixUnits{X: 20}, PrefixUnits{X: 22}, PrefixUnits{X: 24}, PrefixUnits{X: 28},
			PrefixUnits{X: 24, X6: 40}, PrefixUnits{X: 24, X6: 56},
			NewCIDRUnits(PrefixUnits{X: 24}, w.BGPCIDRs()),
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
							want, wantOK := ref.lookup(units.UnitFor(q.Addr()), q)
							unit := units.UnitFor(q.Addr())
							if q.Bits() < unit.Bits() {
								unit = q
							}
							got, ok := part.ix.client(unit)
							if ok != wantOK || (ok && got != part.partOf(want)) {
								t.Fatalf("%s world, %s partitions, %v, query %v: partition %d (found %v), the unit index gave block %v (found %v)",
									name, part.name, units, q, got, ok, want, wantOK)
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
// partition buildLayout assigned that block or resolver — the one way the
// figures and the authority ask the map. Checked for every block and
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
					ldnsParts, blockParts := assigned(sb)
					for i, b := range w.Blocks {
						if got, ok := sn.ClientRow(b.Prefix); !ok || !same(got, sn.row(blockParts[i])) {
							t.Fatalf("%d blocks, v6 %g, %g miles, %d targets: block %v reads another row (found %v)",
								size.blocks, v6, miles, targets, b.Prefix, ok)
						}
					}
					for i, l := range w.LDNSes {
						if got, ok := sn.ResolverRow(l.Addr); !ok || !same(got, sn.row(ldnsParts[i])) {
							t.Fatalf("%d blocks, v6 %g, %g miles, %d targets: resolver %v reads another row (found %v)",
								size.blocks, v6, miles, targets, l.Addr, ok)
						}
					}
				}
			}
			t.Logf("%d blocks, %d resolvers, v6 %g: every row by address is the assigned partition's", len(w.Blocks), len(w.LDNSes), v6)
		}
	}
}

// TestCIDRUnitsMixedFamilies: with IPv6 announcements in the BGP table, an
// IPv4 block's unit is still the announcement holding it (the probe for it
// once started at the table's longest IPv6 length and gave up), and so is
// every IPv6 block's.
func TestCIDRUnitsMixedFamilies(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 3, NumBlocks: 3000, IPv6Fraction: 0.3})
	cidrs := w.BGPCIDRs()
	units := NewCIDRUnits(PrefixUnits{X: 24}, cidrs)
	var v4, v6 int
	for _, b := range w.Blocks {
		var holding netip.Prefix
		for _, c := range cidrs {
			if c.Contains(b.Prefix.Addr()) {
				holding = c
				break
			}
		}
		if !holding.IsValid() {
			t.Fatalf("no announcement holds block %v", b.Prefix)
		}
		if got := units.UnitFor(b.Prefix.Addr()); got != holding {
			t.Fatalf("block %v: unit %v, the announcement holding it is %v", b.Prefix, got, holding)
		}
		if b.Prefix.Addr().Is4() {
			v4++
		} else {
			v6++
		}
	}
	if v4 == 0 || v6 == 0 {
		t.Fatalf("%d v4 and %d v6 blocks; want both families", v4, v6)
	}
}
