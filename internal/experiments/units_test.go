package experiments

import (
	"net/netip"
	"testing"

	"eum/internal/world"
)

func TestPrefixUnits(t *testing.T) {
	addr := netip.MustParseAddr("203.0.113.77")
	if got := prefixUnits(24).unitFor(addr); got != netip.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("unitFor = %v", got)
	}
	if got := prefixUnits(20).unitFor(addr); got != netip.MustParsePrefix("203.0.112.0/20") {
		t.Errorf("/20 unitFor = %v", got)
	}
}

func TestPrefixUnitsSameBlockSameUnit(t *testing.T) {
	u := prefixUnits(24)
	a := u.unitFor(netip.MustParseAddr("10.1.2.3"))
	b := u.unitFor(netip.MustParseAddr("10.1.2.250"))
	if a != b {
		t.Errorf("addresses in one /24 mapped to different units: %v vs %v", a, b)
	}
	c := u.unitFor(netip.MustParseAddr("10.1.3.3"))
	if a == c {
		t.Error("different /24s mapped to the same unit")
	}
}

func TestPrefixUnitsIPv6(t *testing.T) {
	u := prefixUnits(24)
	a6 := netip.MustParseAddr("2600:1234:5678:9abc::1")
	if got := u.unitFor(a6); got != netip.MustParsePrefix("2600:1234:5678::/48") {
		t.Errorf("v6 unit = %v, want /48", got)
	}
	if got := u.unitFor(netip.MustParseAddr("10.1.2.3")); got != netip.MustParsePrefix("10.1.2.0/24") {
		t.Errorf("v4 unit = %v", got)
	}
}

func TestCIDRUnitsLookup(t *testing.T) {
	cidrs := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.1.0/24"), // more specific announcement
		netip.MustParsePrefix("192.168.0.0/20"),
	}
	c := newCIDRUnits(cidrs)

	// Longest-prefix match wins.
	if p, ok := c.lookup(netip.MustParseAddr("10.0.1.7")); !ok || p != cidrs[1] {
		t.Errorf("lookup(10.0.1.7) = %v %v, want %v", p, ok, cidrs[1])
	}
	if p, ok := c.lookup(netip.MustParseAddr("10.0.2.7")); !ok || p != cidrs[0] {
		t.Errorf("lookup(10.0.2.7) = %v %v, want %v", p, ok, cidrs[0])
	}
	// Uncovered address falls back to the base unit.
	if _, ok := c.lookup(netip.MustParseAddr("172.16.0.1")); ok {
		t.Error("lookup found a CIDR for an uncovered address")
	}
	if got := c.unitFor(netip.MustParseAddr("172.16.0.1")); got != netip.MustParsePrefix("172.16.0.0/24") {
		t.Errorf("uncovered unitFor = %v", got)
	}
	if got := c.unitFor(netip.MustParseAddr("192.168.15.9")); got != cidrs[2] {
		t.Errorf("covered unitFor = %v", got)
	}
}

func TestCIDRUnitsEmptyTable(t *testing.T) {
	c := newCIDRUnits(nil)
	if got := c.unitFor(netip.MustParseAddr("10.0.0.1")); got != netip.MustParsePrefix("10.0.0.0/24") {
		t.Errorf("empty-table unitFor = %v", got)
	}
}

// TestCIDRUnitsMixedFamilies: with IPv6 announcements in the BGP table, an
// IPv4 block's unit is still the announcement holding it (the probe for it
// once started at the table's longest IPv6 length and gave up), and so is
// every IPv6 block's.
func TestCIDRUnitsMixedFamilies(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 3, NumBlocks: 3000, IPv6Fraction: 0.3})
	cidrs := w.BGPCIDRs()
	units := newCIDRUnits(cidrs)
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
		if got := units.unitFor(b.Prefix.Addr()); got != holding {
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

func TestCIDRUnitsIPv6(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 2500, IPv6Fraction: 0.3})
	units := newCIDRUnits(w.BGPCIDRs())
	var b *world.ClientBlock
	for _, cand := range w.Blocks {
		if cand.Prefix.Addr().Is6() {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("no v6 blocks")
	}
	u := units.unitFor(b.Prefix.Addr())
	if !u.Contains(b.Prefix.Addr()) {
		t.Fatalf("unit %v does not contain %v", u, b.Prefix.Addr())
	}
	if u.Addr().Is4() {
		t.Fatal("v6 address mapped to v4 unit")
	}
}

func TestCountUnitsMonotoneInPrefix(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 2000})
	prev := 0
	// Fig 22b: coarser prefixes yield fewer units.
	for _, x := range []prefixUnits{8, 12, 16, 20, 24} {
		n := len(unitClusters(w, x.unitFor))
		if n < prev {
			t.Fatalf("/%d units (%d) < coarser count (%d)", x, n, prev)
		}
		prev = n
	}
	// /24 count equals the number of blocks (all distinct /24s).
	if n := len(unitClusters(w, prefixUnits(24).unitFor)); n != len(w.Blocks) {
		t.Errorf("/24 units = %d, want %d", n, len(w.Blocks))
	}
}

func TestCountUnitsMixedFamilies(t *testing.T) {
	// /24+/48 leaf units must count every block once.
	w := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 2500, IPv6Fraction: 0.3})
	if n := len(unitClusters(w, prefixUnits(24).unitFor)); n != len(w.Blocks) {
		t.Errorf("leaf units = %d, want %d", n, len(w.Blocks))
	}
}

func TestCIDRAggregationReducesUnits(t *testing.T) {
	// §5.1: combining /24s within a BGP announcement cuts the unit count
	// several-fold (3.76M -> 444K in the paper).
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 2000})
	plain := len(unitClusters(w, prefixUnits(24).unitFor))
	agg := len(unitClusters(w, newCIDRUnits(w.BGPCIDRs()).unitFor))
	if agg >= plain {
		t.Fatalf("CIDR aggregation did not reduce units: %d -> %d", plain, agg)
	}
	ratio := float64(plain) / float64(agg)
	if ratio < 2 || ratio > 12 {
		t.Errorf("aggregation ratio = %.1f, want ~4-10x", ratio)
	}
}

func TestUnitClustersPartition(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 1000})
	clusters := unitClusters(w, prefixUnits(20).unitFor)
	total := 0
	for unit, blocks := range clusters {
		total += len(blocks)
		for _, b := range blocks {
			if !unit.Contains(b.Prefix.Addr()) {
				t.Fatalf("block %v assigned to unit %v not containing it", b.Prefix, unit)
			}
		}
	}
	if total != len(w.Blocks) {
		t.Errorf("clusters hold %d blocks, want %d", total, len(w.Blocks))
	}
}
