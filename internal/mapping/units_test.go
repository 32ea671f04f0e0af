package mapping

import (
	"net/netip"
	"testing"

	"eum/internal/world"
)

func TestPrefixUnits(t *testing.T) {
	u := PrefixUnits{X: 24}
	addr := netip.MustParseAddr("203.0.113.77")
	if got := u.UnitFor(addr); got != netip.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("UnitFor = %v", got)
	}
	u20 := PrefixUnits{X: 20}
	if got := u20.UnitFor(addr); got != netip.MustParsePrefix("203.0.112.0/20") {
		t.Errorf("/20 UnitFor = %v", got)
	}
}

func TestPrefixUnitsSameBlockSameUnit(t *testing.T) {
	u := PrefixUnits{X: 24}
	a := u.UnitFor(netip.MustParseAddr("10.1.2.3"))
	b := u.UnitFor(netip.MustParseAddr("10.1.2.250"))
	if a != b {
		t.Errorf("addresses in one /24 mapped to different units: %v vs %v", a, b)
	}
	c := u.UnitFor(netip.MustParseAddr("10.1.3.3"))
	if a == c {
		t.Error("different /24s mapped to the same unit")
	}
}

func TestCIDRUnitsLookup(t *testing.T) {
	cidrs := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.1.0/24"), // more specific announcement
		netip.MustParsePrefix("192.168.0.0/20"),
	}
	c := NewCIDRUnits(PrefixUnits{X: 24}, cidrs)

	// Longest-prefix match wins.
	if p, ok := c.Lookup(netip.MustParseAddr("10.0.1.7")); !ok || p != cidrs[1] {
		t.Errorf("Lookup(10.0.1.7) = %v %v, want %v", p, ok, cidrs[1])
	}
	if p, ok := c.Lookup(netip.MustParseAddr("10.0.2.7")); !ok || p != cidrs[0] {
		t.Errorf("Lookup(10.0.2.7) = %v %v, want %v", p, ok, cidrs[0])
	}
	// Uncovered address falls back to the base unit.
	if _, ok := c.Lookup(netip.MustParseAddr("172.16.0.1")); ok {
		t.Error("Lookup found a CIDR for an uncovered address")
	}
	if got := c.UnitFor(netip.MustParseAddr("172.16.0.1")); got != netip.MustParsePrefix("172.16.0.0/24") {
		t.Errorf("uncovered UnitFor = %v", got)
	}
	if got := c.UnitFor(netip.MustParseAddr("192.168.15.9")); got != cidrs[2] {
		t.Errorf("covered UnitFor = %v", got)
	}
}

func TestCIDRUnitsEmptyTable(t *testing.T) {
	c := NewCIDRUnits(PrefixUnits{X: 24}, nil)
	if got := c.UnitFor(netip.MustParseAddr("10.0.0.1")); got != netip.MustParsePrefix("10.0.0.0/24") {
		t.Errorf("empty-table UnitFor = %v", got)
	}
}

func TestCountUnitsMonotoneInPrefix(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 2000})
	prev := 0
	// Fig 22b: coarser prefixes yield fewer units.
	for _, x := range []uint8{8, 12, 16, 20, 24} {
		n := CountUnits(w, PrefixUnits{X: x})
		if n < prev {
			t.Fatalf("/%d units (%d) < coarser count (%d)", x, n, prev)
		}
		prev = n
	}
	// /24 count equals the number of blocks (all distinct /24s).
	if n := CountUnits(w, PrefixUnits{X: 24}); n != len(w.Blocks) {
		t.Errorf("/24 units = %d, want %d", n, len(w.Blocks))
	}
}

func TestCIDRAggregationReducesUnits(t *testing.T) {
	// §5.1: combining /24s within a BGP announcement cuts the unit count
	// several-fold (3.76M -> 444K in the paper).
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 2000})
	plain := CountUnits(w, PrefixUnits{X: 24})
	agg := CountUnits(w, NewCIDRUnits(PrefixUnits{X: 24}, w.BGPCIDRs()))
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
	clusters := UnitClusters(w, PrefixUnits{X: 20})
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
