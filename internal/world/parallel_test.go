package world

import (
	"math"
	"runtime"
	"testing"

	"eum/internal/par"
)

// TestGenerateWorkerCountInvariant is the contract that makes parallel
// generation safe: the world must be bit-identical whether one worker or
// many generated it.
func TestGenerateWorkerCountInvariant(t *testing.T) {
	gen := func(workers int) *World {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		return MustGenerate(Config{Seed: 5, NumBlocks: 1500, IPv6Fraction: 0.2})
	}
	w1 := gen(1)
	w8 := gen(8)

	if len(w1.Blocks) != len(w8.Blocks) || len(w1.LDNSes) != len(w8.LDNSes) ||
		len(w1.ASes) != len(w8.ASes) || len(w1.Countries) != len(w8.Countries) {
		t.Fatalf("sizes differ: %d/%d/%d blocks, %d/%d LDNSes",
			len(w1.Blocks), len(w8.Blocks), len(w1.ASes), len(w1.LDNSes), len(w8.LDNSes))
	}
	for i := range w1.Blocks {
		a, b := w1.Blocks[i], w8.Blocks[i]
		if a.ID != b.ID || a.Prefix != b.Prefix || a.Loc != b.Loc ||
			a.City != b.City || a.Access != b.Access ||
			math.Float64bits(a.Demand) != math.Float64bits(b.Demand) ||
			a.AS.ASN != b.AS.ASN || a.LDNS.ID != b.LDNS.ID || a.LDNS.Addr != b.LDNS.Addr {
			t.Fatalf("block %d differs:\n  w1: %+v\n  w8: %+v", i, a, b)
		}
	}
	for i := range w1.LDNSes {
		a, b := w1.LDNSes[i], w8.LDNSes[i]
		if a.ID != b.ID || a.Addr != b.Addr || a.Loc != b.Loc || a.Kind != b.Kind ||
			a.ASN != b.ASN || a.Provider != b.Provider ||
			math.Float64bits(a.Demand) != math.Float64bits(b.Demand) ||
			len(a.Blocks) != len(b.Blocks) {
			t.Fatalf("LDNS %d differs:\n  w1: %+v\n  w8: %+v", i, a, b)
		}
	}
	for i := range w1.ASes {
		a, b := w1.ASes[i], w8.ASes[i]
		if a.ASN != b.ASN || a.Large != b.Large ||
			math.Float64bits(a.Demand) != math.Float64bits(b.Demand) ||
			len(a.CIDRs) != len(b.CIDRs) {
			t.Fatalf("AS %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.CIDRs {
			if a.CIDRs[j] != b.CIDRs[j] {
				t.Fatalf("AS %d CIDR %d differs: %v vs %v", i, j, a.CIDRs[j], b.CIDRs[j])
			}
		}
	}
}

// BenchmarkWorldGenerate measures full-world generation (per-country
// fan-out plus the serial renumbering pass), at one worker and at every
// core: the pairing measures the fan-out speedup, and
// TestGenerateWorkerCountInvariant holds the two to one world.
func BenchmarkWorldGenerate(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			par.SetWorkers(tc.workers)
			defer par.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := MustGenerate(Config{Seed: 3, NumBlocks: 20000, IPv6Fraction: 0.15})
				if len(w.Blocks) == 0 {
					b.Fatal("empty world")
				}
			}
		})
	}
}
