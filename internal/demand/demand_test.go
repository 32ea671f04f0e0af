package demand

import (
	"math"
	"math/rand"
	"testing"

	"eum/internal/world"
)

var testW = world.MustGenerate(world.Config{Seed: 31, NumBlocks: 2000})

func TestNewCatalogue(t *testing.T) {
	c := MustNewCatalogue(100, 1.0, 1)
	if len(c.Domains) != 100 {
		t.Fatalf("domains = %d", len(c.Domains))
	}
	var sum float64
	for i, d := range c.Domains {
		sum += d.Popularity
		if d.Name == "" || d.PageBytes <= 0 {
			t.Fatalf("domain %d malformed: %+v", i, d)
		}
		if d.DynamicFraction < 0.3 || d.DynamicFraction > 0.8 {
			t.Errorf("dynamic fraction %v out of range", d.DynamicFraction)
		}
		if i > 0 && d.Popularity > c.Domains[i-1].Popularity {
			t.Error("popularity not descending")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("popularity sums to %v", sum)
	}
}

func TestNewCatalogueErrors(t *testing.T) {
	if _, err := NewCatalogue(0, 1, 1); err == nil {
		t.Error("zero-size catalogue accepted")
	}
}

func TestCatalogueSampleDistribution(t *testing.T) {
	c := MustNewCatalogue(50, 1.0, 2)
	rng := rand.New(rand.NewSource(3))
	counts := map[string]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[c.Sample(rng).Name]++
	}
	// Top domain should be sampled roughly at its popularity.
	top := c.Domains[0]
	got := float64(counts[top.Name]) / float64(n)
	if math.Abs(got-top.Popularity) > 0.05 {
		t.Errorf("top domain sampled at %.3f, want ~%.3f", got, top.Popularity)
	}
	// And far more often than the tail.
	tail := c.Domains[len(c.Domains)-1]
	if counts[top.Name] <= counts[tail.Name] {
		t.Error("Zipf head not dominant")
	}
}

func TestSampler(t *testing.T) {
	s, err := NewSampler(testW, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(testW.Blocks) {
		t.Errorf("sampler len = %d", s.Len())
	}
	rng := rand.New(rand.NewSource(4))
	counts := map[uint64]int{}
	for i := 0; i < 30000; i++ {
		counts[s.Sample(rng).ID]++
	}
	// A top-demand block must be sampled more often than a bottom one.
	var hi, lo *world.ClientBlock
	for _, b := range testW.Blocks {
		if hi == nil || b.Demand > hi.Demand {
			hi = b
		}
		if lo == nil || b.Demand < lo.Demand {
			lo = b
		}
	}
	if counts[hi.ID] <= counts[lo.ID] {
		t.Errorf("demand weighting broken: hi=%d lo=%d", counts[hi.ID], counts[lo.ID])
	}
}

func TestSamplerFilter(t *testing.T) {
	s, err := NewSampler(testW, func(b *world.ClientBlock) bool { return b.LDNS.IsPublic() })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		if !s.Sample(rng).LDNS.IsPublic() {
			t.Fatal("filter violated")
		}
	}
}

func TestSamplerEmptyFilter(t *testing.T) {
	if _, err := NewSampler(testW, func(*world.ClientBlock) bool { return false }); err == nil {
		t.Error("empty population accepted")
	}
}

func TestCoverageCurve(t *testing.T) {
	demands := []float64{50, 25, 15, 5, 3, 2}
	pts := CoverageCurve(demands)
	if len(pts) == 0 {
		t.Fatal("empty curve")
	}
	if pts[0].Count != 1 || math.Abs(pts[0].CumFraction-0.5) > 1e-9 {
		t.Errorf("first point = %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Count != len(demands) || math.Abs(last.CumFraction-1) > 1e-9 {
		t.Errorf("last point = %+v", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Count <= pts[i-1].Count || pts[i].CumFraction < pts[i-1].CumFraction {
			t.Fatal("curve not monotone")
		}
	}
	if CoverageCurve(nil) != nil {
		t.Error("nil input should give nil curve")
	}
}

func TestUnitsForCoverage(t *testing.T) {
	demands := []float64{50, 25, 15, 5, 3, 2}
	cases := []struct {
		frac float64
		want int
	}{{0.5, 1}, {0.75, 2}, {0.9, 3}, {1.0, 6}}
	for _, c := range cases {
		if got := UnitsForCoverage(demands, c.frac); got != c.want {
			t.Errorf("UnitsForCoverage(%.2f) = %d, want %d", c.frac, got, c.want)
		}
	}
	if UnitsForCoverage(nil, 0.5) != 0 {
		t.Error("empty demands should need 0 units")
	}
}

func TestLDNSCoverageSteeperThanBlocks(t *testing.T) {
	// Fig 21: covering 95% of demand takes far fewer LDNSes than /24
	// blocks, because each LDNS aggregates many blocks.
	blocks := BlockDemands(testW)
	ldns := LDNSDemands(testW)
	nb := UnitsForCoverage(blocks, 0.95)
	nl := UnitsForCoverage(ldns, 0.95)
	if nl >= nb {
		t.Errorf("95%% coverage: LDNSes (%d) should be far fewer than blocks (%d)", nl, nb)
	}
	if float64(nb)/float64(nl) < 3 {
		t.Errorf("coverage ratio = %.1f, want >= 3", float64(nb)/float64(nl))
	}
}
