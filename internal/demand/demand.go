// Package demand models the client workload the CDN serves: a catalogue of
// content domains with Zipf popularity and page-composition properties, and
// samplers that draw client request events from the world's demand
// distribution. It also provides the coverage-curve analysis of §5.1
// (Fig 21): how many mapping units account for a given share of demand.
package demand

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"eum/internal/world"
)

// Domain is one CDN-hosted content domain.
type Domain struct {
	// Name is the content domain, e.g. "e0042.b.cdn.example.net".
	Name string
	// Popularity is the domain's share of request volume.
	Popularity float64
	// DynamicFraction is how much of TTFB is origin/page-construction
	// work that mapping cannot speed up (§4.1: dynamic base pages are
	// personalised at origin; overlay transport, unaffected by the
	// roll-out, carries that traffic).
	DynamicFraction float64
	// PageBytes is the embedded (cacheable) content size driving the
	// content download time.
	PageBytes int
}

// Catalogue is a set of domains with sampling support.
type Catalogue struct {
	Domains []Domain
	cum     []float64
}

// NewCatalogue builds n domains with Zipf(alpha) popularity. Page sizes
// and dynamic fractions vary deterministically with the seed.
func NewCatalogue(n int, alpha float64, seed int64) (*Catalogue, error) {
	if n <= 0 {
		return nil, fmt.Errorf("demand: catalogue size must be positive, got %d", n)
	}
	if alpha <= 0 {
		alpha = 1
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Catalogue{Domains: make([]Domain, n), cum: make([]float64, n)}
	var total float64
	for i := 0; i < n; i++ {
		pop := 1 / math.Pow(float64(i+1), alpha)
		c.Domains[i] = Domain{
			Name:            fmt.Sprintf("e%04d.b.cdn.example.net", i),
			Popularity:      pop,
			DynamicFraction: 0.35 + 0.4*rng.Float64(),
			PageBytes:       30_000 + rng.Intn(370_000), // 30-400 KB of embedded content
		}
		total += pop
	}
	var cum float64
	for i := range c.Domains {
		c.Domains[i].Popularity /= total
		cum += c.Domains[i].Popularity
		c.cum[i] = cum
	}
	return c, nil
}

// MustNewCatalogue panics on error, for examples and tests.
func MustNewCatalogue(n int, alpha float64, seed int64) *Catalogue {
	c, err := NewCatalogue(n, alpha, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws a domain proportionally to popularity.
func (c *Catalogue) Sample(rng *rand.Rand) Domain {
	u := rng.Float64()
	i := sort.SearchFloat64s(c.cum, u)
	if i >= len(c.Domains) {
		i = len(c.Domains) - 1
	}
	return c.Domains[i]
}

// Sampler draws client blocks proportionally to their demand.
type Sampler struct {
	blocks []*world.ClientBlock
	cum    []float64
}

// NewSampler builds a demand-weighted block sampler over the world.
// The filter, if non-nil, restricts the population (e.g. to clients of
// public resolvers, as the roll-out measurements do).
func NewSampler(w *world.World, filter func(*world.ClientBlock) bool) (*Sampler, error) {
	s := &Sampler{}
	var cum float64
	for _, b := range w.Blocks {
		if filter != nil && !filter(b) {
			continue
		}
		s.blocks = append(s.blocks, b)
		cum += b.Demand
		s.cum = append(s.cum, cum)
	}
	if len(s.blocks) == 0 {
		return nil, fmt.Errorf("demand: no blocks pass the filter")
	}
	return s, nil
}

// Sample draws a block proportionally to demand.
func (s *Sampler) Sample(rng *rand.Rand) *world.ClientBlock {
	u := rng.Float64() * s.cum[len(s.cum)-1]
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.blocks) {
		i = len(s.blocks) - 1
	}
	return s.blocks[i]
}

// Len returns the sampled population size.
func (s *Sampler) Len() int { return len(s.blocks) }

// CoveragePoint is one point of a coverage curve: the top Count units by
// demand jointly account for CumFraction of total demand.
type CoveragePoint struct {
	Count       int
	CumFraction float64
}

// CoverageCurve sorts the given per-unit demands descending and returns
// the cumulative demand fraction at (roughly exponentially spaced) counts —
// Fig 21's "number of client IP blocks or LDNSes that produce a given
// percent of total demand".
func CoverageCurve(demands []float64) []CoveragePoint {
	if len(demands) == 0 {
		return nil
	}
	d := append([]float64{}, demands...)
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	var total float64
	for _, v := range d {
		total += v
	}
	if total == 0 {
		return nil
	}
	var out []CoveragePoint
	var cum float64
	next := 1
	for i, v := range d {
		cum += v
		if i+1 == next || i == len(d)-1 {
			out = append(out, CoveragePoint{Count: i + 1, CumFraction: cum / total})
			next = int(math.Ceil(float64(next) * 1.25))
			if next <= i+1 {
				next = i + 2
			}
		}
	}
	return out
}

// UnitsForCoverage returns how many of the highest-demand units are needed
// to cover the given fraction of total demand (§5.1: covering 95% of
// demand takes 25K LDNSes but 2.2M /24 blocks).
func UnitsForCoverage(demands []float64, fraction float64) int {
	d := append([]float64{}, demands...)
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	var total float64
	for _, v := range d {
		total += v
	}
	if total == 0 {
		return 0
	}
	var cum float64
	for i, v := range d {
		cum += v
		if cum >= fraction*total {
			return i + 1
		}
	}
	return len(d)
}

// BlockDemands extracts per-block demand from the world.
func BlockDemands(w *world.World) []float64 {
	out := make([]float64, 0, len(w.Blocks))
	for _, b := range w.Blocks {
		out = append(out, b.Demand)
	}
	return out
}

// LDNSDemands extracts per-LDNS demand from the world.
func LDNSDemands(w *world.World) []float64 {
	out := make([]float64, 0, len(w.LDNSes))
	for _, l := range w.LDNSes {
		if l.Demand > 0 {
			out = append(out, l.Demand)
		}
	}
	return out
}
