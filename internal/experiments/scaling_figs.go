package experiments

import (
	"fmt"
	"net/netip"
	"sort"

	"eum/internal/demand"
	"eum/internal/geo"
	"eum/internal/par"
	"eum/internal/stats"
	"eum/internal/world"
)

// Fig02QueryVolume reproduces Fig 2: client requests served versus DNS
// queries resolved by the mapping system, as daily rates over a 12-day
// window (the paper shows Jan 07-19). No roll-out happens in this window;
// the figure's point is the ~20:1 ratio between the two rates.
func Fig02QueryVolume(lab *Lab, scale Scale) ([]QueryRatePoint, *Report, error) {
	cfg := defaultQueryRateConfig()
	cfg.Days = 12
	cfg.RolloutStartDay, cfg.RolloutEndDay = 10000, 10001 // never
	if scale == Small {
		cfg.EventsPerWindow = 120000
	}
	pts, err := runQueryRate(lab.World, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:      "fig02",
		Caption: "Client requests vs DNS queries resolved (per second, simulated units)",
		Columns: []string{"day", "client-req-ps", "dns-queries-ps", "ratio"},
	}
	for _, p := range pts {
		rep.Rows = append(rep.Rows, row(p.Day, p.ClientQPS, p.AuthQPS, p.ClientQPS/p.AuthQPS))
	}
	return pts, rep, nil
}

// Fig21Result holds the Fig 21 coverage curves and the paper's headline
// coverage counts.
type Fig21Result struct {
	BlockCurve []demand.CoveragePoint
	LDNSCurve  []demand.CoveragePoint
	// Blocks50/95 and LDNS50/95 are the unit counts covering 50%/95% of
	// demand.
	Blocks50, Blocks95 int
	LDNS50, LDNS95     int
}

// Fig21MappingUnitCoverage reproduces Fig 21: how many /24 client blocks
// versus LDNSes account for a given percent of total demand — the scale
// gap end-user mapping must absorb (§5.1).
func Fig21MappingUnitCoverage(lab *Lab) (*Fig21Result, *Report) {
	blocks := demand.BlockDemands(lab.World)
	ldns := demand.LDNSDemands(lab.World)
	res := &Fig21Result{
		BlockCurve: demand.CoverageCurve(blocks),
		LDNSCurve:  demand.CoverageCurve(ldns),
		Blocks50:   demand.UnitsForCoverage(blocks, 0.50),
		Blocks95:   demand.UnitsForCoverage(blocks, 0.95),
		LDNS50:     demand.UnitsForCoverage(ldns, 0.50),
		LDNS95:     demand.UnitsForCoverage(ldns, 0.95),
	}
	rep := &Report{
		ID:      "fig21",
		Caption: "Units needed to cover demand: /24 blocks vs LDNSes",
		Columns: []string{"coverage", "blocks", "ldnses", "ratio"},
	}
	rep.Rows = append(rep.Rows,
		row("50%", res.Blocks50, res.LDNS50, float64(res.Blocks50)/float64(res.LDNS50)),
		row("95%", res.Blocks95, res.LDNS95, float64(res.Blocks95)/float64(res.LDNS95)),
	)
	return res, rep
}

// Fig22Row is one prefix length's trade-off point: unit count versus
// cluster compactness.
type Fig22Row struct {
	PrefixBits int
	// Units is the number of /x clusters with non-zero demand (Fig 22b).
	Units int
	// RadiusP50 is the demand-weighted median cluster radius (Fig 22a).
	RadiusP50 float64
	// Within100mi is the fraction of demand in clusters of radius
	// <= 100 miles.
	Within100mi float64
}

// Fig22PrefixTradeoff reproduces Fig 22: coarser /x client blocks shrink
// the number of mapping units but grow the cluster radius, costing
// accuracy. It also reports the BGP-CIDR aggregation point of §5.1.
func Fig22PrefixTradeoff(lab *Lab) ([]Fig22Row, *Report) {
	rep := &Report{
		ID:      "fig22",
		Caption: "Mapping-unit trade-off per /x prefix length",
		Columns: []string{"prefix", "units", "median-radius-mi", "pct-demand-radius<=100mi"},
	}
	// One worker per prefix length. Cluster keys are visited in sorted
	// order, not map order, so the radius dataset's sample order (and thus
	// its weighted percentiles) is deterministic.
	lengths := []int{8, 10, 12, 14, 16, 18, 20, 22, 24}
	out := par.Map(len(lengths), func(i int) Fig22Row {
		bits := lengths[i]
		clusters := unitClusters(lab.World, prefixUnits(bits).unitFor)
		keys := make([]netip.Prefix, 0, len(clusters))
		for k := range clusters {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if c := keys[a].Addr().Compare(keys[b].Addr()); c != 0 {
				return c < 0
			}
			return keys[a].Bits() < keys[b].Bits()
		})
		var radii stats.Dataset
		for _, k := range keys {
			var pts []geo.Weighted
			var w float64
			for _, b := range clusters[k] {
				pts = append(pts, geo.Weighted{Point: b.Loc, Weight: b.Demand})
				w += b.Demand
			}
			radii.Add(geo.Radius(pts), w)
		}
		return Fig22Row{
			PrefixBits:  bits,
			Units:       len(clusters),
			RadiusP50:   radii.Median(),
			Within100mi: radii.FractionAtOrBelow(100),
		}
	})
	for _, r := range out {
		rep.Rows = append(rep.Rows, row(fmt.Sprintf("/%d", r.PrefixBits), r.Units, r.RadiusP50, 100*r.Within100mi))
	}
	// BGP-CIDR aggregation of /24s (the §5.1 heuristic).
	cidr := newCIDRUnits(lab.World.BGPCIDRs())
	rep.Rows = append(rep.Rows, row("cidr(24)", len(unitClusters(lab.World, cidr.unitFor)), "", ""))
	return out, rep
}

// prefixUnits is a /x mapping-unit policy (§5.1): an IPv4 client maps to
// its /x block, an IPv6 client to its /48. The server's own units are /24
// and /48; coarser ones trade accuracy for fewer units (Fig 22).
type prefixUnits int

// unitFor returns the mapping unit holding addr.
func (x prefixUnits) unitFor(addr netip.Addr) netip.Prefix {
	addr = addr.Unmap()
	bits := int(x)
	if addr.Is6() {
		bits = 48
	}
	p, _ := addr.Prefix(bits)
	return p
}

// cidrUnits maps clients to BGP-announced CIDRs: /24 blocks within the same
// announcement are combined, since they are likely proximal in the network
// sense (§5.1 reduced 3.76M /24 blocks to 444K units this way). Addresses
// not covered by any announcement fall back to their /24 or /48.
type cidrUnits struct {
	// set indexes announced CIDRs for longest-prefix matching; minBits
	// and maxBits bound the probe range.
	set              map[netip.Prefix]bool
	minBits, maxBits int
}

// newCIDRUnits builds a CIDR-aggregating unit policy from a BGP table.
func newCIDRUnits(cidrs []netip.Prefix) *cidrUnits {
	c := &cidrUnits{set: make(map[netip.Prefix]bool, len(cidrs)), minBits: 32, maxBits: 0}
	for _, p := range cidrs {
		p = p.Masked()
		c.set[p] = true
		c.minBits = min(c.minBits, p.Bits())
		c.maxBits = max(c.maxBits, p.Bits())
	}
	return c
}

// lookup returns the most specific announced CIDR containing addr. The
// probe starts no longer than addr's own family allows: a table holding
// IPv6 announcements longer than /32 must still match IPv4 addresses.
func (c *cidrUnits) lookup(addr netip.Addr) (netip.Prefix, bool) {
	addr = addr.Unmap()
	for bits := min(c.maxBits, addr.BitLen()); bits >= c.minBits; bits-- {
		p, err := addr.Prefix(bits)
		if err != nil {
			return netip.Prefix{}, false
		}
		if c.set[p] {
			return p, true
		}
	}
	return netip.Prefix{}, false
}

// unitFor returns the covering CIDR when one exists, else the /24 or /48.
func (c *cidrUnits) unitFor(addr netip.Addr) netip.Prefix {
	if p, ok := c.lookup(addr); ok {
		return p
	}
	return prefixUnits(24).unitFor(addr)
}

// unitClusters groups the world's client blocks by the mapping unit unitFor
// puts each in: the cluster-radius analysis of Fig 22a, and by its length
// the unit count of Fig 22b.
func unitClusters(w *world.World, unitFor func(netip.Addr) netip.Prefix) map[netip.Prefix][]*world.ClientBlock {
	out := map[netip.Prefix][]*world.ClientBlock{}
	for _, b := range w.Blocks {
		k := unitFor(b.Prefix.Addr())
		out[k] = append(out[k], b)
	}
	return out
}

// Fig23QueryRateIncrease reproduces Fig 23: total DNS queries per second
// at the authoritative name servers across the roll-out, with the public
// resolver component broken out.
func Fig23QueryRateIncrease(lab *Lab, scale Scale) ([]QueryRatePoint, *Report, error) {
	cfg := defaultQueryRateConfig()
	if scale == Small {
		cfg.Days = 30
		cfg.RolloutStartDay, cfg.RolloutEndDay = 12, 18
		cfg.EventsPerWindow = 60000
	}
	pts, err := runQueryRate(lab.World, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:      "fig23",
		Caption: "Authoritative DNS queries per second across the roll-out",
		Columns: []string{"day", "total-qps", "public-qps"},
	}
	for i, p := range pts {
		if i%max(1, len(pts)/30) == 0 || i == len(pts)-1 {
			rep.Rows = append(rep.Rows, row(p.Day, p.AuthQPS, p.PublicAuthQPS))
		}
	}
	pre, post := pts[cfg.RolloutStartDay/2], pts[len(pts)-1]
	rep.Rows = append(rep.Rows, row("factor", post.AuthQPS/pre.AuthQPS, post.PublicAuthQPS/pre.PublicAuthQPS))
	return pts, rep, nil
}

// Fig24PopularityFactor reproduces Fig 24: factor increase in query rate
// by pre-roll-out (domain, LDNS) popularity.
func Fig24PopularityFactor(lab *Lab, scale Scale) ([]PopularityBucket, *Report, error) {
	cfg := defaultQueryRateConfig()
	if scale == Small {
		cfg.EventsPerWindow = 60000
	}
	buckets, err := runPopularity(lab.World, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:      "fig24",
		Caption: "Query-rate factor increase vs (domain, LDNS) popularity (queries/TTL)",
		Columns: []string{"popularity", "factor", "pairs", "pct-of-pre-queries"},
	}
	for _, b := range buckets {
		rep.Rows = append(rep.Rows, row(
			fmt.Sprintf("%.1f-%.1f", b.PopularityLo, b.PopularityHi),
			b.FactorIncrease, b.Pairs, 100*b.PreQueryShare))
	}
	return buckets, rep, nil
}
