package experiments

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"eum/internal/demand"
	"eum/internal/par"
	"eum/internal/resolver"
	"eum/internal/world"
)

// The query-rate simulations' fixed inputs: the seed of the enable days
// and the query streams; the simulated slice of each day (query streams are
// dense, so a window per day suffices to estimate rates); the
// authoritative answer TTL and ECS scope; and the domain catalogue's size
// and Zipf exponent (public-resolver query streams concentrate on popular
// domains, and a steep Zipf reproduces that concentration).
const (
	queryRateSeed      = 1
	queryRateWindow    = 2 * time.Minute
	queryRateTTL       = 20 * time.Second
	queryRateScope     = 24
	queryRateDomains   = 120
	queryRateZipfAlpha = 1.35
)

// queryRateConfig parameterises the authoritative-side DNS query-volume
// simulation behind Figs 2, 23 and 24.
type queryRateConfig struct {
	// Days is the timeline length.
	Days int
	// RolloutStartDay..RolloutEndDay is when public sites enable ECS.
	RolloutStartDay, RolloutEndDay int
	// EventsPerWindow is the number of client DNS queries simulated in
	// each day's window.
	EventsPerWindow int
}

// defaultQueryRateConfig returns a timeline shaped like the paper's:
// 180 days with the roll-out around day 87-105.
func defaultQueryRateConfig() queryRateConfig {
	return queryRateConfig{
		Days:            180,
		RolloutStartDay: 87,
		RolloutEndDay:   105,
		EventsPerWindow: 200000,
	}
}

// QueryRatePoint is one day's simulated rates, in queries per second.
type QueryRatePoint struct {
	Day int
	// ClientQPS is the client-side resolution rate arriving at LDNSes —
	// a proxy for client content requests (Fig 2's left axis).
	ClientQPS float64
	// AuthQPS is the rate of queries reaching the CDN's authoritative
	// name servers (Fig 2's right axis; Fig 23's y axis).
	AuthQPS float64
	// PublicAuthQPS is the share of AuthQPS from public resolvers.
	PublicAuthQPS float64
}

// fixedUpstream is the authoritative stand-in of the query-rate
// simulations: answers carry a constant TTL and are ECS-scoped at scope
// when the query carries a subnet. (The query-rate effects of §5 depend
// only on TTL and scope semantics, not on which servers are answered.)
type fixedUpstream struct {
	ttl   time.Duration
	scope uint8
}

// Resolve implements resolver.Upstream. The answered scope is clamped to
// the query's source prefix (RFC 7871 §7.2.1: y <= x) so a truncating
// resolver revealing /20 never receives a /24 scope it cannot file.
func (u *fixedUpstream) Resolve(domain string, ldns netip.Addr, subnet netip.Prefix) (resolver.Answer, error) {
	a := resolver.Answer{
		Servers: []netip.Addr{netip.AddrFrom4([4]byte{23, 0, 0, 1})},
		TTL:     u.ttl,
	}
	if subnet.IsValid() {
		a.ScopePrefix = u.scope
		if int(a.ScopePrefix) > subnet.Bits() {
			a.ScopePrefix = uint8(subnet.Bits())
		}
	}
	return a, nil
}

// runQueryRate simulates DNS query volumes before, during and after the
// roll-out. Each simulated day replays a fixed-size window of
// demand-weighted client queries through per-LDNS caching resolvers;
// public resolver sites enable ECS on a schedule inside the roll-out
// window. Growth in underlying traffic (~3%/month in the period) is
// applied on top, matching Fig 23's gradual rise outside the roll-out.
func runQueryRate(w *world.World, cfg queryRateConfig) ([]QueryRatePoint, error) {
	if cfg.Days <= 0 || cfg.EventsPerWindow <= 0 {
		return nil, fmt.Errorf("experiments: Days and EventsPerWindow must be positive")
	}
	catalogue := demand.MustNewCatalogue(queryRateDomains, queryRateZipfAlpha, queryRateSeed)
	rng := rand.New(rand.NewSource(queryRateSeed))
	up := &fixedUpstream{ttl: queryRateTTL, scope: queryRateScope}

	enableDay := drawEnableDays(w, cfg, rng)
	sampler, err := demand.NewSampler(w, nil)
	if err != nil {
		return nil, err
	}

	// Days are independent: caches carry within a day's window but never
	// across days (windows are a day apart, TTLs are seconds), and the old
	// serial loop flushed them at each day's end. Each day therefore builds
	// fresh resolvers — pre-set to that day's ECS state — samples its own
	// child-seeded workload, and reads its own metrics from zero.
	base := time.Date(2014, 1, 1, 12, 0, 0, 0, time.UTC)
	type dayPart struct {
		pt  QueryRatePoint
		err error
	}
	parts := par.Map(cfg.Days, func(day int) dayPart {
		resolvers, err := newFleet(w.LDNSes, up, func(l *world.LDNS) bool {
			d, ok := enableDay[l.ID]
			return ok && day >= d
		}, 0, 0)
		if err != nil {
			return dayPart{err: err}
		}
		// Organic traffic growth over the period.
		grow := 1 + 0.18*float64(day)/float64(cfg.Days)
		events := int(float64(cfg.EventsPerWindow) * grow)

		windowStart := base.AddDate(0, 0, day)
		dayRNG := rand.New(rand.NewSource(par.ChildSeed(queryRateSeed, uint64(day))))
		step := queryRateWindow / time.Duration(events+1)
		for i := 0; i < events; i++ {
			now := windowStart.Add(time.Duration(i) * step)
			blk := sampler.Sample(dayRNG)
			dom := catalogue.Sample(dayRNG)
			if _, err := resolvers[blk.LDNS.ID].Query(now, dom.Name, hostInBlock(blk)); err != nil {
				return dayPart{err: err}
			}
		}

		var auth, pub uint64
		for _, l := range w.LDNSes {
			n := resolvers[l.ID].Metrics.UpstreamQueries
			auth += n
			if l.IsPublic() {
				pub += n
			}
		}
		secs := queryRateWindow.Seconds()
		return dayPart{pt: QueryRatePoint{
			Day:           day,
			ClientQPS:     float64(events) / secs,
			AuthQPS:       float64(auth) / secs,
			PublicAuthQPS: float64(pub) / secs,
		}}
	})
	out := make([]QueryRatePoint, 0, cfg.Days)
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, p.pt)
	}
	return out, nil
}

// drawEnableDays assigns each public site its ECS enable day, in world
// LDNS order so the schedule is a pure function of the seed. Sites of
// providers that never ship ECS (the public-resolver era's no-subnet
// operators) are excluded: they have no enable day at all.
func drawEnableDays(w *world.World, cfg queryRateConfig, rng *rand.Rand) map[uint64]int {
	enableDay := map[uint64]int{}
	for _, l := range w.LDNSes {
		if !l.IsPublic() || !l.SupportsECS {
			continue
		}
		span := cfg.RolloutEndDay - cfg.RolloutStartDay
		if span < 1 {
			span = 1
		}
		enableDay[l.ID] = cfg.RolloutStartDay + rng.Intn(span)
	}
	return enableDay
}

// PopularityBucket is one bar of Fig 24: (domain, LDNS) pairs bucketed by
// their pre-roll-out popularity in authoritative queries per TTL, with the
// mean factor increase in query rate once ECS/EU mapping is enabled.
type PopularityBucket struct {
	// PopularityLo..PopularityHi is the bucket range in queries per TTL.
	PopularityLo, PopularityHi float64
	// FactorIncrease is the mean post/pre authoritative query-rate ratio.
	FactorIncrease float64
	// Pairs is the number of (domain, LDNS) pairs in the bucket.
	Pairs int
	// PreQueryShare is the bucket's share of pre-roll-out queries
	// (the paper notes the most popular bucket held only 11% of them).
	PreQueryShare float64
}

// runPopularity reproduces Fig 24's analysis: the same client workload is
// replayed twice through public-resolver caches — once with ECS off (pre
// roll-out) and once with ECS on — and (domain, LDNS) pairs are bucketed by
// pre-roll-out queries per TTL.
func runPopularity(w *world.World, cfg queryRateConfig) ([]PopularityBucket, error) {
	if cfg.EventsPerWindow <= 0 {
		return nil, fmt.Errorf("experiments: EventsPerWindow must be positive")
	}
	catalogue := demand.MustNewCatalogue(queryRateDomains, queryRateZipfAlpha, queryRateSeed)
	up := &fixedUpstream{ttl: queryRateTTL, scope: queryRateScope}

	type pairKey struct {
		ldns   uint64
		domain string
	}

	// Precompute the client workload once with the config seed: both the
	// pre and post replay must see the identical query stream.
	sampler, err := demand.NewSampler(w, func(b *world.ClientBlock) bool { return b.LDNS.IsPublic() })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(queryRateSeed))
	type event struct {
		blk *world.ClientBlock
		dom demand.Domain
	}
	events := make([]event, cfg.EventsPerWindow)
	for i := range events {
		events[i] = event{sampler.Sample(rng), catalogue.Sample(rng)}
	}
	// Bucket event indices by resolver (first-seen order). A resolver's
	// cache evolution depends only on its own queries in time order, which
	// bucketing preserves — so buckets can replay concurrently.
	var order []*world.LDNS
	byLDNS := map[uint64][]int{}
	for i, ev := range events {
		id := ev.blk.LDNS.ID
		if _, ok := byLDNS[id]; !ok {
			order = append(order, ev.blk.LDNS)
		}
		byLDNS[id] = append(byLDNS[id], i)
	}

	run := func(ecs bool) (map[pairKey]uint64, error) {
		base := time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)
		step := queryRateWindow / time.Duration(cfg.EventsPerWindow+1)
		resolvers, err := newFleet(order, up, func(*world.LDNS) bool { return ecs }, 0, 0)
		if err != nil {
			return nil, err
		}
		type bucketPart struct {
			counts map[string]uint64
			err    error
		}
		parts := par.Map(len(order), func(gi int) bucketPart {
			l := order[gi]
			r := resolvers[l.ID]
			r.TrackDomains()
			for _, i := range byLDNS[l.ID] {
				now := base.Add(time.Duration(i) * step)
				if _, err := r.Query(now, events[i].dom.Name, hostInBlock(events[i].blk)); err != nil {
					return bucketPart{err: err}
				}
			}
			return bucketPart{counts: r.PerDomainUpstream}
		})
		counts := map[pairKey]uint64{}
		for gi, p := range parts {
			if p.err != nil {
				return nil, p.err
			}
			for dom, n := range p.counts {
				counts[pairKey{order[gi].ID, dom}] = n
			}
		}
		return counts, nil
	}

	pre, err := run(false)
	if err != nil {
		return nil, err
	}
	post, err := run(true)
	if err != nil {
		return nil, err
	}

	// Bucket pairs by pre-roll-out queries per TTL, in tenths of the
	// maximum of 1 query/TTL (a cache bounds the pre rate at 1/TTL).
	windows := queryRateWindow.Seconds() / queryRateTTL.Seconds()
	const nBuckets = 10
	type agg struct {
		factorSum float64
		pairs     int
		preSum    uint64
	}
	buckets := make([]agg, nBuckets)
	var totalPre uint64
	// Visit pairs in sorted order: factorSum is a float accumulation, so
	// map-iteration order would make the bucket means run-dependent.
	keys := make([]pairKey, 0, len(pre))
	for k := range pre {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ldns != keys[j].ldns {
			return keys[i].ldns < keys[j].ldns
		}
		return keys[i].domain < keys[j].domain
	})
	for _, k := range keys {
		preN := pre[k]
		if preN == 0 {
			continue
		}
		totalPre += preN
		perTTL := float64(preN) / windows
		idx := int(perTTL * nBuckets)
		if idx >= nBuckets {
			idx = nBuckets - 1
		}
		postN := post[k]
		buckets[idx].factorSum += float64(postN) / float64(preN)
		buckets[idx].pairs++
		buckets[idx].preSum += preN
	}
	var out []PopularityBucket
	for i, b := range buckets {
		if b.pairs == 0 {
			continue
		}
		pb := PopularityBucket{
			PopularityLo:   float64(i) / nBuckets,
			PopularityHi:   float64(i+1) / nBuckets,
			FactorIncrease: b.factorSum / float64(b.pairs),
			Pairs:          b.pairs,
		}
		if totalPre > 0 {
			pb.PreQueryShare = float64(b.preSum) / float64(totalPre)
		}
		out = append(out, pb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PopularityLo < out[j].PopularityLo })
	return out, nil
}
