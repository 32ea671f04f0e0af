package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"eum/internal/cdn"
	"eum/internal/demand"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/par"
	"eum/internal/resolver"
	"eum/internal/rum"
	"eum/internal/stats"
	"eum/internal/world"
)

// ecsCell is one configuration of the resolver population: which LDNSes
// forward ECS, and at what truncation. Cell grids sweep adoption against
// prefix length for the public-resolver era experiments (EU-mapping win
// vs a /20 ECS reveal; query amplification vs prefix length).
type ecsCell struct {
	// Name labels the cell in results.
	Name string
	// Enabled decides whether a given LDNS forwards ECS in this cell.
	// nil means no resolver does.
	Enabled func(l *world.LDNS) bool
	// PrefixV4 / PrefixV6 override every enabled resolver's source prefix
	// length. 0 defers to the site's own provider policy (a truncating
	// provider's /20, say), then to the /24 and /56 conventions.
	PrefixV4, PrefixV6 uint8
}

// ECSCellResult is one cell's outcome over the whole client population.
type ECSCellResult struct {
	Name string
	// MeanRTTMs / P95RTTMs are demand-weighted over ALL clients.
	MeanRTTMs float64
	P95RTTMs  float64
	// MeanDistance is the demand-weighted mean mapping distance (miles).
	MeanDistance float64
	// AuthQPS is the authoritative query rate under the dense replay.
	AuthQPS float64
	// AuthQueryMultiplier is AuthQPS relative to the grid's first cell
	// (conventionally the no-ECS baseline).
	AuthQueryMultiplier float64
	// AuthQPSPublic is the slice of AuthQPS contributed by public-resolver
	// LDNSes, and PublicQueryMultiplier its ratio to the first cell's.
	// The paper's 8x amplification (§5.1) is this number: public resolvers'
	// own query volume, not the total across every ISP resolver.
	AuthQPSPublic         float64
	PublicQueryMultiplier float64
	// CacheEntries is the total live resolver-cache entry count at the end
	// of the dense replay — the §5.2 memory-side cost of the cell.
	CacheEntries int
}

// runECSCells evaluates each cell on one substrate: every client block
// resolves and is measured through per-LDNS caching resolvers configured
// per the cell, then an identical dense query workload replays through
// the same caches for the authoritative-rate and cache-size cost. All
// cells read the same pinned map snapshot, so differences between cells
// are purely resolver-population effects. Results are deterministic in
// (world, platform, seed) and invariant to the worker count.
func runECSCells(w *world.World, p *cdn.Platform, net *netmodel.Model, seed int64, cells []ecsCell) ([]ECSCellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: no ECS cells")
	}
	sys := mapping.NewSystem(w, p, net, mapping.Config{Policy: mapping.EndUser, PingTargets: len(w.Blocks) / 10})
	up := &systemUpstream{sys: sys, snap: sys.Current()}
	rumModel := rum.NewModel(net)

	depByAddr := deploymentsByAddr(p)

	// Group block indices by LDNS (first-seen order): a resolver's cache
	// sees only its own clients' queries, in block order, so groups replay
	// concurrently and the per-group datasets merge in a fixed order.
	var ldnsOrder []*world.LDNS
	blocksByLDNS := map[uint64][]int{}
	for i, b := range w.Blocks {
		if _, ok := blocksByLDNS[b.LDNS.ID]; !ok {
			ldnsOrder = append(ldnsOrder, b.LDNS)
		}
		blocksByLDNS[b.LDNS.ID] = append(blocksByLDNS[b.LDNS.ID], i)
	}

	var out []ECSCellResult
	var baselineQPS, baselinePubQPS float64
	for ci, cell := range cells {
		// Fresh resolvers per cell.
		resolvers, err := newFleet(w.LDNSes, up, func(l *world.LDNS) bool {
			return cell.Enabled != nil && cell.Enabled(l)
		}, cell.PrefixV4, cell.PrefixV6)
		if err != nil {
			return nil, err
		}

		// Performance: every block resolves once and is measured, fanned
		// out per resolver. Timestamps stay tied to block index, exactly as
		// in a single serial pass over w.Blocks.
		base := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
		type groupPart struct {
			rtt, dist stats.Dataset
			err       error
		}
		parts := par.Map(len(ldnsOrder), func(gi int) *groupPart {
			gp := &groupPart{}
			r := resolvers[ldnsOrder[gi].ID]
			for _, bi := range blocksByLDNS[ldnsOrder[gi].ID] {
				b := w.Blocks[bi]
				now := base.Add(time.Duration(bi) * time.Second)
				ans, err := r.Query(now, "broad.cdn.example.net", hostInBlock(b))
				if err != nil {
					gp.err = err
					return gp
				}
				dep := depByAddr[ans.Servers[0]]
				if dep == nil {
					gp.err = fmt.Errorf("experiments: unknown server %v", ans.Servers[0])
					return gp
				}
				gp.rtt.Add(net.BaseRTTMs(b.Endpoint(), dep.Endpoint()), b.Demand)
				m := rumModel.Measure(now, b, demand.Domain{Name: "broad", DynamicFraction: 0.5, PageBytes: 100_000}, dep, 1)
				gp.dist.Add(m.MappingDistance, b.Demand)
			}
			return gp
		})
		var rtt, dist stats.Dataset
		for _, gp := range parts {
			if gp.err != nil {
				return nil, gp.err
			}
			rtt.Merge(&gp.rtt)
			dist.Merge(&gp.dist)
		}
		for _, r := range resolvers {
			r.Flush()
		}

		// Query-rate and cache-size cost: a dense identical workload.
		qps, pubQPS, entries, err := stageQueryRate(w, resolvers, seed)
		if err != nil {
			return nil, err
		}
		res := ECSCellResult{
			Name:          cell.Name,
			MeanRTTMs:     rtt.Mean(),
			P95RTTMs:      rtt.Percentile(95),
			MeanDistance:  dist.Mean(),
			AuthQPS:       qps,
			AuthQPSPublic: pubQPS,
			CacheEntries:  entries,
		}
		if ci == 0 {
			baselineQPS, baselinePubQPS = qps, pubQPS
		}
		if baselineQPS > 0 {
			res.AuthQueryMultiplier = qps / baselineQPS
		}
		if baselinePubQPS > 0 {
			res.PublicQueryMultiplier = pubQPS / baselinePubQPS
		}
		out = append(out, res)
	}
	return out, nil
}

// runBroadRollout quantifies the paper's conclusion (§8): "a broad
// roll-out of this technology across the entire Internet population will
// be quite beneficial ... more ISPs would need to support the EDNS0
// extension". It is the classic three-cell instance of the cell grid: no
// ECS anywhere, the paper's actual roll-out (public resolvers only), and
// universal adoption including ISP resolvers.
func runBroadRollout(w *world.World, p *cdn.Platform, net *netmodel.Model, seed int64) ([]ECSCellResult, error) {
	return runECSCells(w, p, net, seed, []ecsCell{
		{Name: "no-ecs"},
		{Name: "public-only", Enabled: func(l *world.LDNS) bool { return l.IsPublic() }},
		{Name: "universal", Enabled: func(*world.LDNS) bool { return true }},
	})
}

// stageQueryRate replays a fixed dense workload through the resolvers and
// returns the authoritative query rate (total, and the public-resolver
// slice of it) plus the live cache entry count at the window's end. The
// event stream is drawn up front (a pure function of the seed), then
// replayed per resolver concurrently: each cache sees exactly its own
// slice of the stream, in time order.
func stageQueryRate(w *world.World, resolvers map[uint64]*resolver.Resolver, seed int64) (float64, float64, int, error) {
	rng := rand.New(rand.NewSource(seed))
	cat := demand.MustNewCatalogue(80, 1.35, seed)
	sampler, err := demand.NewSampler(w, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	isPublic := map[uint64]bool{}
	for _, l := range w.LDNSes {
		if l.IsPublic() {
			isPublic[l.ID] = true
		}
	}
	var before, beforePub uint64
	for id, r := range resolvers {
		before += r.Metrics.UpstreamQueries
		if isPublic[id] {
			beforePub += r.Metrics.UpstreamQueries
		}
	}
	window := 2 * time.Minute
	events := 60000
	start := time.Date(2014, 7, 2, 0, 0, 0, 0, time.UTC)
	step := window / time.Duration(events+1)

	type event struct {
		blk *world.ClientBlock
		dom demand.Domain
	}
	evs := make([]event, events)
	for i := range evs {
		evs[i] = event{sampler.Sample(rng), cat.Sample(rng)}
	}
	var order []uint64
	byLDNS := map[uint64][]int{}
	for i, ev := range evs {
		id := ev.blk.LDNS.ID
		if _, ok := byLDNS[id]; !ok {
			order = append(order, id)
		}
		byLDNS[id] = append(byLDNS[id], i)
	}
	errs := par.Map(len(order), func(gi int) error {
		r := resolvers[order[gi]]
		for _, i := range byLDNS[order[gi]] {
			now := start.Add(time.Duration(i) * step)
			if _, err := r.Query(now, evs[i].dom.Name, hostInBlock(evs[i].blk)); err != nil {
				return err
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, err
		}
	}
	var after, afterPub uint64
	entries := 0
	end := start.Add(window)
	for id, r := range resolvers {
		after += r.Metrics.UpstreamQueries
		if isPublic[id] {
			afterPub += r.Metrics.UpstreamQueries
		}
		entries += r.CacheSize(end)
	}
	return float64(after-before) / window.Seconds(),
		float64(afterPub-beforePub) / window.Seconds(), entries, nil
}
