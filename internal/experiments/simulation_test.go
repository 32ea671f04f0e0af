package experiments

import (
	"net/netip"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/netmodel"
	"eum/internal/world"
)

var (
	simW   = world.MustGenerate(world.Config{Seed: 61, NumBlocks: 5000})
	simP   = cdn.MustGenerateUniverse(simW, cdn.Config{Seed: 61, NumDeployments: 400, ServersPerDeployment: 6})
	simNet = netmodel.NewDefault()
)

// smallRollout runs a shortened roll-out simulation shared by tests.
func smallRollout(t *testing.T) *rolloutResult {
	t.Helper()
	cfg := defaultRolloutConfig()
	cfg.Start = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2014, 5, 10, 0, 0, 0, 0, time.UTC)
	cfg.DailyMeasurements = 80
	res, err := runRollout(simW, simP, simNet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var cachedRollout *rolloutResult

func rollout(t *testing.T) *rolloutResult {
	if cachedRollout == nil {
		cachedRollout = smallRollout(t)
	}
	return cachedRollout
}

func TestRolloutRejectsEmptyPeriod(t *testing.T) {
	cfg := defaultRolloutConfig()
	cfg.End = cfg.Start
	if _, err := runRollout(simW, simP, simNet, cfg); err == nil {
		t.Error("empty period accepted")
	}
}

func TestRolloutMappingDistanceDrops(t *testing.T) {
	res := rollout(t)
	before, after := beforeAfter(&res.MappingDistance, true)
	if before.Len() == 0 || after.Len() == 0 {
		t.Fatal("missing before/after data")
	}
	ratio := before.Mean() / after.Mean()
	// Paper: ~8x for high-expectation countries. Our synthetic geography
	// concentrates clients near deployment metros, so the drop is at
	// least as sharp; require a strong multi-fold improvement.
	if ratio < 5 {
		t.Errorf("high-exp mapping distance ratio = %.1fx, want >= 5x", ratio)
	}
	lb, la := beforeAfter(&res.MappingDistance, false)
	lowRatio := lb.Mean() / la.Mean()
	if lowRatio < 1.2 {
		t.Errorf("low-exp group saw no improvement: %.2fx", lowRatio)
	}
}

func TestRolloutRTTHalves(t *testing.T) {
	res := rollout(t)
	before, after := beforeAfter(&res.RTT, true)
	ratio := before.Mean() / after.Mean()
	// Paper: two-fold decrease for the high-expectation group.
	if ratio < 1.6 || ratio > 6 {
		t.Errorf("high-exp RTT ratio = %.2fx, want ~2-4x", ratio)
	}
	lb, la := beforeAfter(&res.RTT, false)
	if low := lb.Mean() / la.Mean(); low >= ratio {
		t.Errorf("low-exp RTT gain (%.2fx) should be below high-exp (%.2fx)", low, ratio)
	}
}

func TestRolloutTTFBImprovesModestly(t *testing.T) {
	res := rollout(t)
	before, after := beforeAfter(&res.TTFB, true)
	improvement := 1 - after.Mean()/before.Mean()
	// Paper: ~30% improvement — far less than RTT's 50% because page
	// construction is not mapping-sensitive.
	if improvement < 0.15 || improvement > 0.55 {
		t.Errorf("high-exp TTFB improvement = %.0f%%, want ~30%%", 100*improvement)
	}
	rttB, rttA := beforeAfter(&res.RTT, true)
	rttImprovement := 1 - rttA.Mean()/rttB.Mean()
	if improvement >= rttImprovement {
		t.Errorf("TTFB improvement (%.0f%%) should be below RTT improvement (%.0f%%)",
			100*improvement, 100*rttImprovement)
	}
}

func TestRolloutDownloadHalves(t *testing.T) {
	res := rollout(t)
	before, after := beforeAfter(&res.Download, true)
	ratio := before.Mean() / after.Mean()
	// Paper: two-fold decrease in content download time. Download means are
	// heavy-tailed (transfer time divides by per-block throughput), so the
	// measured ratio swings with the sampling stream; require a clear
	// multi-fold decrease within a loose sanity ceiling.
	if ratio < 1.5 || ratio > 8 {
		t.Errorf("high-exp download ratio = %.2fx, want ~2x", ratio)
	}
}

func TestRolloutAllPercentilesImprove(t *testing.T) {
	// Paper (Figs 14,16,18,20): "all percentiles see improvement".
	res := rollout(t)
	for _, tc := range []struct {
		name string
		g    *groupSeries
	}{
		{"mapping-distance", &res.MappingDistance},
		{"rtt", &res.RTT},
		{"ttfb", &res.TTFB},
		{"download", &res.Download},
	} {
		before, after := beforeAfter(tc.g, true)
		for _, p := range []float64{25, 50, 75, 90} {
			if after.Percentile(p) > before.Percentile(p) {
				t.Errorf("%s P%.0f regressed: %.1f -> %.1f",
					tc.name, p, before.Percentile(p), after.Percentile(p))
			}
		}
	}
}

func TestRolloutTimelineTransitions(t *testing.T) {
	// Daily means should be high before the window, low after, and the
	// roll-out period itself should be where the transition happens.
	res := rollout(t)
	days := res.MappingDistance.High.DailyMeans()
	if len(days) < 30 {
		t.Fatalf("only %d daily points", len(days))
	}
	var preSum, postSum float64
	var preN, postN int
	for _, d := range days {
		switch {
		case d.Start.Before(rolloutStart):
			preSum += d.Mean
			preN++
		case d.Start.After(rolloutEnd):
			postSum += d.Mean
			postN++
		}
	}
	if preN == 0 || postN == 0 {
		t.Fatal("timeline does not straddle the roll-out window")
	}
	if preSum/float64(preN) <= postSum/float64(postN) {
		t.Error("daily mean mapping distance did not drop across the roll-out")
	}
}

func TestRolloutMeasurementVolumeGrows(t *testing.T) {
	// Fig 12: measurement volume rises over the period.
	res := rollout(t)
	months := res.RTT.High.MonthlyMeans()
	if len(months) < 2 {
		t.Skip("period too short for monthly comparison")
	}
	// Compare full months only (first and last may be partial).
	if months[1].Weight <= 0 {
		t.Error("no weight in second month")
	}
}

func TestQueryRateIncrease(t *testing.T) {
	cfg := defaultQueryRateConfig()
	cfg.Days = 24
	cfg.RolloutStartDay, cfg.RolloutEndDay = 8, 14
	cfg.EventsPerWindow = 120000
	pts, err := runQueryRate(simW, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != cfg.Days {
		t.Fatalf("points = %d", len(pts))
	}
	pre := pts[4]
	post := pts[len(pts)-1]
	pubFactor := post.PublicAuthQPS / pre.PublicAuthQPS
	// Paper: ~8x increase in public-resolver query rate. Our density is
	// compute-bounded; require a sharp multi-fold increase.
	if pubFactor < 2.5 {
		t.Errorf("public query factor = %.1fx, want >= 2.5x", pubFactor)
	}
	if post.AuthQPS <= pre.AuthQPS {
		t.Error("total authoritative rate did not rise")
	}
	// Total rate rises far less than the public component (ISP resolvers
	// unchanged; Fig 23: 870K -> 1.17M total vs 8x public).
	totalFactor := post.AuthQPS / pre.AuthQPS
	if totalFactor >= pubFactor {
		t.Errorf("total factor %.2fx should be below public factor %.2fx", totalFactor, pubFactor)
	}
	// Client-side rate is unaffected by the roll-out except growth.
	if post.ClientQPS/pre.ClientQPS > 1.3 {
		t.Errorf("client growth %.2fx exceeds organic trend", post.ClientQPS/pre.ClientQPS)
	}
	// DNS queries remain a small fraction of client requests (Fig 2).
	if pre.AuthQPS >= pre.ClientQPS {
		t.Error("authoritative rate should be below client request rate")
	}
}

func TestQueryRateValidation(t *testing.T) {
	if _, err := runQueryRate(simW, queryRateConfig{Days: 0, EventsPerWindow: 10}); err == nil {
		t.Error("zero days accepted")
	}
	if _, err := runPopularity(simW, queryRateConfig{}); err == nil {
		t.Error("zero events accepted")
	}
}

func TestPopularityFactorRisesWithPopularity(t *testing.T) {
	cfg := defaultQueryRateConfig()
	cfg.EventsPerWindow = 120000
	buckets, err := runPopularity(simW, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) < 3 {
		t.Fatalf("only %d buckets", len(buckets))
	}
	first, last := buckets[0], buckets[len(buckets)-1]
	// Fig 24: popular (domain, LDNS) pairs see the largest factor
	// increase; unpopular ones see little or none.
	if last.FactorIncrease <= first.FactorIncrease {
		t.Errorf("factor not rising with popularity: %.1f .. %.1f",
			first.FactorIncrease, last.FactorIncrease)
	}
	if last.FactorIncrease < 4 {
		t.Errorf("top bucket factor = %.1f, want >= 4", last.FactorIncrease)
	}
	if first.FactorIncrease > 2 {
		t.Errorf("bottom bucket factor = %.1f, want <= 2", first.FactorIncrease)
	}
	for _, b := range buckets {
		if b.PreQueryShare < 0 || b.PreQueryShare > 1 {
			t.Errorf("bucket share out of range: %+v", b)
		}
	}
}

func TestFixedUpstream(t *testing.T) {
	up := &fixedUpstream{ttl: 7 * time.Second, scope: 20}
	a, err := up.Resolve("x.net", hostInBlock(simW.Blocks[0]), simW.Blocks[0].Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if a.TTL != 7*time.Second || a.ScopePrefix != 20 || len(a.Servers) == 0 {
		t.Errorf("answer = %+v", a)
	}
	// Without ECS, scope must be 0.
	a, _ = up.Resolve("x.net", hostInBlock(simW.Blocks[0]), netip.Prefix{})
	if a.ScopePrefix != 0 {
		t.Errorf("no-ECS scope = %d", a.ScopePrefix)
	}
	// A scope finer than the query's source prefix is clamped to it
	// (RFC 7871 §7.2.1).
	a, _ = up.Resolve("x.net", hostInBlock(simW.Blocks[0]), netip.MustParsePrefix("10.0.0.0/16"))
	if a.ScopePrefix != 16 {
		t.Errorf("/16 query answered at scope %d, want 16", a.ScopePrefix)
	}
}

func TestHostInBlock(t *testing.T) {
	b := simW.Blocks[0]
	h := hostInBlock(b)
	if !b.Prefix.Contains(h) {
		t.Errorf("host %v outside block %v", h, b.Prefix)
	}
}

func TestBroadRollout(t *testing.T) {
	stages, err := runBroadRollout(simW, simP, simNet, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("stages = %d", len(stages))
	}
	noECS, public, universal := stages[0], stages[1], stages[2]
	// Each adoption stage improves global performance.
	if !(universal.MeanRTTMs < public.MeanRTTMs && public.MeanRTTMs < noECS.MeanRTTMs) {
		t.Errorf("RTT not improving with adoption: %.1f -> %.1f -> %.1f",
			noECS.MeanRTTMs, public.MeanRTTMs, universal.MeanRTTMs)
	}
	if !(universal.MeanDistance < public.MeanDistance && public.MeanDistance < noECS.MeanDistance) {
		t.Errorf("distance not improving: %.0f -> %.0f -> %.0f",
			noECS.MeanDistance, public.MeanDistance, universal.MeanDistance)
	}
	// Universal adoption is a large improvement over public-only (the §8
	// argument for ISP adoption)...
	if universal.MeanRTTMs > public.MeanRTTMs*0.95 {
		t.Errorf("universal adoption gained little: %.1f vs %.1f",
			universal.MeanRTTMs, public.MeanRTTMs)
	}
	// ...but costs more authoritative queries (the §5 price).
	if !(universal.AuthQueryMultiplier > public.AuthQueryMultiplier &&
		public.AuthQueryMultiplier > noECS.AuthQueryMultiplier) {
		t.Errorf("query multipliers not increasing: %.2f, %.2f, %.2f",
			noECS.AuthQueryMultiplier, public.AuthQueryMultiplier, universal.AuthQueryMultiplier)
	}
	if noECS.AuthQueryMultiplier != 1 {
		t.Errorf("baseline multiplier = %.2f", noECS.AuthQueryMultiplier)
	}
	if universal.AuthQueryMultiplier < 1.5 {
		t.Errorf("universal adoption multiplier = %.2f, want a clear increase", universal.AuthQueryMultiplier)
	}
}
