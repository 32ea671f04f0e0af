// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: `go test -bench=. -benchmem` prints each
// figure's headline numbers as custom benchmark metrics, so the whole
// evaluation reproduces in one command.
//
// Scale: benches default to the Small lab (seconds). Set EUM_BENCH_SCALE=full
// for the benchmark-quality numbers recorded in EXPERIMENTS.md.
package bench

import (
	"context"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/authority"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/experiments"
	"eum/internal/geo"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/par"
	"eum/internal/resolver"
	"eum/internal/simulation"
	"eum/internal/telemetry"
	"eum/internal/world"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
	scale   experiments.Scale
)

func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		scale = experiments.Small
		if os.Getenv("EUM_BENCH_SCALE") == "full" {
			scale = experiments.Full
		}
		lab = experiments.NewLab(scale, 1)
	})
	return lab
}

// --- Section 3: clients and their name servers ---

func BenchmarkFig05ClientLDNSHistogram(b *testing.B) {
	l := benchLab(b)
	var median float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig05ClientLDNSHistogram(l)
		median = res.Median
	}
	b.ReportMetric(median, "median-mi")
}

func BenchmarkFig06DistanceByCountry(b *testing.B) {
	l := benchLab(b)
	var topMedian float64
	for i := 0; i < b.N; i++ {
		boxes, _ := experiments.Fig06DistanceByCountry(l)
		topMedian = boxes[0].Box.P50
	}
	b.ReportMetric(topMedian, "top-country-median-mi")
}

func BenchmarkFig07PublicResolverHistogram(b *testing.B) {
	l := benchLab(b)
	var median float64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig07PublicResolverHistogram(l)
		median = res.Median
	}
	b.ReportMetric(median, "public-median-mi")
}

func BenchmarkFig08PublicByCountry(b *testing.B) {
	l := benchLab(b)
	var arMedian float64
	for i := 0; i < b.N; i++ {
		boxes, _ := experiments.Fig08PublicByCountry(l)
		for _, bx := range boxes {
			if bx.Country == "AR" {
				arMedian = bx.Box.P50
			}
		}
	}
	b.ReportMetric(arMedian, "AR-median-mi")
}

func BenchmarkFig09PublicAdoption(b *testing.B) {
	l := benchLab(b)
	var vn float64
	for i := 0; i < b.N; i++ {
		adoption, _ := experiments.Fig09PublicAdoption(l)
		vn = adoption["VN"]
	}
	b.ReportMetric(100*vn, "VN-adoption-pct")
}

func BenchmarkFig10DistanceByASSize(b *testing.B) {
	l := benchLab(b)
	var buckets []experiments.ASSizeBucket
	for i := 0; i < b.N; i++ {
		buckets, _ = experiments.Fig10DistanceByASSize(l)
	}
	if len(buckets) > 0 {
		b.ReportMetric(buckets[0].MedianDistance, "smallest-AS-median-mi")
	}
}

func BenchmarkFig11ClusterRadius(b *testing.B) {
	l := benchLab(b)
	var res *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.Fig11ClusterRadius(l)
	}
	b.ReportMetric(res.PubRadiusP99, "public-radius-p99-mi")
	b.ReportMetric(100*res.PubMeanExceed, "mean>radius-pct")
}

// --- Section 4: the roll-out (Figs 12-20) ---

var (
	rolloutOnce sync.Once
	rolloutFigs *experiments.RolloutFigures
	rolloutErr  error
)

func benchRollout(b *testing.B) *experiments.RolloutFigures {
	b.Helper()
	l := benchLab(b)
	rolloutOnce.Do(func() {
		rolloutFigs, rolloutErr = experiments.RunRolloutFigures(l, scale)
	})
	if rolloutErr != nil {
		b.Fatal(rolloutErr)
	}
	return rolloutFigs
}

func BenchmarkFig12RUMVolume(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rf := benchRollout(b)
		rows = len(rf.Fig12RUMVolume().Rows)
	}
	b.ReportMetric(float64(rows), "months")
}

// rolloutRatio reports before/after means for one metric group.
func rolloutRatio(b *testing.B, pick func(*simulation.RolloutResult) *simulation.GroupSeries, metric string) {
	b.Helper()
	var before, after float64
	for i := 0; i < b.N; i++ {
		rf := benchRollout(b)
		bd, ad := simulation.BeforeAfter(pick(rf.Result), true, rf.Result)
		before, after = bd.Mean(), ad.Mean()
	}
	b.ReportMetric(before, "high-before-"+metric)
	b.ReportMetric(after, "high-after-"+metric)
	b.ReportMetric(before/after, "improvement-x")
}

func BenchmarkFig13MappingDistanceTimeline(b *testing.B) {
	rolloutRatio(b, func(r *simulation.RolloutResult) *simulation.GroupSeries { return &r.MappingDistance }, "mi")
}

func BenchmarkFig14MappingDistanceCDF(b *testing.B) {
	var p90before, p90after float64
	for i := 0; i < b.N; i++ {
		rf := benchRollout(b)
		bd, ad := simulation.BeforeAfter(&rf.Result.MappingDistance, true, rf.Result)
		p90before, p90after = bd.Percentile(90), ad.Percentile(90)
	}
	b.ReportMetric(p90before, "p90-before-mi")
	b.ReportMetric(p90after, "p90-after-mi")
}

func BenchmarkFig15RTTTimeline(b *testing.B) {
	rolloutRatio(b, func(r *simulation.RolloutResult) *simulation.GroupSeries { return &r.RTT }, "ms")
}

func BenchmarkFig16RTTCDF(b *testing.B) {
	var p75before, p75after float64
	for i := 0; i < b.N; i++ {
		rf := benchRollout(b)
		bd, ad := simulation.BeforeAfter(&rf.Result.RTT, true, rf.Result)
		p75before, p75after = bd.Percentile(75), ad.Percentile(75)
	}
	b.ReportMetric(p75before, "p75-before-ms")
	b.ReportMetric(p75after, "p75-after-ms")
}

func BenchmarkFig17TTFBTimeline(b *testing.B) {
	rolloutRatio(b, func(r *simulation.RolloutResult) *simulation.GroupSeries { return &r.TTFB }, "ms")
}

func BenchmarkFig18TTFBCDF(b *testing.B) {
	var p75before, p75after float64
	for i := 0; i < b.N; i++ {
		rf := benchRollout(b)
		bd, ad := simulation.BeforeAfter(&rf.Result.TTFB, true, rf.Result)
		p75before, p75after = bd.Percentile(75), ad.Percentile(75)
	}
	b.ReportMetric(p75before, "p75-before-ms")
	b.ReportMetric(p75after, "p75-after-ms")
}

func BenchmarkFig19DownloadTimeline(b *testing.B) {
	rolloutRatio(b, func(r *simulation.RolloutResult) *simulation.GroupSeries { return &r.Download }, "ms")
}

func BenchmarkFig20DownloadCDF(b *testing.B) {
	var p75before, p75after float64
	for i := 0; i < b.N; i++ {
		rf := benchRollout(b)
		bd, ad := simulation.BeforeAfter(&rf.Result.Download, true, rf.Result)
		p75before, p75after = bd.Percentile(75), ad.Percentile(75)
	}
	b.ReportMetric(p75before, "p75-before-ms")
	b.ReportMetric(p75after, "p75-after-ms")
}

// --- Sections 1 and 5: scale (Figs 2, 21-24) ---

func BenchmarkFig02QueryVolume(b *testing.B) {
	l := benchLab(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig02QueryVolume(l, scale)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		ratio = last.ClientQPS / last.AuthQPS
	}
	b.ReportMetric(ratio, "client:dns-ratio")
}

func BenchmarkFig21MappingUnitCoverage(b *testing.B) {
	l := benchLab(b)
	var res *experiments.Fig21Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.Fig21MappingUnitCoverage(l)
	}
	b.ReportMetric(float64(res.Blocks95), "blocks-95pct")
	b.ReportMetric(float64(res.LDNS95), "ldns-95pct")
}

func BenchmarkFig22PrefixTradeoff(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.Fig22Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.Fig22PrefixTradeoff(l)
	}
	for _, r := range rows {
		if r.PrefixBits == 20 {
			b.ReportMetric(float64(r.Units), "units-slash20")
			b.ReportMetric(100*r.Within100mi, "pct-compact-slash20")
		}
	}
}

func BenchmarkFig23QueryRateIncrease(b *testing.B) {
	l := benchLab(b)
	var factor float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig23QueryRateIncrease(l, scale)
		if err != nil {
			b.Fatal(err)
		}
		pre, post := pts[4], pts[len(pts)-1]
		factor = post.PublicAuthQPS / pre.PublicAuthQPS
	}
	b.ReportMetric(factor, "public-query-factor-x")
}

func BenchmarkFig24PopularityFactor(b *testing.B) {
	l := benchLab(b)
	var top float64
	for i := 0; i < b.N; i++ {
		buckets, _, err := experiments.Fig24PopularityFactor(l, scale)
		if err != nil {
			b.Fatal(err)
		}
		top = buckets[len(buckets)-1].FactorIncrease
	}
	b.ReportMetric(top, "top-bucket-factor-x")
}

// --- Section 6: deployments (Fig 25) ---

func BenchmarkFig25DeploymentSweep(b *testing.B) {
	l := benchLab(b)
	cfg := experiments.DefaultFig25Config(scale)
	var pts []experiments.Fig25Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.Fig25DeploymentSweep(l, cfg)
	}
	// Report the largest-N cells: NS vs EU P99.
	maxN := cfg.Ns[len(cfg.Ns)-1]
	for _, p := range pts {
		if p.Deployments != maxN {
			continue
		}
		switch p.Policy {
		case mapping.NSBased:
			b.ReportMetric(p.P99Ms, "NS-p99-ms")
		case mapping.EndUser:
			b.ReportMetric(p.P99Ms, "EU-p99-ms")
		case mapping.ClientAwareNS:
			b.ReportMetric(p.P99Ms, "CANS-p99-ms")
		}
	}
}

func BenchmarkAdoptionExtrapolation(b *testing.B) {
	l := benchLab(b)
	var farGain float64
	for i := 0; i < b.N; i++ {
		bands, _ := experiments.AdoptionExtrapolation(l)
		farGain = bands[0].PredictedRTTGain
	}
	b.ReportMetric(100*farGain, "far-band-rtt-gain-pct")
}

func BenchmarkBaselineMechanisms(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.BaselineRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.BaselineMechanisms(l)
	}
	for _, r := range rows {
		if r.SizeBytes == 100_000 {
			switch r.Mechanism.String() {
			case "ecs":
				b.ReportMetric(r.MeanTotalMs, "ecs-100KB-ms")
			case "http-redirect":
				b.ReportMetric(r.MeanTotalMs, "redirect-100KB-ms")
			}
		}
	}
}

func BenchmarkFlashCrowd(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.FlashCrowdRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.FlashCrowd(l, "DE")
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(100*last.SpillFraction, "spill-pct-at-4x")
	b.ReportMetric(last.P95Distance, "p95-dist-mi-at-4x")
}

func BenchmarkPathStability(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.StabilityRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.PathStability(l)
	}
	b.ReportMetric(rows[0].MeanASCrossings, "NS-as-crossings")
	b.ReportMetric(rows[1].MeanASCrossings, "EU-as-crossings")
}

// --- Ablations (DESIGN.md design choices) ---

// BenchmarkAblationSweepInterval quantifies measurement freshness: fresher
// sweeps buy lower realized latency at more probe cost.
func BenchmarkAblationSweepInterval(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.FreshnessRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.MeasurementFreshness(l, scale)
	}
	b.ReportMetric(rows[0].MeanRealizedMs, "daily-sweep-ms")
	b.ReportMetric(rows[len(rows)-1].MeanRealizedMs, "monthly-sweep-ms")
}

// BenchmarkAblationScopePrefix compares EU mapping accuracy at /24 vs /20
// mapping units: coarser units cost a little accuracy for 3-4x fewer units.
func BenchmarkAblationScopePrefix(b *testing.B) {
	l := benchLab(b)
	for _, bits := range []uint8{24, 20, 16} {
		b.Run(prefixName(bits), func(b *testing.B) {
			sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
				Policy: mapping.EndUser, Units: mapping.PrefixUnits{X: bits}, PingTargets: 800,
			})
			var meanDist float64
			for i := 0; i < b.N; i++ {
				meanDist = euMeanMappingDistance(b, l, sys, 400)
			}
			b.ReportMetric(meanDist, "mean-mapping-distance-mi")
			b.ReportMetric(float64(mapping.CountUnits(l.World, mapping.PrefixUnits{X: bits})), "units")
		})
	}
}

func prefixName(bits uint8) string {
	return map[uint8]string{24: "slash24", 20: "slash20", 16: "slash16"}[bits]
}

// BenchmarkAblationCIDRAggregation compares /24 units against BGP-CIDR
// aggregated units (§5.1's 3.76M -> 444K reduction).
func BenchmarkAblationCIDRAggregation(b *testing.B) {
	l := benchLab(b)
	cidrUnits := mapping.NewCIDRUnits(mapping.PrefixUnits{X: 24}, l.World.BGPCIDRs())
	for _, tc := range []struct {
		name  string
		units mapping.UnitPolicy
	}{
		{"plain24", mapping.PrefixUnits{X: 24}},
		{"bgp-cidr", cidrUnits},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
				Policy: mapping.EndUser, Units: tc.units, PingTargets: 800,
			})
			var meanDist float64
			for i := 0; i < b.N; i++ {
				meanDist = euMeanMappingDistance(b, l, sys, 400)
			}
			b.ReportMetric(meanDist, "mean-mapping-distance-mi")
			b.ReportMetric(float64(mapping.CountUnits(l.World, tc.units)), "units")
		})
	}
}

// euMeanMappingDistance maps n public-resolver blocks and returns their
// demand-weighted mean client-deployment distance.
func euMeanMappingDistance(b *testing.B, l *experiments.Lab, sys *mapping.System, n int) float64 {
	b.Helper()
	var sum, wsum float64
	count := 0
	for _, blk := range l.World.Blocks {
		if !blk.LDNS.IsPublic() {
			continue
		}
		if count++; count > n {
			break
		}
		resp, err := sys.Map(mapping.Request{Domain: "a.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix})
		if err != nil {
			b.Fatal(err)
		}
		sum += blk.Demand * distMi(blk, resp)
		wsum += blk.Demand
	}
	return sum / wsum
}

func distMi(blk *world.ClientBlock, resp *mapping.Response) float64 {
	return geo.Distance(blk.Loc, resp.Deployment.Loc)
}

// BenchmarkAblationLocalLB compares consistent-hash local load balancing
// against the spread a random pick would produce: the same domain must
// concentrate on few servers for cache locality.
func BenchmarkAblationLocalLB(b *testing.B) {
	l := benchLab(b)
	lb := mapping.NewLoadBalancer()
	lb.Prepare(l.Platform)
	dep := l.Platform.Deployments[0]
	domains := make([]string, 64)
	for i := range domains {
		domains[i] = "site-" + string(rune('a'+i%26)) + string(rune('0'+i/26)) + ".net"
	}
	var distinct int
	for i := 0; i < b.N; i++ {
		seen := map[uint64]bool{}
		for rep := 0; rep < 50; rep++ {
			for _, d := range domains {
				servers, err := lb.PickServers(dep, d, 0)
				if err != nil {
					b.Fatal(err)
				}
				seen[servers[0].ID] = true
			}
		}
		distinct = len(seen)
	}
	// With consistent hashing, 50 repetitions add no new servers: the
	// distinct-server count equals one pass's.
	b.ReportMetric(float64(distinct), "distinct-primaries-64-domains")
}

// BenchmarkAblationLoadAwareLB compares hard capacity spill against
// load-aware balancing under a 0.7x regional surge: hard spill pegs the
// best clusters to 100% while others idle; the balance factor spreads the load
// earlier, at a small mean-distance cost.
func BenchmarkAblationLoadAwareLB(b *testing.B) {
	l := benchLab(b)
	for _, tc := range []struct {
		name string
		beta float64
	}{{"hard-spill", 0}, {"load-aware", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			var pegged, meanDist float64
			for i := 0; i < b.N; i++ {
				pegged, meanDist = surgeRun(b, l, tc.beta)
			}
			b.ReportMetric(pegged, "pegged-deployments")
			b.ReportMetric(meanDist, "mean-dist-mi")
		})
	}
}

// surgeRun drives a 0.7x-capacity surge in Germany and reports how many
// deployments ended above 95% utilisation and the mean mapping distance.
func surgeRun(b *testing.B, l *experiments.Lab, beta float64) (pegged, meanDist float64) {
	b.Helper()
	l.Platform.ResetLoad()
	defer l.Platform.ResetLoad()
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 800, BalanceFactor: beta,
	})
	var localCap float64
	for _, d := range l.Platform.Deployments {
		if d.Country == "DE" {
			localCap += d.Capacity()
		}
	}
	var blocks []*world.ClientBlock
	var regionDemand float64
	for _, c := range l.World.Countries {
		if c.Code() == "DE" {
			blocks = c.Blocks
		}
	}
	for _, blk := range blocks {
		regionDemand += blk.Demand
	}
	scale := 0.7 * localCap / regionDemand
	// Issue the surge in unit-sized requests, as the real system would see
	// it: many clients, each a small share.
	const quantum = 0.5
	var distSum, w float64
	for _, blk := range blocks {
		remaining := blk.Demand * scale
		for remaining > 0 {
			d := quantum
			if remaining < quantum {
				d = remaining
			}
			remaining -= d
			r, err := sys.Map(mapping.Request{Domain: "surge.net", LDNS: blk.LDNS.Addr,
				ClientSubnet: blk.Prefix, Demand: d})
			if err != nil {
				b.Fatal(err)
			}
			distSum += d * geo.Distance(blk.Loc, r.Deployment.Loc)
			w += d
		}
	}
	for _, d := range l.Platform.Deployments {
		if cap := d.Capacity(); cap > 0 && d.Load()/cap > 0.95 {
			pegged++
		}
	}
	return pegged, distSum / w
}

// BenchmarkGeoErrorImpact quantifies EU mapping sensitivity to
// geolocation error.
func BenchmarkGeoErrorImpact(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.GeoErrorRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.GeoErrorImpact(l)
	}
	b.ReportMetric(rows[0].MeanRTTMs, "clean-rtt-ms")
	b.ReportMetric(rows[len(rows)-1].MeanRTTMs, "worst-geoerr-rtt-ms")
}

// BenchmarkBroadRollout runs the §8 adoption what-if.
func BenchmarkBroadRollout(b *testing.B) {
	l := benchLab(b)
	var res *simulation.BroadRolloutResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunBroadRollout(l.World, l.Platform, l.Net, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, st := range res.Stages {
		switch st.Name {
		case "public-only":
			b.ReportMetric(st.MeanRTTMs, "public-only-rtt-ms")
		case "universal":
			b.ReportMetric(st.MeanRTTMs, "universal-rtt-ms")
			b.ReportMetric(st.AuthQueryMultiplier, "universal-query-x")
		}
	}
}

// BenchmarkOverlayBenefit quantifies origin-fetch acceleration.
func BenchmarkOverlayBenefit(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.OverlayRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.OverlayBenefit(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RelayedPct, "relayed-pct")
	b.ReportMetric(rows[0].RelayedImprovementPct, "relayed-improvement-pct")
}

// BenchmarkAblationTrafficClass compares the per-class scoring functions.
func BenchmarkAblationTrafficClass(b *testing.B) {
	l := benchLab(b)
	var rows []experiments.TrafficClassRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.TrafficClasses(l)
	}
	for _, r := range rows {
		switch r.Class {
		case mapping.ClassWeb:
			b.ReportMetric(r.MeanPingMs, "web-ping-ms")
		case mapping.ClassVideo:
			b.ReportMetric(r.MeanThroughput, "video-throughput-mbps")
		case mapping.ClassApplication:
			b.ReportMetric(r.MeanLossPct, "app-loss-pct")
		}
	}
}

// --- Parallel simulation engine (internal/par) ---

// workerSettings runs the body at one worker and at all cores; the pairing
// both measures the fan-out speedup and exercises the determinism contract
// (results must be identical at any setting — see the parallel_test.go
// invariance tests).
func workerSettings(b *testing.B, body func(b *testing.B)) {
	b.Helper()
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
			body(b)
		})
	}
}

// BenchmarkWorldGenerate measures full-world generation (per-country
// fan-out plus the serial renumbering pass).
func BenchmarkWorldGenerate(b *testing.B) {
	workerSettings(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := world.MustGenerate(world.Config{Seed: 3, NumBlocks: 20000, IPv6Fraction: 0.15})
			if len(w.Blocks) == 0 {
				b.Fatal("empty world")
			}
		}
	})
}

// BenchmarkRolloutTimeline measures the §4 roll-out simulation (day-sharded
// fan-out).
func BenchmarkRolloutTimeline(b *testing.B) {
	l := benchLab(b)
	cfg := simulation.DefaultRolloutConfig()
	cfg.Start = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2014, 5, 10, 0, 0, 0, 0, time.UTC)
	cfg.DailyMeasurements = 150
	workerSettings(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := simulation.RunRollout(l.World, l.Platform, l.Net, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig25Sweep measures the §6 deployment sweep ((run, N) cells
// fanned out, block sweeps sharded inside each cell).
func BenchmarkFig25Sweep(b *testing.B) {
	l := benchLab(b)
	cfg := experiments.DefaultFig25Config(scale)
	workerSettings(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, _ := experiments.Fig25DeploymentSweep(l, cfg)
			if len(pts) == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
}

// --- Control plane / data plane (internal/mapmaker) ---

// BenchmarkSnapshotSwap measures the control plane's publish latency: one
// full pipeline pass (snapshot build + atomic install). "warm" reuses the
// scorer's cached rank tables — the health/policy/periodic republish case;
// "measurement" invalidates them first, so every table recomputes — the
// sweep-refresh case.
func BenchmarkSnapshotSwap(b *testing.B) {
	l := benchLab(b)
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 800,
	})
	mm := mapmaker.New(sys, mapmaker.Config{})
	mapSize := func(b *testing.B) {
		sn := sys.Current()
		b.ReportMetric(float64(len(l.World.Blocks)), "blocks")
		b.ReportMetric(float64(sn.Partitions()), "partitions")
		b.ReportMetric(float64(sn.Tables()), "tables")
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mm.Publish()
		}
		mapSize(b)
	})
	b.Run("measurement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mm.Notify(mapmaker.ReasonMeasurement)
			mm.Sync()
		}
		mapSize(b)
	})
}

// BenchmarkServingUnderMapChurn serves queries while the map changes
// underneath: a background MapMaker republishes complete snapshots and the
// query path only loads the installed pointer, so no query ever computes
// anything and the worst-op metric stays a scheduling artifact.
func BenchmarkServingUnderMapChurn(b *testing.B) {
	l := benchLab(b)
	const churnEvery = 5 * time.Millisecond

	// A spread of client blocks so the query stream touches many rank
	// tables, as a real server's mix of resolvers does.
	blocks := make([]*world.ClientBlock, 0, 64)
	for i := 0; i < 64; i++ {
		blocks = append(blocks, l.World.Blocks[(i*131)%len(l.World.Blocks)])
	}

	churn := func(change func()) (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(churnEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					change()
				}
			}
		}()
		return func() { close(done); wg.Wait() }
	}

	// recordMax tracks the slowest single query across all workers.
	recordMax := func(m *atomic.Int64, ns int64) {
		for {
			cur := m.Load()
			if ns <= cur || m.CompareAndSwap(cur, ns) {
				return
			}
		}
	}

	b.Run("snapshot-swap", func(b *testing.B) {
		sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
			Policy: mapping.EndUser, PingTargets: 800,
		})
		mm := mapmaker.New(sys, mapmaker.Config{})
		stop := churn(func() { mm.Publish() })
		defer stop()
		var maxNs atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				blk := blocks[i%len(blocks)]
				i++
				req := mapping.Request{Domain: "churn.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
				start := time.Now()
				if _, err := sys.Map(req); err != nil {
					b.Error(err)
					return
				}
				recordMax(&maxNs, time.Since(start).Nanoseconds())
			}
		})
		b.ReportMetric(float64(maxNs.Load()), "worst-op-ns")
	})
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkDNSMessagePack(b *testing.B) {
	q := dnsmsg.NewQuery(1, "e0042.b.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.5"), 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSMessageUnpack(b *testing.B) {
	q := dnsmsg.NewQuery(1, "e0042.b.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.5"), 24)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnsmsg.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMappingMap(b *testing.B) {
	l := benchLab(b)
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 800,
	})
	blk := l.World.Blocks[0]
	req := mapping.Request{Domain: "bench.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Map(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolverQueryCacheHit(b *testing.B) {
	l := benchLab(b)
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 400,
	})
	r, err := resolver.New(resolver.Config{
		Addr: netip.MustParseAddr("198.51.100.1"), ECSEnabled: true, SourcePrefix: 24,
	}, &resolver.SystemUpstream{System: sys})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Date(2014, 4, 20, 0, 0, 0, 0, time.UTC)
	client := l.World.Blocks[0].Prefix.Addr()
	if _, err := r.Query(now, "bench.net", client); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Query(now, "bench.net", client); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuthorityServeDNS(b *testing.B) {
	l := benchLab(b)
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 400,
	})
	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		b.Fatal(err)
	}
	// Telemetry is part of the measured configuration: the alloc guard's
	// budget holds with the decision-latency histogram armed.
	auth.RegisterMetrics(telemetry.NewRegistry())
	blk := l.World.Blocks[0]
	q := dnsmsg.NewQuery(7, "img.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(blk.Prefix.Addr(), 24)
	remote := netip.AddrPortFrom(blk.LDNS.Addr, 53)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := auth.ServeDNS(remote, q); resp == nil || resp.RCode != dnsmsg.RCodeSuccess {
			b.Fatal("bad response")
		}
	}
}

// BenchmarkEndToEndUDP measures the full stack over a loopback socket:
// client -> UDP -> authoritative handler -> mapping -> UDP -> client.
func BenchmarkEndToEndUDP(b *testing.B) {
	l := benchLab(b)
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 400,
	})
	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := dnsserver.Listen("127.0.0.1:0", auth)
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	blk := l.World.Blocks[0]
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lookup(ctx, srv.Addr().String(), "img.cdn.example.net", dnsmsg.TypeA, blk.Prefix); err != nil {
			b.Fatal(err)
		}
	}
}
