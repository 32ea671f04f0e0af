package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/stats"
	"eum/internal/world"
)

// The lab is shared across the package's tests; experiments must not
// mutate it.
var lab = NewLab(Small, 1)

func TestReportTable(t *testing.T) {
	r := &Report{
		ID:      "x",
		Caption: "caption",
		Columns: []string{"a", "longer"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
	}
	tbl := r.Table()
	for _, want := range []string{"caption", "wide-cell", "longer"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestFig05HistogramShape(t *testing.T) {
	res, rep := Fig05ClientLDNSHistogram(lab)
	if len(res.Bins) == 0 || len(rep.Rows) == 0 {
		t.Fatal("empty figure")
	}
	var sum float64
	for _, b := range res.Bins {
		sum += b.Fraction
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("bins sum to %v", sum)
	}
	// Paper Fig 5: "nearly half of the client population is located very
	// close to its LDNS" — substantial mass at small distances, plus a
	// visible far tail.
	var near, far float64
	for _, b := range res.Bins {
		if b.Hi <= 120 {
			near += b.Fraction
		}
		if b.Lo >= 2000 {
			far += b.Fraction
		}
	}
	if near < 0.3 {
		t.Errorf("near-LDNS mass = %.2f, want >= 0.3", near)
	}
	if far < 0.05 {
		t.Errorf("far tail mass = %.2f, want >= 0.05", far)
	}
}

func TestFig07PublicFartherThanFig05(t *testing.T) {
	all, _ := Fig05ClientLDNSHistogram(lab)
	pub, _ := Fig07PublicResolverHistogram(lab)
	// Paper: public median 1028 mi vs 162 mi overall.
	if pub.Median < 3*all.Median {
		t.Errorf("public median %.0f not >> overall median %.0f", pub.Median, all.Median)
	}
}

func TestFig06CountryOrdering(t *testing.T) {
	boxes, rep := Fig06DistanceByCountry(lab)
	if len(boxes) != len(lab.World.Countries) {
		t.Fatalf("boxes = %d", len(boxes))
	}
	for i := 1; i < len(boxes); i++ {
		if boxes[i].Box.P50 > boxes[i-1].Box.P50 {
			t.Fatal("boxes not sorted by median")
		}
	}
	// The paper's extremes: IN/TR/VN/MX near the top, KR/TW near the
	// bottom.
	rank := map[string]int{}
	for i, b := range boxes {
		rank[b.Country] = i
	}
	for _, hi := range []string{"IN", "TR", "MX"} {
		if rank[hi] > len(boxes)/2 {
			t.Errorf("%s ranked %d, want top half", hi, rank[hi])
		}
	}
	for _, lo := range []string{"KR", "TW"} {
		if rank[lo] < len(boxes)/2 {
			t.Errorf("%s ranked %d, want bottom half", lo, rank[lo])
		}
	}
	if len(rep.Rows) != len(boxes) {
		t.Error("report rows mismatch")
	}
}

func TestFig08PublicDistances(t *testing.T) {
	boxes, _ := Fig08PublicByCountry(lab)
	byCountry := map[string]CountryBox{}
	for _, b := range boxes {
		byCountry[b.Country] = b
	}
	// Paper: AR and BR have the largest public-resolver distances (no
	// South American provider sites).
	for _, cc := range []string{"AR", "BR"} {
		if b, ok := byCountry[cc]; ok && b.Box.P50 < 2000 {
			t.Errorf("%s public median = %.0f, want large (>2000)", cc, b.Box.P50)
		}
	}
	// Europe/TW/HK are comparatively close to provider sites.
	for _, cc := range []string{"DE", "NL", "TW"} {
		if b, ok := byCountry[cc]; ok && b.Box.P50 > 1200 {
			t.Errorf("%s public median = %.0f, want small", cc, b.Box.P50)
		}
	}
}

func TestFig09Adoption(t *testing.T) {
	adoption, rep := Fig09PublicAdoption(lab)
	// Paper Fig 9: VN and TR are the heaviest users; JP and KR lightest.
	if adoption["VN"] < adoption["JP"] || adoption["TR"] < adoption["KR"] {
		t.Errorf("adoption ordering broken: VN=%.2f TR=%.2f JP=%.2f KR=%.2f",
			adoption["VN"], adoption["TR"], adoption["JP"], adoption["KR"])
	}
	if adoption["VN"] < 0.25 {
		t.Errorf("VN adoption = %.2f, want heavy", adoption["VN"])
	}
	// Worldwide ~8%: the WORLD row is last.
	last := rep.Rows[len(rep.Rows)-1]
	if last[0] != "WORLD" {
		t.Fatal("missing WORLD row")
	}
}

func TestFig10SmallASesFarther(t *testing.T) {
	buckets, _ := Fig10DistanceByASSize(lab)
	if len(buckets) < 3 {
		t.Fatalf("only %d buckets", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].ShareLo <= buckets[i-1].ShareLo {
			t.Fatal("buckets not ordered ascending by share")
		}
	}
	// Paper Fig 10: small ASes (low share) have larger distances. Single
	// buckets are noisy at lab scale, so compare medians computed over
	// the blocks of small (share < 2^-8) vs large (share >= 2^-6) ASes.
	var small, large stats.Dataset
	for _, as := range lab.World.ASes {
		for _, b := range as.Blocks {
			switch {
			case as.Demand < 1.0/256:
				small.Add(b.ClientLDNSDistance(), b.Demand)
			case as.Demand >= 1.0/64:
				large.Add(b.ClientLDNSDistance(), b.Demand)
			}
		}
	}
	if small.Median() <= large.Median() {
		t.Errorf("small-AS median %.0f should exceed large-AS median %.0f",
			small.Median(), large.Median())
	}
}

func TestFig11PublicClustersLarge(t *testing.T) {
	res, _ := Fig11ClusterRadius(lab)
	if len(res.RadiusAll) == 0 || len(res.RadiusPub) == 0 {
		t.Fatal("missing CDFs")
	}
	// Paper §3.3: 99% of public demand comes from clusters with radius
	// between ~470 and ~3800 miles.
	if res.PubRadiusP1 < 200 {
		t.Errorf("public radius p1 = %.0f, want large (>200)", res.PubRadiusP1)
	}
	if res.PubRadiusP99 < 1500 {
		t.Errorf("public radius p99 = %.0f, want >1500", res.PubRadiusP99)
	}
	// And the mean cluster-LDNS distance tends to exceed the radius.
	if res.PubMeanExceed < 0.5 {
		t.Errorf("mean>radius fraction = %.2f, want majority", res.PubMeanExceed)
	}
}

func TestFig02Ratio(t *testing.T) {
	pts, _, err := Fig02QueryVolume(lab, Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("days = %d", len(pts))
	}
	for _, p := range pts {
		// Paper Fig 2: ~30M client requests/s vs ~1.6M DNS q/s (≈19:1).
		// Caching must make DNS queries a small fraction of requests.
		if p.AuthQPS >= p.ClientQPS/2 {
			t.Errorf("day %d: DNS qps %.0f not well below client qps %.0f",
				p.Day, p.AuthQPS, p.ClientQPS)
		}
	}
}

func TestFig21CoverageGap(t *testing.T) {
	res, _ := Fig21MappingUnitCoverage(lab)
	// Paper: 95% coverage needs 25K LDNSes vs 2.2M blocks (~88x); any
	// strong multiple preserves the conclusion.
	if res.Blocks95 <= res.LDNS95*3 {
		t.Errorf("blocks95=%d ldns95=%d: gap too small", res.Blocks95, res.LDNS95)
	}
	if res.Blocks50 <= res.LDNS50 {
		t.Errorf("blocks50=%d ldns50=%d", res.Blocks50, res.LDNS50)
	}
	last := res.BlockCurve[len(res.BlockCurve)-1]
	if last.CumFraction < 0.999 {
		t.Errorf("block curve ends at %.3f", last.CumFraction)
	}
}

func TestFig22Tradeoff(t *testing.T) {
	rows, rep := Fig22PrefixTradeoff(lab)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Units < rows[i-1].Units {
			t.Error("units not increasing with prefix length")
		}
		if rows[i].RadiusP50 > rows[i-1].RadiusP50+1 {
			t.Errorf("/%d median radius %.0f exceeds coarser /%d's %.0f",
				rows[i].PrefixBits, rows[i].RadiusP50, rows[i-1].PrefixBits, rows[i-1].RadiusP50)
		}
	}
	// Paper: /20 blocks cut units ~3x vs /24 while staying compact
	// (87.3% of clusters within 100 miles).
	var p20, p24 Fig22Row
	for _, r := range rows {
		if r.PrefixBits == 20 {
			p20 = r
		}
		if r.PrefixBits == 24 {
			p24 = r
		}
	}
	ratio := float64(p24.Units) / float64(p20.Units)
	if ratio < 1.5 {
		t.Errorf("/24 to /20 unit ratio = %.1f, want ~3", ratio)
	}
	if p20.Within100mi < 0.6 {
		t.Errorf("/20 compactness = %.2f, want most clusters small", p20.Within100mi)
	}
	// The CIDR row exists.
	found := false
	for _, r := range rep.Rows {
		if r[0] == "cidr(24)" {
			found = true
		}
	}
	if !found {
		t.Error("missing CIDR aggregation row")
	}
}

func TestFig25Shape(t *testing.T) {
	cfg := DefaultFig25Config(Small)
	cfg.Runs = 2
	pts, rep := Fig25DeploymentSweep(lab, cfg)
	if len(pts) != len(cfg.Ns)*3 {
		t.Fatalf("points = %d", len(pts))
	}
	type key struct {
		n      int
		scheme string
	}
	byKey := map[key]Fig25Point{}
	for _, p := range pts {
		byKey[key{p.Deployments, p.Scheme}] = p
	}
	small, big := cfg.Ns[0], cfg.Ns[len(cfg.Ns)-1]
	nsSmall, nsBig := byKey[key{small, "NS"}], byKey[key{big, "NS"}]
	euSmall, euBig := byKey[key{small, "EU"}], byKey[key{big, "EU"}]
	cansBig := byKey[key{big, "CANS"}]

	// More deployments -> lower latency for every scheme.
	if nsBig.MeanMs >= nsSmall.MeanMs || euBig.MeanMs >= euSmall.MeanMs {
		t.Errorf("latency not decreasing with deployments: NS %.1f->%.1f EU %.1f->%.1f",
			nsSmall.MeanMs, nsBig.MeanMs, euSmall.MeanMs, euBig.MeanMs)
	}
	// EU at least matches NS on the mean and clearly wins at P99.
	if euBig.MeanMs > nsBig.MeanMs*1.05 {
		t.Errorf("EU mean %.1f worse than NS %.1f", euBig.MeanMs, nsBig.MeanMs)
	}
	if euBig.P99Ms >= nsBig.P99Ms {
		t.Errorf("EU P99 %.1f not below NS P99 %.1f at max deployments", euBig.P99Ms, nsBig.P99Ms)
	}
	// CANS lands between NS and EU at the tail.
	if !(cansBig.P99Ms <= nsBig.P99Ms*1.02 && cansBig.P99Ms >= euBig.P99Ms*0.98) {
		t.Errorf("CANS P99 %.1f not between EU %.1f and NS %.1f",
			cansBig.P99Ms, euBig.P99Ms, nsBig.P99Ms)
	}
	// EU's P99 advantage grows with deployment count (NS plateaus).
	gapSmall := nsSmall.P99Ms - euSmall.P99Ms
	gapBig := nsBig.P99Ms - euBig.P99Ms
	if gapBig <= gapSmall {
		t.Errorf("EU P99 advantage should grow with deployments: %.1f -> %.1f", gapSmall, gapBig)
	}
	if len(rep.Rows) != len(pts) {
		t.Error("report rows mismatch")
	}
}

func TestAdoptionExtrapolation(t *testing.T) {
	bands, rep := AdoptionExtrapolation(lab)
	if len(bands) != 4 {
		t.Fatalf("bands = %d", len(bands))
	}
	var share float64
	for _, b := range bands {
		share += b.DemandShare
	}
	if share < 0.99 || share > 1.01 {
		t.Errorf("band shares sum to %.2f", share)
	}
	// Far clients gain most (paper: ~50% RTT cut for >1000 mi clients,
	// none for local ones).
	far, near := bands[0], bands[3]
	if far.PredictedRTTGain <= near.PredictedRTTGain {
		t.Errorf("far gain %.2f should exceed near gain %.2f",
			far.PredictedRTTGain, near.PredictedRTTGain)
	}
	if far.PredictedRTTGain < 0.2 {
		t.Errorf("far-band RTT gain = %.2f, want substantial", far.PredictedRTTGain)
	}
	if len(rep.Rows) != 4 {
		t.Error("report rows mismatch")
	}
}

func TestRolloutFiguresReports(t *testing.T) {
	reps, err := RolloutReports(lab, Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("%d reports, want Figs 12, 13-14, 15-16, 17-18 and 19-20", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Rows) == 0 {
			t.Errorf("%s: empty report", rep.ID)
		}
		if rep.Table() == "" {
			t.Errorf("%s: empty table", rep.ID)
		}
	}
	// Spot-check the metric report content: high-exp before mean exceeds
	// after mean for mapping distance.
	if reps[1].ID != "fig13-14" {
		t.Fatalf("second report is %s, want fig13-14", reps[1].ID)
	}
	before, after := positionalMeans(reps[1])
	if before <= after {
		t.Errorf("fig13 high-exp before mean %.1f <= after %.1f", before, after)
	}
}

// positionalMeans extracts the high-exp before/after means from a metric
// report (rows 0 and 1, column 1).
func positionalMeans(rep *Report) (before, after float64) {
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0
		}
		return v
	}
	return parse(rep.Rows[0][1]), parse(rep.Rows[1][1])
}

func TestBaselineMechanisms(t *testing.T) {
	rows, rep := BaselineMechanisms(lab)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 4 mechanisms x 2 sizes", len(rows))
	}
	byKey := map[string]BaselineRow{}
	for _, r := range rows {
		byKey[r.Mechanism+"/"+strconv.Itoa(r.SizeBytes)] = r
	}
	small, large := "100000", "50000000"
	// ECS has the best startup at both sizes.
	for _, size := range []string{small, large} {
		ecs := byKey["ecs/"+size]
		for _, m := range []string{"ns-only", "metafile", "http-redirect"} {
			if ecs.MeanStartupMs > byKey[m+"/"+size].MeanStartupMs+1e-9 {
				t.Errorf("size %s: ecs startup %.1f worse than %s %.1f",
					size, ecs.MeanStartupMs, m, byKey[m+"/"+size].MeanStartupMs)
			}
		}
	}
	// For the small page, redirection's total is worse relative to ECS
	// than for the big download (§7: penalty acceptable only for larger
	// downloads).
	smallPenalty := byKey["http-redirect/"+small].MeanTotalMs / byKey["ecs/"+small].MeanTotalMs
	largePenalty := byKey["http-redirect/"+large].MeanTotalMs / byKey["ecs/"+large].MeanTotalMs
	if largePenalty >= smallPenalty {
		t.Errorf("redirect penalty should shrink with size: %.3f -> %.3f", smallPenalty, largePenalty)
	}
	// For the large download, redirection beats NS-only on average.
	if byKey["http-redirect/"+large].MeanTotalMs >= byKey["ns-only/"+large].MeanTotalMs {
		t.Error("redirect should beat NS-only for large downloads")
	}
	if len(rep.Rows) != 8 {
		t.Error("report rows mismatch")
	}
}

func TestFlashCrowd(t *testing.T) {
	rows, rep, err := FlashCrowd(lab, "DE")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Under light load nothing spills; under heavy load spill and
	// distances grow, but every request is still served.
	if rows[0].SpillFraction > 0.05 {
		t.Errorf("light load spilled %.1f%%", 100*rows[0].SpillFraction)
	}
	last := rows[len(rows)-1]
	if last.SpillFraction <= rows[0].SpillFraction {
		t.Errorf("spill did not grow with load: %.3f -> %.3f",
			rows[0].SpillFraction, last.SpillFraction)
	}
	if last.SpillFraction < 0.2 {
		t.Errorf("4x overload spilled only %.1f%%", 100*last.SpillFraction)
	}
	if last.MeanDistance <= rows[0].MeanDistance {
		t.Error("mean distance did not grow under overload")
	}
	if len(rep.Rows) != 5 {
		t.Error("report rows mismatch")
	}
	if _, _, err := FlashCrowd(lab, "XX"); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestPathStability(t *testing.T) {
	rows, rep := PathStability(lab)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ns, eu := rows[0], rows[1]
	if ns.Policy != mapping.NSBased || eu.Policy != mapping.EndUser {
		t.Fatal("row order wrong")
	}
	// §4.4: EU paths cross fewer AS boundaries and see less loss.
	if eu.MeanASCrossings >= ns.MeanASCrossings {
		t.Errorf("EU crossings %.2f not below NS %.2f", eu.MeanASCrossings, ns.MeanASCrossings)
	}
	if eu.MeanLossPct >= ns.MeanLossPct {
		t.Errorf("EU loss %.3f%% not below NS %.3f%%", eu.MeanLossPct, ns.MeanLossPct)
	}
	if eu.MeanRTTMs >= ns.MeanRTTMs {
		t.Errorf("EU RTT %.1f not below NS %.1f", eu.MeanRTTMs, ns.MeanRTTMs)
	}
	if len(rep.Rows) != 2 {
		t.Error("report rows mismatch")
	}
}

func TestMeasurementFreshness(t *testing.T) {
	rows, rep := MeasurementFreshness(lab, Small)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	daily, monthly := rows[0], rows[len(rows)-1]
	if daily.SweepEveryDays != 1 {
		t.Fatal("row order wrong")
	}
	// Fresher measurements -> better realized latency, at more probes.
	if daily.MeanRealizedMs >= monthly.MeanRealizedMs {
		t.Errorf("daily sweeps (%.1f ms) should beat monthly (%.1f ms)",
			daily.MeanRealizedMs, monthly.MeanRealizedMs)
	}
	if daily.Probes <= monthly.Probes {
		t.Errorf("daily sweeps should cost more probes: %d vs %d", daily.Probes, monthly.Probes)
	}
	if len(rep.Rows) != 3 {
		t.Error("report rows mismatch")
	}
}

func TestGeoErrorImpact(t *testing.T) {
	rows, rep := GeoErrorImpact(lab)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	clean := rows[0]
	worst := rows[len(rows)-1]
	// Error degrades mapping quality monotonically-ish: the worst level
	// must be clearly worse than clean, and mild error only mildly so.
	if worst.MeanRTTMs <= clean.MeanRTTMs {
		t.Errorf("30%%/1000mi error did not degrade RTT: %.1f vs %.1f",
			worst.MeanRTTMs, clean.MeanRTTMs)
	}
	mild := rows[1] // 10% / 250 mi
	if mild.MeanRTTMs > clean.MeanRTTMs*1.5 {
		t.Errorf("mild geo error blew up RTT: %.1f vs %.1f", mild.MeanRTTMs, clean.MeanRTTMs)
	}
	if len(rep.Rows) != 4 {
		t.Error("report rows mismatch")
	}
}

func TestOverlayBenefit(t *testing.T) {
	rows, rep := OverlayBenefit(lab)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RelayedPct <= 0 {
			t.Errorf("epoch %d: no relayed pairs", r.Epoch)
		}
		if r.RelayedImprovementPct <= 0 || r.RelayedImprovementPct >= 90 {
			t.Errorf("epoch %d: relayed improvement %.1f%% implausible", r.Epoch, r.RelayedImprovementPct)
		}
	}
	if len(rep.Rows) != 3 {
		t.Error("report rows mismatch")
	}
}

func TestTrafficClassesExperiment(t *testing.T) {
	rows, rep := TrafficClasses(lab)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	web, video, app := rows[0], rows[1], rows[2]
	if web.MeanPingMs > video.MeanPingMs || web.MeanPingMs > app.MeanPingMs {
		t.Errorf("web should minimise ping: %.2f vs %.2f / %.2f",
			web.MeanPingMs, video.MeanPingMs, app.MeanPingMs)
	}
	if video.MeanThroughput < web.MeanThroughput {
		t.Errorf("video throughput %.1f below web %.1f", video.MeanThroughput, web.MeanThroughput)
	}
	if app.MeanLossPct > web.MeanLossPct {
		t.Errorf("application loss %.4f above web %.4f", app.MeanLossPct, web.MeanLossPct)
	}
	if len(rep.Rows) != 3 {
		t.Error("report rows mismatch")
	}
}

// TestFlashCrowdMatchesFullRows holds the two-level map to the map of full
// rows it replaced, where the two can differ: a regional surge whose picks
// leave the head. On a platform large enough that the head is a share of
// it, the flash crowd answered from heads and shared tails must match the
// same crowd answered from every block's own full ranking exactly until
// the surge exceeds local capacity, and stay within a few percent of its
// mapping distance beyond — a fixed 32-entry head with 500-mile tails was
// 33% off at 2x on the Full lab.
func TestFlashCrowdMatchesFullRows(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 8000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 1200})
	big := &Lab{World: w, Platform: p, Net: lab.Net}
	stored, _, err := flashCrowd(big, "DE", false)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := flashCrowd(big, "DE", true)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stored {
		f := whole[i]
		t.Logf("%.2gx: stored %.1f%% %.1f / %.1f mi, full rows %.1f%% %.1f / %.1f mi", s.LoadMultiple,
			100*s.SpillFraction, s.MeanDistance, s.P95Distance, 100*f.SpillFraction, f.MeanDistance, f.P95Distance)
		tolerance := 0.0
		if s.LoadMultiple > 1 {
			tolerance = 0.03
		}
		if math.Abs(s.MeanDistance-f.MeanDistance) > tolerance*f.MeanDistance ||
			math.Abs(s.SpillFraction-f.SpillFraction) > tolerance {
			t.Errorf("%.2gx: stored map %.1f mi mean, %.1f%% spilled; full rows %.1f mi, %.1f%%", s.LoadMultiple,
				s.MeanDistance, 100*s.SpillFraction, f.MeanDistance, 100*f.SpillFraction)
		}
	}
}
