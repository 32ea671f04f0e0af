package experiments

import (
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/par"
	"eum/internal/stats"
)

// GeoErrorRow is one geolocation-error level's outcome.
type GeoErrorRow struct {
	// MislocateFraction of client prefixes were displaced.
	MislocateFraction float64
	// ErrorMiles is the displacement magnitude.
	ErrorMiles float64
	// MeanRTTMs is the demand-weighted mean client RTT under EU mapping
	// decisions made with the erroneous geolocation.
	MeanRTTMs float64
	// P95RTTMs is the 95th percentile.
	P95RTTMs float64
}

// GeoErrorImpact measures how sensitive end-user mapping is to
// geolocation error. The mapping system clusters client blocks to ping
// targets by geographic proximity (§6's measurement methodology, built on
// the Edgescape-style database of §2.2); when a block's database location
// is wrong, it inherits the wrong target's measurements and may be mapped
// to a distant cluster. The experiment distorts a fraction of client
// locations by a fixed distance, makes EU decisions with the distorted
// view, and evaluates the true realized RTT.
func GeoErrorImpact(lab *Lab) ([]GeoErrorRow, *Report) {
	blocks := topBlocks(lab.World, 1500)

	var out []GeoErrorRow
	rep := &Report{
		ID:      "geoerr",
		Caption: "EU mapping quality vs geolocation error",
		Columns: []string{"mislocated-pct", "error-mi", "mean-rtt-ms", "p95-rtt-ms"},
	}
	for _, lvl := range []struct {
		frac  float64
		miles float64
	}{{0, 0}, {0.1, 250}, {0.3, 250}, {0.3, 1000}} {
		db := buildGeoDB(lab.World, 11, lvl.frac, lvl.miles)
		// A fresh scorer per level: target assignment caches key on
		// endpoint identity, and each level distorts locations differently.
		scorer := mapping.NewScorer(lab.World, lab.Platform, lab.Net, 1000)
		parts := par.MapShards(len(blocks), func(_, lo, hi int) *stats.Dataset {
			d := &stats.Dataset{}
			for _, b := range blocks[lo:hi] {
				// The mapping system sees the database's view of the client.
				seen := b.Endpoint()
				if loc, ok := db.locate(b.Prefix.Addr()); ok {
					seen.Loc = loc
				}
				dep, _ := scorer.Best(seen)
				if dep == nil {
					continue
				}
				// The client's experience uses the true location.
				d.Add(lab.Net.BaseRTTMs(dep.Endpoint(), b.Endpoint()), b.Demand)
			}
			return d
		})
		var rtt stats.Dataset
		for _, p := range parts {
			rtt.Merge(p)
		}
		r := GeoErrorRow{
			MislocateFraction: lvl.frac,
			ErrorMiles:        lvl.miles,
			MeanRTTMs:         rtt.Mean(),
			P95RTTMs:          rtt.Percentile(95),
		}
		out = append(out, r)
		rep.Rows = append(rep.Rows, row(100*lvl.frac, lvl.miles, r.MeanRTTMs, r.P95RTTMs))
	}
	return out, rep
}

// BroadRolloutReport runs the §8 what-if (runBroadRollout) and formats it
// as a figure report.
func BroadRolloutReport(lab *Lab) (*Report, error) {
	stages, err := runBroadRollout(lab.World, lab.Platform, lab.Net, 8)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "sec8",
		Caption: "Broad ECS adoption what-if: no ECS vs public-only vs universal",
		Columns: []string{"stage", "mean-rtt-ms", "p95-rtt-ms", "mean-dist-mi", "auth-query-x"},
	}
	for _, st := range stages {
		rep.Rows = append(rep.Rows, row(st.Name, st.MeanRTTMs, st.P95RTTMs, st.MeanDistance, st.AuthQueryMultiplier))
	}
	return rep, nil
}

// OverlayRow reports the overlay transport's benefit for origin fetches.
type OverlayRow struct {
	// Epoch is the congestion epoch evaluated.
	Epoch uint64
	// RelayedPct is the share of server-origin pairs served via a relay.
	RelayedPct float64
	// MeanImprovementPct is the mean latency reduction across all pairs.
	MeanImprovementPct float64
	// RelayedImprovementPct restricts the mean to relayed pairs.
	RelayedImprovementPct float64
}

// OverlayBenefit quantifies the overlay-transport substrate (§4.1's
// origin acceleration): across server-origin pairs and several congestion
// epochs, how often a one-hop relay beats the direct Internet path and by
// how much.
func OverlayBenefit(lab *Lab) ([]OverlayRow, *Report) {
	o := newOverlay(lab.Platform, lab.Net, 30)
	// Server-origin pairs: edge deployments fetching from distant origin
	// sites (content providers' data centres, placed at far block sites).
	var pairs [][2]netmodel.Endpoint
	for i := 0; i < 150 && i < len(lab.Platform.Deployments); i++ {
		server := lab.Platform.Deployments[i].Endpoint()
		origin := lab.World.Blocks[(i*53+700)%len(lab.World.Blocks)].Endpoint()
		origin.Access = netmodel.AccessBackbone
		pairs = append(pairs, [2]netmodel.Endpoint{server, origin})
	}
	var out []OverlayRow
	rep := &Report{
		ID:      "overlay",
		Caption: "Overlay transport benefit for origin fetches",
		Columns: []string{"epoch", "relayed-pct", "mean-improvement-pct", "relayed-improvement-pct"},
	}
	for _, epoch := range []uint64{1, 2, 3} {
		s := o.evaluate(pairs, epoch)
		r := OverlayRow{
			Epoch:                 epoch,
			RelayedPct:            100 * s.RelayedFraction,
			MeanImprovementPct:    100 * s.MeanImprovement,
			RelayedImprovementPct: 100 * s.MeanImprovementWhenRelayed,
		}
		out = append(out, r)
		rep.Rows = append(rep.Rows, row(epoch, r.RelayedPct, r.MeanImprovementPct, r.RelayedImprovementPct))
	}
	return out, rep
}

// TrafficClassRow reports one traffic class's chosen-path properties.
type TrafficClassRow struct {
	// Class is "web", "video" or "application".
	Class          string
	MeanPingMs     float64
	MeanLossPct    float64
	MeanThroughput float64 // Mbit/s
}

// TrafficClasses compares the per-class scoring functions of §2.2: the
// same platform ranked for web (latency), video (throughput) and
// application (loss) traffic, reporting the properties of the chosen
// paths under each objective.
func TrafficClasses(lab *Lab) ([]TrafficClassRow, *Report) {
	blocks := topBlocks(lab.World, 800)
	var out []TrafficClassRow
	rep := &Report{
		ID:      "classes",
		Caption: "Per-traffic-class scoring: chosen-path properties",
		Columns: []string{"class", "mean-ping-ms", "mean-loss-pct", "mean-throughput-mbps"},
	}
	for _, class := range []trafficClass{classWeb, classVideo, classApplication} {
		scorer := mapping.NewScorer(lab.World, lab.Platform, classProber{lab.Net, class}, 800)
		type classPart struct{ ping, loss, tp stats.Dataset }
		parts := par.MapShards(len(blocks), func(_, lo, hi int) *classPart {
			p := &classPart{}
			for _, b := range blocks[lo:hi] {
				ep := b.Endpoint()
				dep, _ := scorer.Best(ep)
				if dep == nil {
					continue
				}
				de := dep.Endpoint()
				p.ping.Add(lab.Net.PingMs(de, ep), b.Demand)
				p.loss.Add(100*lab.Net.Loss(de, ep), b.Demand)
				p.tp.Add(lab.Net.ThroughputMbps(de, ep, 0), b.Demand)
			}
			return p
		})
		var ping, loss, tp stats.Dataset
		for _, p := range parts {
			ping.Merge(&p.ping)
			loss.Merge(&p.loss)
			tp.Merge(&p.tp)
		}
		r := TrafficClassRow{
			Class:          class.String(),
			MeanPingMs:     ping.Mean(),
			MeanLossPct:    loss.Mean(),
			MeanThroughput: tp.Mean(),
		}
		out = append(out, r)
		rep.Rows = append(rep.Rows, row(r.Class, r.MeanPingMs, r.MeanLossPct, r.MeanThroughput))
	}
	return out, rep
}
