package experiments

import (
	"fmt"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/mapping"
	"eum/internal/stats"
	"eum/internal/world"
)

// FlashCrowdRow is one load level of the flash-crowd experiment.
type FlashCrowdRow struct {
	// LoadMultiple scales the regional demand surge relative to the
	// local deployments' capacity.
	LoadMultiple float64
	// SpillFraction is the fraction of the surge served from outside the
	// surging country — true regional overflow.
	SpillFraction float64
	// MeanDistance and P95Distance are client-to-assigned-server miles.
	MeanDistance float64
	P95Distance  float64
}

// FlashCrowd exercises the global load balancer the way a regional event
// does (the paper's mapping system "combines [scores] with liveness,
// capacity, and other real-time information"): demand for one domain
// surges in one country, local clusters saturate, and the balancer must
// spill to farther deployments — trading mapping distance for availability.
// Rows sweep the surge intensity; the spill fraction and distance
// percentiles grow with it while every request keeps being served.
func FlashCrowd(lab *Lab, country string) ([]FlashCrowdRow, *Report, error) {
	return flashCrowd(lab, country, false)
}

// flashCrowd is FlashCrowd, answering — when fullRows is set — not from the
// published map but from every block's own complete ranking, walked whole:
// what a map that stored full rows would answer, the reference the stored
// heads and shared tails are measured against (see RankRegret).
func flashCrowd(lab *Lab, country string, fullRows bool) ([]FlashCrowdRow, *Report, error) {
	var target *world.Country
	for _, c := range lab.World.Countries {
		if c.Code() == country {
			target = c
		}
	}
	if target == nil {
		return nil, nil, fmt.Errorf("experiments: unknown country %q", country)
	}

	var rows []FlashCrowdRow
	rep := &Report{
		ID:      "flashcrowd",
		Caption: fmt.Sprintf("Flash crowd in %s: load balancing under a regional surge", country),
		Columns: []string{"load-multiple", "spill-pct", "mean-dist-mi", "p95-dist-mi"},
	}

	// Local capacity available to the surge.
	var localCap float64
	for _, d := range lab.Platform.Deployments {
		if d.Country == country {
			localCap += d.Capacity()
		}
	}
	if localCap == 0 {
		return nil, nil, fmt.Errorf("experiments: no deployments in %q", country)
	}

	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		lab.Platform.ResetLoad()
		sys := mapping.NewSystem(lab.World, lab.Platform, lab.Net,
			mapping.Config{Policy: mapping.EndUser, PingTargets: 800})

		// The surge: total regional demand = mult x local capacity,
		// spread over the country's blocks proportionally to demand.
		var regionDemand float64
		for _, b := range target.Blocks {
			regionDemand += b.Demand
		}
		scale := mult * localCap / regionDemand

		var dist stats.Dataset
		spilled, total := 0.0, 0.0
		for _, b := range target.Blocks {
			req := mapping.Request{
				Domain: "viral.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix,
				Demand: b.Demand * scale,
			}
			var d *cdn.Deployment
			if fullRows {
				lb := sys.LoadBalancer()
				// The block's whole ranking as one head. β is 0, so the
				// pick reads the order alone.
				rank := sys.Scorer().Rank(b.Endpoint())
				own := mapping.Row{Head: make([]uint16, len(rank))}
				for k, r := range rank {
					own.Head[k] = uint16(r.Dep)
				}
				var err error
				if d, err = lb.PickDeployment(lab.Platform.Deployments, own, req.Demand); err != nil {
					return nil, nil, err
				}
				if _, err = lb.PickServers(d, req.Domain, req.Demand); err != nil {
					return nil, nil, err
				}
			} else {
				r, err := sys.Map(req)
				if err != nil {
					return nil, nil, err
				}
				d = r.Deployment
			}
			total += b.Demand
			if d.Country != country {
				spilled += b.Demand
			}
			dist.Add(geo.Distance(b.Loc, d.Loc), b.Demand)
		}
		row1 := FlashCrowdRow{
			LoadMultiple:  mult,
			SpillFraction: spilled / total,
			MeanDistance:  dist.Mean(),
			P95Distance:   dist.Percentile(95),
		}
		rows = append(rows, row1)
		rep.Rows = append(rep.Rows, row(mult, 100*row1.SpillFraction, row1.MeanDistance, row1.P95Distance))
	}
	lab.Platform.ResetLoad()
	return rows, rep, nil
}
