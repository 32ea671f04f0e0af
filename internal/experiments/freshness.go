package experiments

import (
	"time"

	"eum/internal/mapping"
	"eum/internal/netmodel"
)

// FreshnessRow is one sweep-cadence's outcome.
type FreshnessRow struct {
	// SweepEveryDays is the measurement sweep interval.
	SweepEveryDays int
	// MeanRealizedMs is the demand-weighted mean latency clients actually
	// experienced under decisions driven by measurements of that age.
	MeanRealizedMs float64
	// Probes is the total number of measurement probes spent.
	Probes int
}

// MeasurementFreshness quantifies the design choice behind the paper's
// split of the measurement component into "periodic" and "real-time"
// halves (Fig 3): mapping decisions made from stale path measurements miss
// congestion shifts, so realized client latency degrades as the sweep
// interval grows — while probe cost shrinks. The experiment runs a
// horizon of days; each day, end-user mapping decisions for a sample of
// client blocks are made from the measurement DB (last sweep's view) and
// evaluated against the network's actual state that day.
func MeasurementFreshness(lab *Lab, scale Scale) ([]FreshnessRow, *Report) {
	horizon := 30
	sample := 300
	if scale == Small {
		horizon = 15
		sample = 150
	}
	blocks := topBlocks(lab.World, sample)
	targets := make([]netmodel.Endpoint, len(blocks))
	for i, b := range blocks {
		targets[i] = b.Endpoint()
	}
	start := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)

	var rows []FreshnessRow
	rep := &Report{
		ID:      "freshness",
		Caption: "Mapping quality vs measurement sweep interval",
		Columns: []string{"sweep-every-days", "mean-realized-ms", "probes"},
	}
	for _, every := range []int{1, 7, 30} {
		db := newMeasureDB(lab.Net)
		dbScorer := mapping.NewScorer(lab.World, lab.Platform, db, 0)

		var sumMs, sumW float64
		probes := 0
		for day := 0; day < horizon; day++ {
			now := start.AddDate(0, 0, day)
			if day%every == 0 {
				probes += db.sweep(now, lab.Platform, targets)
				dbScorer.Invalidate()
			}
			epoch := epochOf(now)
			for i, b := range blocks {
				dep, _ := dbScorer.Best(targets[i])
				if dep == nil {
					continue
				}
				sumMs += b.Demand * lab.Net.PingMsAt(dep.Endpoint(), targets[i], epoch)
				sumW += b.Demand
			}
		}
		r := FreshnessRow{
			SweepEveryDays: every,
			MeanRealizedMs: sumMs / sumW,
			Probes:         probes,
		}
		rows = append(rows, r)
		rep.Rows = append(rep.Rows, row(every, r.MeanRealizedMs, r.Probes))
	}
	return rows, rep
}
