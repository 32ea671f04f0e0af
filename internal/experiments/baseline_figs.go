package experiments

import (
	"fmt"

	"eum/internal/mapping"
	"eum/internal/stats"
)

// BaselineRow summarises one mechanism across the public-resolver client
// population for one download size.
type BaselineRow struct {
	// Mechanism is "ns-only", "ecs", "metafile" or "http-redirect".
	Mechanism string
	SizeBytes int
	// MeanStartupMs and MeanTotalMs are demand-weighted means.
	MeanStartupMs float64
	MeanTotalMs   float64
}

// BaselineMechanisms reproduces the §7 comparison the paper makes in
// prose: end-user mapping via ECS against the older metafile and HTTP
// redirection mechanisms and the NS-only baseline, for a small web page
// and a large software download. The redirection penalty dominates small
// transfers and washes out on large ones — which is why redirection was
// "acceptable only for larger downloads" and ECS is the general solution.
func BaselineMechanisms(lab *Lab) ([]BaselineRow, *Report) {
	scorer := mapping.NewScorer(lab.World, lab.Platform, lab.Net, 1000)

	sizes := []int{100_000, 50_000_000} // 100 KB page, 50 MB download
	type key struct {
		mech mechanism
		size int
	}
	startup := map[key]*stats.Dataset{}
	total := map[key]*stats.Dataset{}

	count := 0
	for _, b := range lab.World.Blocks {
		if !b.LDNS.IsPublic() {
			continue
		}
		if count++; count > 500 {
			break
		}
		for _, size := range sizes {
			rs, err := mechanismTimes(scorer, lab.Net, b, size, 1)
			if err != nil {
				continue
			}
			for _, r := range rs {
				k := key{r.Mechanism, size}
				if startup[k] == nil {
					startup[k] = &stats.Dataset{}
					total[k] = &stats.Dataset{}
				}
				startup[k].Add(r.StartupMs, b.Demand)
				total[k].Add(r.TotalMs, b.Demand)
			}
		}
	}

	var out []BaselineRow
	rep := &Report{
		ID:      "sec7",
		Caption: "End-user mapping mechanisms: ECS vs metafile vs HTTP redirect vs NS-only",
		Columns: []string{"mechanism", "size", "mean-startup-ms", "mean-total-ms"},
	}
	for _, size := range sizes {
		for _, mech := range []mechanism{nsOnly, viaECS, metafile, httpRedirect} {
			k := key{mech, size}
			if startup[k] == nil {
				continue
			}
			row1 := BaselineRow{
				Mechanism:     mech.String(),
				SizeBytes:     size,
				MeanStartupMs: startup[k].Mean(),
				MeanTotalMs:   total[k].Mean(),
			}
			out = append(out, row1)
			rep.Rows = append(rep.Rows, row(row1.Mechanism, fmt.Sprintf("%dKB", size/1000),
				row1.MeanStartupMs, row1.MeanTotalMs))
		}
	}
	return out, rep
}
