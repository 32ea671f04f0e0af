package experiments

import (
	"fmt"

	"eum/internal/world"
)

// ValidateECSTruncation checks a truncated-ECS prefix length against the
// IPv4 mapping unit: a truncation must reveal at least one bit and must
// not be more specific than the /24 unit (beyond the unit it is no longer
// a truncation, and the mapping plane would just clamp the scope back).
func ValidateECSTruncation(bits uint8) error {
	if bits < 1 || bits > 24 {
		return fmt.Errorf("experiments: ECS truncation /%d out of range: must be within [1, 24] (the /24 IPv4 mapping unit)", bits)
	}
	return nil
}

// largeISPLDNS returns the LDNS IDs of ISP (non-public) resolvers serving
// at least one block of a Large AS — the "major ISPs flip on ECS" tier of
// the adoption axis. Membership is derived from the client blocks, since
// an LDNS serves whatever blocks the world wired to it.
func largeISPLDNS(w *world.World) map[uint64]bool {
	ids := map[uint64]bool{}
	for _, b := range w.Blocks {
		if b.AS.Large && !b.LDNS.IsPublic() {
			ids[b.LDNS.ID] = true
		}
	}
	return ids
}

// ECSGrid crosses ECS adoption against revealed prefix length: who
// forwards ECS (public resolvers only, public plus the large ISPs, or
// everyone) x what they forward (the privacy-truncated prefix, default
// /20, versus the full /24 mapping unit), against a shared no-ECS
// baseline. The paper's §8 conclusion — broad roll-out is beneficial —
// holds only if truncated reveals still map well; the win column is the
// demand-weighted mean mapping-distance reduction versus no ECS at all.
func ECSGrid(lab *Lab, truncV4 uint8) ([]ECSCellResult, *Report, error) {
	if truncV4 == 0 {
		truncV4 = world.ECSTruncatedPrefixV4
	}
	if err := ValidateECSTruncation(truncV4); err != nil {
		return nil, nil, err
	}
	large := largeISPLDNS(lab.World)
	adoptions := []struct {
		name    string
		enabled func(l *world.LDNS) bool
	}{
		{"public-only", func(l *world.LDNS) bool { return l.IsPublic() }},
		{"public+large-isp", func(l *world.LDNS) bool { return l.IsPublic() || large[l.ID] }},
		{"universal", func(*world.LDNS) bool { return true }},
	}
	prefixes := []struct {
		name   string
		v4, v6 uint8
	}{
		{fmt.Sprintf("/%d", truncV4), truncV4, world.ECSTruncatedPrefixV6},
		{"/24", world.ECSFullPrefixV4, world.ECSFullPrefixV6},
	}
	cells := []ecsCell{{Name: "no-ecs"}}
	for _, a := range adoptions {
		for _, p := range prefixes {
			cells = append(cells, ecsCell{
				Name:     a.name + " " + p.name,
				Enabled:  a.enabled,
				PrefixV4: p.v4,
				PrefixV6: p.v6,
			})
		}
	}
	results, err := runECSCells(lab.World, lab.Platform, lab.Net, 8, cells)
	if err != nil {
		return nil, nil, err
	}
	base := results[0].MeanDistance
	rep := &Report{
		ID:      "ecsgrid",
		Caption: fmt.Sprintf("EU-mapping win by ECS adoption x prefix (truncated=/%d, baseline=no-ecs)", truncV4),
		Columns: []string{"cell", "meanDistMi", "meanRTTms", "p95RTTms", "distWinPct"},
	}
	for _, r := range results {
		win := 0.0
		if base > 0 {
			win = 100 * (base - r.MeanDistance) / base
		}
		rep.Rows = append(rep.Rows, row(r.Name, r.MeanDistance, r.MeanRTTMs, r.P95RTTMs, win))
	}
	return results, rep, nil
}

// AmpGrid sweeps the public resolvers' revealed prefix length and reports
// the authoritative-side price: the query-rate multiplier versus no ECS
// (§5.1 — finer reveals split the per-scope answer cache into more
// entries, so more queries miss) and the resolver-cache memory cost
// (§5.2). The paper observed roughly 8x query volume from public
// resolvers once they revealed /24s; that is the pubAmp column (the
// public resolvers' own rate — ISP resolvers never change, so the total
// moves far less, exactly as the paper's Fig 14 total did). pubAmp should
// rise monotonically as the prefix approaches the mapping unit.
func AmpGrid(lab *Lab, prefixes []uint8) ([]ECSCellResult, *Report, error) {
	if len(prefixes) == 0 {
		prefixes = []uint8{8, 12, 16, 20, 24}
	}
	cells := []ecsCell{{Name: "no-ecs"}}
	public := func(l *world.LDNS) bool { return l.IsPublic() }
	for _, p := range prefixes {
		if err := ValidateECSTruncation(p); err != nil {
			return nil, nil, err
		}
		cells = append(cells, ecsCell{
			Name:     fmt.Sprintf("/%d", p),
			Enabled:  public,
			PrefixV4: p,
			PrefixV6: p + 32, // keep the v6 reveal in step (/24 -> /56)
		})
	}
	results, err := runECSCells(lab.World, lab.Platform, lab.Net, 8, cells)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:      "ampgrid",
		Caption: "authoritative query amplification vs ECS prefix length (public resolvers)",
		Columns: []string{"prefix", "publicQPS", "pubAmp", "totalAmp", "cacheEntries"},
	}
	for _, r := range results {
		rep.Rows = append(rep.Rows, row(r.Name, r.AuthQPSPublic, r.PublicQueryMultiplier, r.AuthQueryMultiplier, r.CacheEntries))
	}
	return results, rep, nil
}
