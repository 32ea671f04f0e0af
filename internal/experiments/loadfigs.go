package experiments

import (
	"fmt"

	"eum/internal/cdn"
	"eum/internal/demand"
	"eum/internal/geo"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/stats"
	"eum/internal/world"
)

// ClosedLoopConfig parameterises the closed-loop flash-crowd drill.
// Zero-valued fields take the defaults from DefaultClosedLoopConfig.
type ClosedLoopConfig struct {
	// Country hosts the surge.
	Country string
	// Beta is the load balancer's balance factor.
	Beta float64
	// Multiples is the per-round surge intensity (regional demand as a
	// multiple of local capacity): the timeline the loop walks through.
	Multiples []float64
	// PingTargets bounds the mapping system's measured endpoint set.
	PingTargets int
}

// DefaultClosedLoopConfig is a surge-and-recede timeline: quiet, ramp to
// 4x local capacity, recede, then quiet rounds in which the assignments
// must be back where they started.
func DefaultClosedLoopConfig() ClosedLoopConfig {
	return ClosedLoopConfig{
		Country:     "DE",
		Beta:        2,
		Multiples:   []float64{0, 1, 2, 4, 4, 2, 1, 0.25, 0, 0, 0, 0},
		PingTargets: 800,
	}
}

func (c ClosedLoopConfig) withDefaults() ClosedLoopConfig {
	d := DefaultClosedLoopConfig()
	if c.Country == "" {
		c.Country = d.Country
	}
	if c.Beta == 0 {
		c.Beta = d.Beta
	}
	if len(c.Multiples) == 0 {
		c.Multiples = d.Multiples
	}
	if c.PingTargets <= 0 {
		c.PingTargets = d.PingTargets
	}
	return c
}

// ClosedLoopRow is one round of the closed-loop drill.
type ClosedLoopRow struct {
	Round        int
	LoadMultiple float64
	// Epoch is the snapshot the round's queries were answered from.
	Epoch uint64
	// SpillFraction is the demand share served outside the surging country.
	SpillFraction float64
	// MeanDistance and P95Distance are demand-weighted client-to-server
	// miles.
	MeanDistance float64
	P95Distance  float64
	// RemapFraction is the fraction of surge blocks whose assigned
	// deployment changed since the previous round.
	RemapFraction float64
	// MaxUtil is the highest deployment utilization after the round's
	// demand landed.
	MaxUtil float64
	// OverloadShare is the fraction of the round's demand sitting above
	// deployment capacity — demand that would be served degraded. The
	// global balancer only places demand over capacity when every
	// candidate is saturated, so this measures how often a block's row
	// left it no unsaturated choice.
	OverloadShare float64
	// Overloaded counts the deployments over capacity once the round's
	// demand landed.
	Overloaded int
}

// ClosedLoopResult is the drill's outcome.
type ClosedLoopResult struct {
	Rows []ClosedLoopRow
	// TotalRemaps counts block assignment changes summed over all rounds;
	// a stable loop re-maps each block a bounded number of times, not
	// once per round.
	TotalRemaps int
	// Reconverged reports whether the final round's assignments are
	// identical to the quiet first round's.
	Reconverged bool
}

// ClosedLoopFlashCrowd runs the regional flash crowd with the load
// feedback closed at the pick: each round assigns the surge demand through
// the published map, and every answer weighs the load the answers before it
// landed (the balance factor re-ranks the first live head entries by
// utilization). The paper's mapping system reacts to "liveness, capacity,
// and other real-time information" — this drill checks the reaction is
// proportionate: demand spills while the surge lasts and the assignments
// return to proximity when it recedes.
func ClosedLoopFlashCrowd(lab *Lab, cfg ClosedLoopConfig) (*ClosedLoopResult, *Report, error) {
	return closedLoopFlashCrowd(lab, cfg, nil)
}

// closedLoopFlashCrowd is ClosedLoopFlashCrowd recording, when depths is
// not nil, how deep in its row every pick landed.
func closedLoopFlashCrowd(lab *Lab, cfg ClosedLoopConfig, depths *spillDepths) (*ClosedLoopResult, *Report, error) {
	cfg = cfg.withDefaults()
	var target *world.Country
	for _, c := range lab.World.Countries {
		if c.Code() == cfg.Country {
			target = c
		}
	}
	if target == nil {
		return nil, nil, fmt.Errorf("experiments: unknown country %q", cfg.Country)
	}
	var localCap, regionDemand float64
	for _, d := range lab.Platform.Deployments {
		if d.Country == cfg.Country {
			localCap += d.Capacity()
		}
	}
	for _, b := range target.Blocks {
		regionDemand += b.Demand
	}
	if localCap == 0 {
		return nil, nil, fmt.Errorf("experiments: no deployments in %q", cfg.Country)
	}

	lab.Platform.ResetLoad()
	defer lab.Platform.ResetLoad()
	sys := mapping.NewSystem(lab.World, lab.Platform, lab.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: cfg.PingTargets, BalanceFactor: cfg.Beta,
	})
	mm := mapmaker.New(sys, mapmaker.Config{})

	res := &ClosedLoopResult{}
	rep := &Report{
		ID: "loadloop",
		Caption: fmt.Sprintf("Closed-loop flash crowd in %s (beta=%g): surge, spill, recede, reconverge",
			cfg.Country, cfg.Beta),
		Columns: []string{"round", "load-multiple", "epoch", "spill-pct", "mean-dist-mi", "remap-pct", "max-util", "overloaded"},
	}

	var first, prev map[uint64]uint64 // block endpoint ID -> deployment ID
	for r, mult := range cfg.Multiples {
		lab.Platform.ResetLoad()
		// Model the standalone refresh cadence: one periodic rebuild per
		// round.
		mm.Notify(mapmaker.ReasonPeriodic)
		sn := mm.Sync()

		scale := mult * localCap / regionDemand
		var dist stats.Dataset
		spilled, total := 0.0, 0.0
		cur := make(map[uint64]uint64, len(target.Blocks))
		remapped := 0
		for _, b := range target.Blocks {
			resp, err := sys.MapAt(sn, mapping.Request{
				Domain: "viral.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix,
				Demand: b.Demand * scale,
			})
			if err != nil {
				return nil, nil, err
			}
			id := b.Endpoint().ID
			depths.record(sn, b, resp.Deployment)
			cur[id] = resp.Deployment.ID
			if prev != nil && prev[id] != resp.Deployment.ID {
				remapped++
			}
			total += b.Demand
			if resp.Deployment.Country != cfg.Country {
				spilled += b.Demand
			}
			dist.Add(geo.Distance(b.Loc, resp.Deployment.Loc), b.Demand)
		}
		row1 := ClosedLoopRow{
			Round: r, LoadMultiple: mult, Epoch: sn.Epoch(),
			SpillFraction: spilled / total,
			MeanDistance:  dist.Mean(),
			P95Distance:   dist.Percentile(95),
		}
		overflow, landed := 0.0, 0.0
		for _, d := range lab.Platform.Deployments {
			row1.MaxUtil = max(row1.MaxUtil, d.Utilisation())
			landed += d.Load()
			if over := d.Load() - d.Capacity(); over > 0 {
				overflow += over
				row1.Overloaded++
			}
		}
		if landed > 0 {
			row1.OverloadShare = overflow / landed
		}
		if prev != nil {
			row1.RemapFraction = float64(remapped) / float64(len(target.Blocks))
			res.TotalRemaps += remapped
		}
		res.Rows = append(res.Rows, row1)
		rep.Rows = append(rep.Rows, row(r, mult, fmt.Sprint(row1.Epoch), 100*row1.SpillFraction,
			row1.MeanDistance, 100*row1.RemapFraction, fmt.Sprintf("%.2f", row1.MaxUtil), row1.Overloaded))
		if first == nil {
			first = cur
		}
		prev = cur
	}

	res.Reconverged = true
	for id, dep := range first {
		if prev[id] != dep {
			res.Reconverged = false
			break
		}
	}
	return res, rep, nil
}

// BrownoutRow is one balance-factor setting of the brownout experiment.
type BrownoutRow struct {
	Beta float64
	// BaselineTargetUtil is the browned-out deployment's utilization
	// while still healthy (identical across rows by construction).
	BaselineTargetUtil float64
	// PeakTargetUtil is its worst utilization across the brownout rounds.
	PeakTargetUtil float64
	// FinalTargetUtil is its utilization in the final rounds, averaged
	// over the last two.
	FinalTargetUtil float64
	// ShedFraction is how much of its baseline demand the final rounds
	// moved elsewhere.
	ShedFraction float64
	// MeanDistance is the final round's demand-weighted mapping distance.
	MeanDistance float64
}

// brownoutCapacityFactor is the fractional capacity surviving the
// brownout (a partial failure: cooling, power capping, or a rack down —
// the deployment stays up at reduced capacity). Half capacity at a 0.6
// healthy utilization leaves the deployment offered 1.2x its remaining
// capacity: deep enough to saturate it, shallow enough that a map-level
// shed can bring it back under — the regime where load-aware picks and
// hard capacity spill behave observably differently.
const brownoutCapacityFactor = 0.5

// BrownoutZipf dims the platform's hottest deployment to half capacity
// under Zipf-distributed content demand and compares how the mapping
// plane absorbs it across balance factors. At beta=0 only the hard
// capacity spill in the global load balancer reacts — the deployment
// saturates and sheds at the margin. With a balance factor, picks move
// demand off the browned-out deployment before saturation, at a bounded
// distance cost.
func BrownoutZipf(lab *Lab, betas []float64) ([]BrownoutRow, *Report, error) {
	return brownoutZipf(lab, betas, nil)
}

// brownoutZipf is BrownoutZipf recording pick depths (see spillDepths).
func brownoutZipf(lab *Lab, betas []float64, depths *spillDepths) ([]BrownoutRow, *Report, error) {
	if len(betas) == 0 {
		betas = []float64{0, 2}
	}
	// The workload: every block's demand split over a Zipf catalogue, so
	// popular domains concentrate on few servers per deployment through
	// consistent hashing, as real caches want.
	cat := demand.MustNewCatalogue(12, 1.1, 9)

	rows := make([]BrownoutRow, 0, len(betas))
	rep := &Report{
		ID:      "brownout",
		Caption: fmt.Sprintf("Deployment brownout to %d%% capacity under Zipf demand, by balance factor", int(100*brownoutCapacityFactor)),
		Columns: []string{"beta", "baseline-util", "peak-util", "final-util", "shed-pct", "mean-dist-mi"},
	}
	for _, beta := range betas {
		row1, err := brownoutRun(lab, cat, beta, depths)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row1)
		rep.Rows = append(rep.Rows, row(fmt.Sprintf("%g", beta),
			fmt.Sprintf("%.2f", row1.BaselineTargetUtil), fmt.Sprintf("%.2f", row1.PeakTargetUtil),
			fmt.Sprintf("%.2f", row1.FinalTargetUtil), 100*row1.ShedFraction, row1.MeanDistance))
	}
	return rows, rep, nil
}

// brownoutRun is one balance-factor setting: a healthy calibration round,
// then brownout rounds.
func brownoutRun(lab *Lab, cat *demand.Catalogue, beta float64, depths *spillDepths) (BrownoutRow, error) {
	const rounds = 7

	lab.Platform.ResetLoad()
	defer lab.Platform.ResetLoad()
	sys := mapping.NewSystem(lab.World, lab.Platform, lab.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 800, BalanceFactor: beta,
	})
	mm := mapmaker.New(sys, mapmaker.Config{})

	// Calibration: map the workload once at unit scale to find the
	// most-utilised deployment, then choose the demand scale that puts it
	// at 60% utilization while healthy. Calibrating on utilization (not
	// raw demand) caps the whole platform at 60%, so the brownout is the
	// only overload in the system — warm enough that losing half the
	// target's capacity saturates it, cool enough that nothing else comes
	// near saturation.
	demandOf, _, err := brownoutAssign(lab, sys, mm, cat, 1, nil)
	if err != nil {
		return BrownoutRow{}, err
	}
	var target *cdn.Deployment
	var peak float64
	for _, d := range lab.Platform.Deployments {
		if u := demandOf[d.ID] / d.Capacity(); u > peak {
			target, peak = d, u
		}
	}
	scale := 0.6 / peak

	res := BrownoutRow{Beta: beta}
	defer target.SetCapacityFactor(1)
	var baselineTargetDemand float64
	const settled = 2 // final rounds averaged
	for r := 0; r < rounds; r++ {
		lab.Platform.ResetLoad()
		if r == 1 {
			target.SetCapacityFactor(brownoutCapacityFactor)
		}
		demandOf, dist, err := brownoutAssign(lab, sys, mm, cat, scale, depths)
		if err != nil {
			return BrownoutRow{}, err
		}
		util := demandOf[target.ID] / target.Capacity()
		switch {
		case r == 0:
			res.BaselineTargetUtil = util
			baselineTargetDemand = demandOf[target.ID]
		default:
			if util > res.PeakTargetUtil {
				res.PeakTargetUtil = util
			}
		}
		if r >= rounds-settled {
			res.FinalTargetUtil += util / settled
			res.ShedFraction += (1 - demandOf[target.ID]/baselineTargetDemand) / settled
			res.MeanDistance += dist.Mean() / settled
		}
	}
	return res, nil
}

// brownoutAssign maps every (block, domain) demand share through the
// current snapshot, returning demand by serving deployment and the distance
// dataset. One periodic rebuild precedes the pass, as the refresh cadence
// would in a live process.
func brownoutAssign(lab *Lab, sys *mapping.System, mm *mapmaker.MapMaker, cat *demand.Catalogue, scale float64, depths *spillDepths) (map[uint64]float64, *stats.Dataset, error) {
	mm.Notify(mapmaker.ReasonPeriodic)
	sn := mm.Sync()
	demandOf := make(map[uint64]float64, len(lab.Platform.Deployments))
	var dist stats.Dataset
	for _, b := range lab.World.Blocks {
		for _, dom := range cat.Domains {
			d := b.Demand * dom.Popularity * scale
			resp, err := sys.MapAt(sn, mapping.Request{
				Domain: dom.Name, LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix, Demand: d,
			})
			if err != nil {
				return nil, nil, err
			}
			depths.record(sn, b, resp.Deployment)
			demandOf[resp.Deployment.ID] += d
			dist.Add(geo.Distance(b.Loc, resp.Deployment.Loc), d)
		}
	}
	return demandOf, &dist, nil
}

// FrontierRow is one balance-factor point of the cost-vs-balance
// frontier. Every metric is averaged over the sweep's final rounds.
type FrontierRow struct {
	Beta          float64
	MeanDistance  float64
	P95Distance   float64
	MaxUtil       float64
	SpillFraction float64
	// OverloadShare is the steady-state fraction of demand the balancer
	// had to place above capacity — the degradation beta buys down.
	OverloadShare float64
}

// BalanceFrontier sweeps the balance factor under a sustained 2x regional
// overload and traces the frontier the knob buys: proximity cost (mean
// and tail mapping distance) against load balance (worst deployment
// utilization). It is the load-aware companion to Fig 25's
// deployment-count sweep — where Fig 25 trades latency against platform
// size, this trades latency against headroom on a fixed platform.
func BalanceFrontier(lab *Lab, betas []float64, country string) ([]FrontierRow, *Report, error) {
	return balanceFrontier(lab, betas, country, nil)
}

// balanceFrontier is BalanceFrontier recording pick depths (see
// spillDepths).
func balanceFrontier(lab *Lab, betas []float64, country string, depths *spillDepths) ([]FrontierRow, *Report, error) {
	if len(betas) == 0 {
		betas = []float64{0, 0.5, 1, 2, 4, 8}
	}
	if country == "" {
		country = "DE"
	}
	rows := make([]FrontierRow, 0, len(betas))
	rep := &Report{
		ID:      "frontier",
		Caption: fmt.Sprintf("Balance-factor frontier: proximity cost vs load balance under a 2x surge in %s", country),
		Columns: []string{"beta", "mean-dist-mi", "p95-dist-mi", "max-util", "spill-pct", "overload-pct"},
	}
	const settled = 3 // rounds averaged at the end of the sweep
	for _, beta := range betas {
		cfg := ClosedLoopConfig{
			Country: country,
			Beta:    beta,
			// The sustained surge; the row averages its final rounds.
			Multiples: []float64{0, 2, 2, 2, 2, 2, 2, 2},
		}
		if beta == 0 {
			// withDefaults would turn 0 into the default beta; run the
			// proximity-only baseline through the same loop explicitly.
			cfg.Beta = -1
		}
		res, _, err := closedLoopFlashCrowd(lab, cfg, depths)
		if err != nil {
			return nil, nil, err
		}
		row1 := FrontierRow{Beta: beta}
		for _, r := range res.Rows[len(res.Rows)-settled:] {
			row1.MeanDistance += r.MeanDistance / settled
			row1.P95Distance += r.P95Distance / settled
			row1.MaxUtil += r.MaxUtil / settled
			row1.SpillFraction += r.SpillFraction / settled
			row1.OverloadShare += r.OverloadShare / settled
		}
		rows = append(rows, row1)
		rep.Rows = append(rep.Rows, row(fmt.Sprintf("%g", beta), row1.MeanDistance,
			row1.P95Distance, fmt.Sprintf("%.2f", row1.MaxUtil), 100*row1.SpillFraction,
			100*row1.OverloadShare))
	}
	return rows, rep, nil
}
