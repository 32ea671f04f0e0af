package experiments

import (
	"fmt"
	"sort"

	"eum/internal/cdn"

	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/par"
	"eum/internal/stats"
	"eum/internal/world"
)

// Fig25Point is one (N, policy) cell of Fig 25: traffic-weighted ping
// latency statistics achieved with N deployment locations.
type Fig25Point struct {
	Deployments int
	Policy      mapping.Policy
	MeanMs      float64
	P95Ms       float64
	P99Ms       float64
}

// Fig25Config parameterises the deployment sweep.
type Fig25Config struct {
	// Ns is the deployment counts to sweep (paper: 40..2560 doubling).
	Ns []int
	// Runs is the number of random deployment orderings averaged
	// (paper: 100).
	Runs int
	// PingTargets caps the measured client set (paper: 8K targets for the
	// top-traffic blocks).
	PingTargets int
	// MaxBlocks samples the highest-demand blocks as the client
	// population (0 = all).
	MaxBlocks int
}

// DefaultFig25Config returns the paper's sweep at reduced run count.
func DefaultFig25Config(scale Scale) Fig25Config {
	cfg := Fig25Config{
		Ns:          []int{40, 80, 160, 320, 640, 1280, 2560},
		Runs:        10,
		PingTargets: 2000,
		MaxBlocks:   8000,
	}
	if scale == Small {
		cfg.Ns = []int{40, 80, 160, 320}
		cfg.Runs = 3
		cfg.PingTargets = 600
		cfg.MaxBlocks = 2000
	}
	return cfg
}

// Fig25DeploymentSweep reproduces Fig 25: the latency achieved by NS,
// EU and CANS mapping as a function of the number of deployment
// locations. For each run, deployments are randomly ordered and each N
// simulates mapping with the first N (so each N extends the previous
// subset, as in the paper). Reported values are averaged across runs.
//
// The three schemes follow §6's definitions:
//
//	NS:   deployment with least latency to the client's LDNS.
//	EU:   deployment with least latency to the client's /24 block.
//	CANS: deployment minimising the traffic-weighted mean latency to the
//	      LDNS's client cluster.
//
// The reported metric is the ping latency from the chosen deployment to
// the client block — an underestimate of true client RTT, as in the paper,
// but meaningful in relative terms.
func Fig25DeploymentSweep(lab *Lab, cfg Fig25Config) ([]Fig25Point, *Report) {
	if len(cfg.Ns) == 0 {
		cfg = DefaultFig25Config(Small)
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	blocks := topBlocks(lab.World, cfg.MaxBlocks)

	// Every (run, N) cell is independent: its subset seed depends only on
	// the run index, so cells can be scored concurrently and reduced in
	// fixed run order afterwards. Each cell runs its own one-shot control
	// plane: a SnapshotBuilder publishes a single deterministic epoch
	// (numbered by cell index) and all three schemes read that snapshot —
	// the rank tables are policy-independent, so building under CANS also
	// populates the candidate lists the CANS column needs.
	pols := []mapping.Policy{mapping.NSBased, mapping.EndUser, mapping.ClientAwareNS}
	type cell struct{ mean, p95, p99 float64 }
	cells := par.Map(cfg.Runs*len(cfg.Ns), func(i int) [3]cell {
		run, nIdx := i/len(cfg.Ns), i%len(cfg.Ns)
		sub := lab.Platform.Subset(cfg.Ns[nIdx], int64(run+1))
		builder := mapping.NewSnapshotBuilder(lab.World, sub, lab.Net, mapping.Config{PingTargets: cfg.PingTargets})
		snap := builder.Build(uint64(i+1), mapping.ClientAwareNS)
		var out [3]cell
		for pi, pol := range pols {
			d := evalPolicy(lab, snap, blocks, pol)
			out[pi] = cell{d.Mean(), d.Percentile(95), d.Percentile(99)}
		}
		return out
	})

	var out []Fig25Point
	rep := &Report{
		ID:      "fig25",
		Caption: "Ping latency vs number of deployment locations (NS / EU / CANS)",
		Columns: []string{"deployments", "policy", "mean-ms", "p95-ms", "p99-ms"},
	}
	for nIdx, n := range cfg.Ns {
		for pi, pol := range pols {
			var c cell
			for run := 0; run < cfg.Runs; run++ {
				r := cells[run*len(cfg.Ns)+nIdx][pi]
				c.mean += r.mean
				c.p95 += r.p95
				c.p99 += r.p99
			}
			p := Fig25Point{
				Deployments: n,
				Policy:      pol,
				MeanMs:      c.mean / float64(cfg.Runs),
				P95Ms:       c.p95 / float64(cfg.Runs),
				P99Ms:       c.p99 / float64(cfg.Runs),
			}
			out = append(out, p)
			rep.Rows = append(rep.Rows, row(n, pol.String(), p.MeanMs, p.P95Ms, p.P99Ms))
		}
	}
	return out, rep
}

// evalPolicy maps every block under the policy by reading a published
// snapshot — the same data-plane lookups the authority performs — and
// returns the demand-weighted distribution of ping latency from the chosen
// deployment to the client. NS and CANS decisions are resolved once per
// LDNS, since every client of an LDNS shares its assignment; the block
// sweep shards the block list and merges the partial datasets in shard
// order — reproducing the serial sample order bit for bit.
func evalPolicy(lab *Lab, snap *mapping.Snapshot, blocks []*world.ClientBlock, pol mapping.Policy) *stats.Dataset {
	var ldnsChoice map[uint64]netmodel.Endpoint
	if pol != mapping.EndUser { // NSBased and ClientAwareNS share per-LDNS decisions
		ldnsChoice = make(map[uint64]netmodel.Endpoint)
		for _, b := range blocks {
			id := b.LDNS.Endpoint().ID
			if _, ok := ldnsChoice[id]; ok {
				continue
			}
			var dep *cdn.Deployment
			if pol == mapping.ClientAwareNS {
				dep = snap.FirstLive(snap.CANSCandidates(b.LDNS.Addr))
			} else {
				row, _ := snap.ResolverRow(b.LDNS.Addr)
				dep = snap.FirstLive(row)
			}
			if dep != nil {
				ldnsChoice[id] = dep.Endpoint()
			}
		}
	}

	parts := par.MapShards(len(blocks), func(_, lo, hi int) *stats.Dataset {
		d := &stats.Dataset{}
		for _, b := range blocks[lo:hi] {
			var depEp netmodel.Endpoint
			if pol == mapping.EndUser {
				row, _ := snap.ClientRow(b.Prefix)
				dep := snap.FirstLive(row)
				if dep == nil {
					continue
				}
				depEp = dep.Endpoint()
			} else {
				ep, ok := ldnsChoice[b.LDNS.Endpoint().ID]
				if !ok {
					continue
				}
				depEp = ep
			}
			d.Add(lab.Net.PingMs(depEp, b.Endpoint()), b.Demand)
		}
		return d
	})
	d := &stats.Dataset{}
	for _, p := range parts {
		d.Merge(p)
	}
	return d
}

// topBlocks returns up to n of the highest-demand blocks (all if n <= 0).
func topBlocks(w *world.World, n int) []*world.ClientBlock {
	blocks := append([]*world.ClientBlock{}, w.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Demand > blocks[j].Demand })
	if n <= 0 || n >= len(blocks) {
		return blocks
	}
	return blocks[:n]
}

// AdoptionBand is one row of the §4.5 extrapolation: non-public-resolver
// demand in a client-LDNS distance band and the RTT/download improvement
// those clients would see if their ISP adopted ECS.
type AdoptionBand struct {
	// DistanceLo..DistanceHi is the client-LDNS distance band in miles.
	DistanceLo, DistanceHi float64
	// DemandShare is the band's share of non-public client demand.
	DemandShare float64
	// PredictedRTTGain is the expected fractional RTT reduction,
	// extrapolated from public-resolver clients at similar distances.
	PredictedRTTGain float64
}

// AdoptionExtrapolation reproduces the §4.5 analysis: how much of the
// remaining (ISP-resolver) demand sits far from its LDNS, and what gains
// ECS adoption would unlock. Gains are extrapolated by simulating NS vs EU
// mapping for the ISP-resolver clients in each distance band.
func AdoptionExtrapolation(lab *Lab) ([]AdoptionBand, *Report) {
	scorer := mapping.NewScorer(lab.World, lab.Platform, lab.Net, 1500)
	bands := []AdoptionBand{
		{DistanceLo: 1000, DistanceHi: 1e9},
		{DistanceLo: 500, DistanceHi: 1000},
		{DistanceLo: 100, DistanceHi: 500},
		{DistanceLo: 0, DistanceHi: 100},
	}
	type agg struct{ ns, eu, demand float64 }
	type adoptionPart struct {
		accs           [4]agg
		totalNonPublic float64
	}
	parts := par.MapShards(len(lab.World.Blocks), func(_, lo, hi int) *adoptionPart {
		p := &adoptionPart{}
		for _, b := range lab.World.Blocks[lo:hi] {
			if b.LDNS.IsPublic() {
				continue
			}
			p.totalNonPublic += b.Demand
			dist := b.ClientLDNSDistance()
			for i := range bands {
				if dist < bands[i].DistanceLo || dist >= bands[i].DistanceHi {
					continue
				}
				nsDep, _ := scorer.Best(b.LDNS.Endpoint())
				euDep, _ := scorer.Best(b.Endpoint())
				if nsDep == nil || euDep == nil {
					break
				}
				p.accs[i].ns += b.Demand * lab.Net.BaseRTTMs(nsDep.Endpoint(), b.Endpoint())
				p.accs[i].eu += b.Demand * lab.Net.BaseRTTMs(euDep.Endpoint(), b.Endpoint())
				p.accs[i].demand += b.Demand
				break
			}
		}
		return p
	})
	var totalNonPublic float64
	accs := make([]agg, len(bands))
	for _, p := range parts {
		totalNonPublic += p.totalNonPublic
		for i := range accs {
			accs[i].ns += p.accs[i].ns
			accs[i].eu += p.accs[i].eu
			accs[i].demand += p.accs[i].demand
		}
	}
	rep := &Report{
		ID:      "sec4.5",
		Caption: "ECS adoption extrapolation for ISP-resolver clients",
		Columns: []string{"distance-band-mi", "pct-of-non-public-demand", "predicted-rtt-gain-pct"},
	}
	for i := range bands {
		if accs[i].demand > 0 && totalNonPublic > 0 {
			bands[i].DemandShare = accs[i].demand / totalNonPublic
			bands[i].PredictedRTTGain = 1 - accs[i].eu/accs[i].ns
		}
		hi := fmt.Sprintf("%.0f", bands[i].DistanceHi)
		if bands[i].DistanceHi >= 1e9 {
			hi = "inf"
		}
		rep.Rows = append(rep.Rows, row(
			fmt.Sprintf("%.0f-%s", bands[i].DistanceLo, hi),
			100*bands[i].DemandShare, 100*bands[i].PredictedRTTGain))
	}
	return bands, rep
}
