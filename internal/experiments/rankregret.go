package experiments

import (
	"fmt"
	"net/netip"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/par"
	"eum/internal/stats"
	"eum/internal/world"
)

// spillDepths is the histogram of how deep in its candidate row a pick
// landed: 0 is the best-ranked deployment, anything past the row's head
// was decided by the shared tail. The load experiments record into it when
// handed one; a nil *spillDepths records nothing.
type spillDepths struct {
	deps    []*cdn.Deployment
	buckets [len(spillBucketNames)]int
	picks   int
	max     int
	tail    int // picks past the head
}

// spillBucketNames label the power-of-two depth buckets.
var spillBucketNames = [...]string{"0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+"}

// record files the position of the picked deployment in the row the
// snapshot serves blk's subnet from — the row MapAt picked from.
func (h *spillDepths) record(sn *mapping.Snapshot, blk *world.ClientBlock, picked *cdn.Deployment) {
	if h == nil {
		return
	}
	row, _ := sn.ClientRow(blk.Prefix)
	depth := -1
	row.Walk(func(pos int, c mapping.Ranked) bool {
		if h.deps[c.Dep] == picked {
			depth = pos
		}
		return depth < 0
	})
	b := 0
	for d := depth; d > 0 && b < len(h.buckets)-1; d >>= 1 {
		b++
	}
	h.buckets[b]++
	h.picks++
	h.max = max(h.max, depth)
	if depth >= len(row.Head) {
		h.tail++
	}
}

// reportRow renders the histogram as percentages of the picks made.
func (h *spillDepths) reportRow(name string) []string {
	cells := []any{name, h.picks}
	for _, n := range h.buckets {
		cells = append(cells, fmt.Sprintf("%.2f", 100*float64(n)/float64(h.picks)))
	}
	return row(append(cells, h.max, fmt.Sprintf("%.2f", 100*float64(h.tail)/float64(h.picks)))...)
}

// RankRegretRow is the cost of continuing a walk past the head in one kind
// of tail, against continuing in the endpoint's own full ranking.
type RankRegretRow struct {
	Tail    string
	Samples int
	// TrueMean is the mean ping of the full ranking's own candidates over
	// the positions measured; the regrets are pings added to it.
	TrueMean, MeanRegret, P99Regret, WorstRegret float64
}

// RankRegret measures what the two-level rank table gives up, and what it
// would give up with the other obvious tail. First, how deep picks go: the
// brownout, closed-loop and frontier experiments re-run with every pick's
// position in its row recorded — the head must hold the steady state, and
// the surge rounds show why no fixed head holds everything. Second, what
// that costs where it matters: the flash crowd answered from the stored
// map and from every block's own full ranking, side by side. Third, the
// walk regret: for every client block and every position from the end of
// the head to four times its length, the ping (to the block's measured
// endpoint) of the candidate the stored row offers there, minus the ping
// of the candidate the endpoint's own full ranking (Scorer.Rank) has there
// — for the regional tail the map stores, and for the resolver-fallback
// ranking standing in as everyone's tail. Deterministic at any worker
// count: the load experiments are serial and the regret datasets merge in
// shard order.
func RankRegret(lab *Lab) ([]RankRegretRow, []*Report, error) {
	depthRep := &Report{
		ID: "rankregret-depth",
		Caption: fmt.Sprintf("Rank position of the deployment picked, percent of picks per bucket (head = %d entries)",
			mapping.HeadLen(len(lab.Platform.Deployments))),
		Columns: append(append([]string{"experiment", "picks"}, spillBucketNames[:]...), "max", "past-head-pct"),
	}
	for _, exp := range []struct {
		name string
		run  func(*spillDepths) error
	}{
		{"brownout", func(h *spillDepths) error { _, _, err := brownoutZipf(lab, nil, h); return err }},
		{"loadloop", func(h *spillDepths) error { _, _, err := closedLoopFlashCrowd(lab, ClosedLoopConfig{}, h); return err }},
		{"frontier", func(h *spillDepths) error { _, _, err := balanceFrontier(lab, nil, "", h); return err }},
	} {
		h := &spillDepths{deps: lab.Platform.Deployments}
		if err := exp.run(h); err != nil {
			return nil, nil, err
		}
		depthRep.Rows = append(depthRep.Rows, h.reportRow(exp.name))
	}

	surgeRep := &Report{
		ID:      "rankregret-surge",
		Caption: "Flash crowd in DE answered from heads and shared tails, against every block's own full ranking",
		Columns: []string{"load-multiple", "spill-pct", "mean-dist-mi", "p95-dist-mi", "full-spill-pct", "full-mean-mi", "full-p95-mi", "mean-regret-mi"},
	}
	stored, _, err := flashCrowd(lab, "DE", false)
	if err != nil {
		return nil, nil, err
	}
	whole, _, err := flashCrowd(lab, "DE", true)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range stored {
		w := whole[i]
		surgeRep.Rows = append(surgeRep.Rows, row(s.LoadMultiple, 100*s.SpillFraction, s.MeanDistance, s.P95Distance,
			100*w.SpillFraction, w.MeanDistance, w.P95Distance, fmt.Sprintf("%+.1f", s.MeanDistance-w.MeanDistance)))
	}

	// The load experiments' own map: 800 ping targets, identity partitions.
	sys := mapping.NewSystem(lab.World, lab.Platform, lab.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: DefaultClosedLoopConfig().PingTargets,
	})
	sn, sc, lay := sys.Current(), sys.Scorer(), sys.Current().Layout()
	nDeps := len(lab.Platform.Deployments)
	lo, hi := lay.TableLen, min(4*lay.TableLen, nDeps)
	unknown, _ := sn.ResolverRow(netip.IPv6Unspecified()) // no world's resolver
	fallback := unknown.Tail

	type regrets struct{ truth, regional, fallback stats.Dataset }
	shards := par.MapShards(len(lab.World.Blocks), func(_, from, to int) *regrets {
		var r regrets
		ping := make([]float64, nDeps)
		for _, b := range lab.World.Blocks[from:to] {
			full := sc.Rank(b.Endpoint())
			for _, c := range full {
				ping[c.Dep] = c.Score()
			}
			for _, c := range full[lo:hi] {
				r.truth.AddUnweighted(c.Score())
			}
			own, _ := sn.ClientRow(b.Prefix)
			for _, v := range []struct {
				tail []mapping.Ranked
				into *stats.Dataset
			}{{own.Tail, &r.regional}, {fallback, &r.fallback}} {
				mapping.Row{Head: own.Head, Tail: v.tail}.Walk(func(pos int, c mapping.Ranked) bool {
					if pos >= lo && pos < hi {
						v.into.AddUnweighted(ping[c.Dep] - full[pos].Score())
					}
					return pos < hi
				})
			}
		}
		return &r
	})
	var all regrets
	for _, r := range shards {
		all.truth.Merge(&r.truth)
		all.regional.Merge(&r.regional)
		all.fallback.Merge(&r.fallback)
	}

	walkRep := &Report{
		ID: "rankregret-walk",
		Caption: fmt.Sprintf("Ping added per step by walking a shared tail instead of the endpoint's own ranking, positions %d-%d of %d (%d heads of %d + %d tails = %.1f%% of %d full rows)",
			lo, hi-1, nDeps, lay.Tables(), lay.TableLen, len(lay.TailSeg),
			100*float64(lay.ArenaLen())/float64(lay.Tables()*nDeps), lay.Tables()),
		Columns: []string{"tail", "samples", "true-mean-ms", "mean-regret-ms", "p99-regret-ms", "worst-regret-ms"},
	}
	var rows []RankRegretRow
	for _, v := range []struct {
		name string
		d    *stats.Dataset
	}{{"regional (the stored tail)", &all.regional}, {"resolver fallback (New York)", &all.fallback}} {
		r := RankRegretRow{Tail: v.name, Samples: v.d.Len(), TrueMean: all.truth.Mean(),
			MeanRegret: v.d.Mean(), P99Regret: v.d.Percentile(99), WorstRegret: v.d.Max()}
		rows = append(rows, r)
		walkRep.Rows = append(walkRep.Rows, row(r.Tail, r.Samples, fmt.Sprintf("%.2f", r.TrueMean),
			fmt.Sprintf("%.2f", r.MeanRegret), fmt.Sprintf("%.2f", r.P99Regret), fmt.Sprintf("%.2f", r.WorstRegret)))
	}
	return rows, []*Report{depthRep, surgeRep, walkRep}, nil
}
