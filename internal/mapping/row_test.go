package mapping

import (
	"math/rand"
	"slices"
	"testing"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/netmodel"
)

// flat lays a row's two stored levels end to end, for comparing what two
// snapshots hold entry by entry; the head's scores are Row.Scores.
func flat(r Row) []uint16 { return append(slices.Clone(r.Head), r.Tail...) }

// stored returns a ranking as a head stores it: its order and its scores
// (see putRow).
func stored(rs []Ranked) Row {
	r := Row{Head: make([]uint16, len(rs)), Scores: make([]float32, len(rs))}
	putRow(r.Head, r.Scores, rs)
	return r
}

// sameHead reports whether two heads hold the same deployments with the
// same scores.
func sameHead(a, b Row) bool { return slices.Equal(a.Head, b.Head) && slices.Equal(a.Scores, b.Scores) }

// order lists a ranking's deployment indexes, as a row stores them.
func order(rs []Ranked) []uint16 {
	out := make([]uint16, len(rs))
	for k, r := range rs {
		out[k] = uint16(r.Dep)
	}
	return out
}

// walked lists a row's candidates in pick order.
func walked(r Row) []uint16 {
	var out []uint16
	r.Walk(func(pos int, c uint16) bool {
		if pos != len(out) {
			panic("Walk positions are not consecutive")
		}
		out = append(out, c)
		return true
	})
	return out
}

// fullRank is the ranking the map truncates: every deployment scored
// against proxy, sorted (ties by deployment index, as Rank breaks them).
func fullRank(sc *Scorer, proxy netmodel.Endpoint) []Ranked {
	full := make([]Ranked, len(sc.platform.Deployments))
	sc.scoreInto(full, make([]float64, len(full)), proxy)
	slices.SortFunc(full, compareRanked)
	return full
}

// TestHeadIsPrefixOfFullRank pins the two-level map to the ranking it
// truncates: every segment's head is the first HeadLen entries of the full
// ranking for the segment's measured endpoint — 32, or a sixteenth of a
// platform larger than 512 — every tail is the full ranking of the endpoint
// of the segment that owns it, every segment's tail lies in its endpoint's
// 250-mile cell, and a walk visits each deployment once. Checked with
// clustering and partitioning on, off, and under identity partitioning, on
// a platform small enough that heads are whole rows and on one large enough
// that they grow — and on one where equal scores straddle the cut between
// head and tail, so the deployment index alone decides what a head holds.
func TestHeadIsPrefixOfFullRank(t *testing.T) {
	small := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 3, NumDeployments: 20, ServersPerDeployment: 2})
	large := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 3, NumDeployments: 800, ServersPerDeployment: 1})
	tiedCfg := Config{Policy: EndUser, PingTargets: 300, PartitionMiles: 50}
	tied := tiedAtCut(cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 3, NumDeployments: 800, ServersPerDeployment: 1}), tiedCfg)
	for _, tc := range []struct {
		name string
		p    *cdn.Platform
		cfg  Config
	}{
		{"clustered-partitioned", testP, Config{Policy: EndUser, PingTargets: 500, PartitionMiles: 50}},
		{"clustered-identity", testP, Config{Policy: EndUser, PingTargets: 300}},
		{"unclustered", testP, Config{Policy: EndUser, PartitionMiles: 200}},
		{"all-head", small, Config{Policy: EndUser, PingTargets: 300, PartitionMiles: 50}},
		{"grown-head", large, Config{Policy: EndUser, PingTargets: 300, PartitionMiles: 50}},
		{"tied-at-cut", tied, tiedCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewSnapshotBuilder(testW, tc.p, testNet, tc.cfg)
			sn := b.Build(1, EndUser)
			sc, lay := b.Scorer(), sn.lay
			nDeps := len(tc.p.Deployments)
			if lay.TableLen != min(max(32, nDeps/16), nDeps) || lay.TailLen != nDeps {
				t.Fatalf("geometry: heads of %d, tails of %d, for %d deployments", lay.TableLen, lay.TailLen, nDeps)
			}
			if lay.Tails == 0 || lay.Tails != len(b.tailSeg) || lay.Tails > len(b.segs) {
				t.Fatalf("%d tails (%d sources) for %d segments", lay.Tails, len(b.tailSeg), len(b.segs))
			}
			full := make([][]Ranked, len(b.segs))
			cutInTies := 0
			for s, seg := range b.segs {
				proxy := sc.segProxy(seg)
				full[s] = fullRank(sc, proxy)
				if head := (Row{Head: sn.RowOrder(s), Scores: sn.HeadScores(s)}); !sameHead(head, stored(full[s][:lay.TableLen])) {
					t.Fatalf("segment %d: head is not the first %d of its endpoint's ranking", s, lay.TableLen)
				}
				if n := lay.TableLen; n < nDeps && full[s][n-1].Score == full[s][n].Score && b.tailSeg[lay.SegTail[s]] != int32(s) {
					cutInTies++
				}
				own := sc.segProxy(b.segs[b.tailSeg[lay.SegTail[s]]])
				a, b := signatureFor(proxy, 250), signatureFor(own, 250)
				if a.row != b.row || a.col != b.col {
					t.Fatalf("segment %d continues in a tail ranked from another cell", s)
				}
			}
			if tc.p == tied && cutInTies == 0 {
				t.Fatal("no head that ranks no tail is cut inside a run of equal scores")
			}
			for tl, src := range b.tailSeg {
				if !slices.Equal(sn.RowOrder(len(b.segs)+tl), order(full[src])) {
					t.Fatalf("tail %d is not the full ranking of segment %d's endpoint", tl, src)
				}
			}
			// The fallback rows are the fallback segments' exact rankings.
			for _, client := range []bool{false, true} {
				tb := lay.FallbackLDNS
				if client {
					tb = lay.FallbackClient
				}
				if got := walked(sn.fallbackRow(client)); !slices.Equal(got, order(full[tb])) {
					t.Fatalf("fallback row (client=%v) is not its endpoint's full ranking", client)
				}
			}
			for i := 0; i < len(testW.Blocks); i += 101 {
				seen := make([]bool, nDeps)
				for _, c := range walked(blockRow(sn, testW.Blocks[i])) {
					if seen[c] {
						t.Fatalf("block %d: walk visits deployment %d twice", i, c)
					}
					seen[c] = true
				}
				if slices.Contains(seen, false) {
					t.Fatalf("block %d: walk misses a deployment", i)
				}
			}
		})
	}
}

// tiedAtCut moves deployments of p so that equal scores straddle the cut
// between head and tail: ten more than a head holds go to each of two
// ping targets' points, in the target's AS — they all ping it 0 ms, so the
// deployment index alone orders them — and as many again share one point
// and one AS elsewhere. The two targets are measured for heads that rank no
// tail (under cfg), which a build selects without scoring every
// deployment. It returns p.
func tiedAtCut(p *cdn.Platform, cfg Config) *cdn.Platform {
	probe := NewSnapshotBuilder(testW, p, testNet, cfg)
	probe.mu.Lock()
	lay := probe.layoutLocked()
	probe.mu.Unlock()
	var at []netmodel.Endpoint
	for s, seg := range probe.segs {
		if probe.tailSeg[lay.SegTail[s]] != int32(s) {
			at = append(at, probe.scorer.segProxy(seg))
		}
	}
	group := HeadLen(len(p.Deployments)) + 10
	for i := 0; i < 3*group; i++ {
		d := p.Deployments[i*len(p.Deployments)/(3*group)]
		if g := i % 3; g < 2 {
			ep := at[g*len(at)/2]
			d.Loc, d.ASN = ep.Loc, ep.ASN
		} else {
			d.Loc, d.ASN = geo.Point{Lat: 48.85, Lon: 2.35}, 1
		}
	}
	return p
}

// referencePick is PickDeployment as it was over a full row: the first
// live deployment with room, else the least-utilised live one, else
// nothing. pos is where in the row the pick sits.
func referencePick(deps []*cdn.Deployment, full []Ranked, demand float64) (pick *cdn.Deployment, pos int) {
	var coolest *cdn.Deployment
	coolestUtil, coolestPos := 0.0, -1
	for i, c := range full {
		d := deps[c.Dep]
		if !d.Alive() {
			continue
		}
		if d.Load()+demand <= d.Capacity() {
			return d, i
		}
		if u := d.Utilisation(); coolest == nil || u < coolestUtil {
			coolest, coolestUtil, coolestPos = d, u, i
		}
	}
	return coolest, coolestPos
}

// TestTwoLevelPickMatchesFullRow is the differential property test for the
// truncation: under random dead and saturated sets, MapAt over head + tail
// must return the deployment and servers the full row would whenever that
// pick lies inside the head, must find a deployment whenever one is alive,
// and with everything live saturated must still pick the coolest of the
// whole platform.
func TestTwoLevelPickMatchesFullRow(t *testing.T) {
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 23, NumDeployments: 120, ServersPerDeployment: 2})
	sys := NewSystem(testW, p, testNet, Config{Policy: EndUser, PingTargets: 400, PartitionMiles: 50})
	sn, sc, lb := sys.Current(), sys.Scorer(), sys.LoadBalancer()
	deps := p.Deployments
	head := sn.lay.TableLen
	rng := rand.New(rand.NewSource(7))
	// The reference row of a block is the full ranking of the endpoint
	// measured for its table — what the parent stored whole.
	_, tables := assigned(sys.builder)
	fullRow := func(i int) []Ranked {
		return fullRank(sc, sc.segProxy(sys.builder.segs[tables[i]]))
	}

	var inHead, pastHead, allSaturated, allDead int
	for trial := 0; trial < 60; trial++ {
		// Trials sweep from a healthy platform to a dead one; a few leave a
		// single survivor or saturate everything that lives.
		pDead, pSat := rng.Float64(), rng.Float64()
		switch trial % 6 {
		case 4:
			pDead, pSat = 1, 0
		case 5:
			pSat = 1
		}
		survivor := -1
		if trial%6 == 4 && trial%12 != 4 {
			survivor = rng.Intn(len(deps))
		}
		live := 0
		for i, d := range deps {
			alive := i == survivor || rng.Float64() >= pDead
			for _, s := range d.Servers {
				s.SetAlive(alive)
				s.ResetLoad()
			}
			if alive {
				live++
				if rng.Float64() < pSat {
					d.Servers[0].AddLoad(d.Capacity() * (1.1 + rng.Float64()))
				}
			}
		}
		tailBefore := lb.TailPicks()
		tailWant := uint64(0)
		for i := trial; i < len(testW.Blocks); i += 61 {
			b := testW.Blocks[i]
			want, pos := referencePick(deps, fullRow(i), 0)
			resp, err := sys.MapAt(sn, Request{Domain: "diff.example.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix})
			if live == 0 {
				allDead++
				if err == nil || want != nil {
					t.Fatalf("trial %d: answered %v with every deployment dead", trial, resp.Deployment.Name)
				}
				tailWant++
				continue
			}
			if err != nil {
				t.Fatalf("trial %d block %v: %v with %d deployments alive", trial, b.Prefix, err, live)
			}
			got := resp.Deployment
			saturated := want.Load() > want.Capacity()
			switch {
			case saturated:
				// Everything alive is over capacity: the coolest of all.
				allSaturated++
				tailWant++
				if got.Utilisation() != want.Utilisation() {
					t.Fatalf("trial %d block %v: all saturated, picked %s at %.3f, coolest is %s at %.3f",
						trial, b.Prefix, got.Name, got.Utilisation(), want.Name, want.Utilisation())
				}
			case pos < head:
				inHead++
				servers, _ := lb.PickServers(want, "diff.example.net", 0)
				if got != want || !slices.Equal(resp.Servers, servers) {
					t.Fatalf("trial %d block %v: picked %s, the full row picks %s at position %d",
						trial, b.Prefix, got.Name, want.Name, pos)
				}
			default:
				pastHead++
				tailWant++
				if !got.Alive() || got.Load() > got.Capacity() {
					t.Fatalf("trial %d block %v: tail pick %s is dead or saturated", trial, b.Prefix, got.Name)
				}
			}
		}
		if got := lb.TailPicks() - tailBefore; got != tailWant {
			t.Fatalf("trial %d: %d picks counted past the head, want %d", trial, got, tailWant)
		}
	}
	if inHead == 0 || pastHead == 0 || allSaturated == 0 || allDead == 0 {
		t.Fatalf("cases not all exercised: %d in head, %d past it, %d all-saturated, %d all-dead",
			inHead, pastHead, allSaturated, allDead)
	}
}

// TestBestIntoSelectsThePrefix checks the head selection against the sort
// it replaces, ties included — a prober that returns few distinct pings
// makes the deployment index decide most positions.
func TestBestIntoSelectsThePrefix(t *testing.T) {
	sc := NewScorer(testW, testP, coarseProber{}, 0)
	n := len(testP.Deployments)
	scored, full := make([]Ranked, n), make([]Ranked, n)
	for i := 0; i < len(testW.Blocks); i += 211 {
		sc.scoreInto(scored, make([]float64, len(scored)), testW.Blocks[i].Endpoint())
		bestInto(full, scored)
		if !slices.IsSortedFunc(full, compareRanked) {
			t.Fatalf("block %d: the full ranking is not sorted", i)
		}
		for _, k := range []int{1, 2, rankHead, n - 1} {
			head := make([]Ranked, k)
			bestInto(head, scored)
			if !slices.Equal(head, full[:k]) {
				t.Fatalf("block %d: the %d selected are not the first %d sorted", i, k, k)
			}
		}
	}
}

// TestHeadIntoMatchesBestInto holds the pruned head selection to the one
// that scores every deployment, entry for entry and bit for bit: at every
// head length from one to the whole platform, for blocks, resolvers, the
// poles, the
// antimeridian and a point one of the tied-at-cut platform's groups of
// deployments sits on — and with the walk meeting deployments at one
// latitude in falling index order, so that a tie the window holds is
// offered before the lower index that beats it.
func TestHeadIntoMatchesBestInto(t *testing.T) {
	tied := tiedAtCut(cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 3, NumDeployments: 800, ServersPerDeployment: 1}),
		Config{Policy: EndUser, PingTargets: 300, PartitionMiles: 50})
	for _, c := range []struct {
		p        *cdn.Platform
		reversed bool
	}{{testP, false}, {tied, false}, {tied, true}} {
		p := c.p
		sc := NewScorer(testW, p, testNet, 0)
		if c.reversed {
			lat, order := sc.siteLat.lat, sc.siteLat.order
			for i := 0; i < len(lat); {
				j := i + 1
				for j < len(lat) && lat[j] == lat[i] {
					j++
				}
				slices.Reverse(order[i:j])
				i = j
			}
		}
		n := len(p.Deployments)
		eps := []netmodel.Endpoint{
			{ID: 1 << 40, Loc: geo.Point{Lat: 90, Lon: 0}},
			{ID: 1<<40 + 1, Loc: geo.Point{Lat: -90, Lon: 120}},
			{ID: 1<<40 + 2, Loc: geo.Point{Lat: 12.5, Lon: 179.9999}},
			{ID: 1<<40 + 3, Loc: geo.Point{Lat: -12.5, Lon: -180}},
			{ID: 1<<40 + 4, Loc: geo.Point{Lat: 48.85, Lon: 2.35}, ASN: 1},
		}
		for i := 0; i < len(testW.Blocks); i += 97 {
			eps = append(eps, testW.Blocks[i].Endpoint())
		}
		for i := 0; i < len(testW.LDNSes); i += 7 {
			eps = append(eps, testW.LDNSes[i].Endpoint())
		}
		scored, want := make([]Ranked, n), make([]Ranked, n)
		for _, ep := range eps {
			sc.scoreInto(scored, make([]float64, n), ep)
			for _, k := range []int{1, 2, rankHead, HeadLen(n), n - 1, n} {
				bestInto(want[:k], scored)
				got := make([]Ranked, k)
				sc.headInto(got, ep, sc.newHeadScratch(k))
				if !slices.Equal(got, want[:k]) {
					t.Fatalf("%d deployments, endpoint at %v, head of %d: headInto differs from bestInto",
						n, ep.Loc, k)
				}
			}
		}
	}
}

// coarseProber rounds the model's pings to 20 ms steps.
type coarseProber struct{}

func (coarseProber) PingMs(a, b netmodel.Endpoint) float64 {
	return float64(int(testNet.PingMs(a, b)/20)) * 20
}

// TestWholeRowHeadsReadNoTail: on a platform no larger than a head every
// head is a whole ranking, so even a pick that finds everything saturated,
// or everything dead, is decided without reading a tail — and is not
// counted as having left the head.
func TestWholeRowHeadsReadNoTail(t *testing.T) {
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 3, NumDeployments: 12, ServersPerDeployment: 2})
	sys := NewSystem(testW, p, testNet, Config{Policy: EndUser, PingTargets: 300})
	b := testW.Blocks[0]
	req := Request{Domain: "small.example.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix}
	for _, d := range p.Deployments {
		d.Servers[0].AddLoad(2 * d.Capacity())
	}
	if _, err := sys.Map(req); err != nil {
		t.Fatalf("all saturated: %v", err)
	}
	for _, d := range p.Deployments {
		for _, s := range d.Servers {
			s.SetAlive(false)
		}
	}
	if _, err := sys.Map(req); err == nil {
		t.Fatal("answered with every deployment dead")
	}
	if n := sys.LoadBalancer().TailPicks(); n != 0 {
		t.Fatalf("%d picks counted past heads that hold the whole platform", n)
	}
}
