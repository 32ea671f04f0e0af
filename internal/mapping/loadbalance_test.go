package mapping

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"eum/internal/cdn"
	"eum/internal/netmodel"
)

// testDeployment builds a standalone deployment with n unit-capacity
// servers for load-balancer unit tests.
func testDeployment(id uint64, n int) *cdn.Deployment {
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: int64(id), NumDeployments: 1, ServersPerDeployment: n})
	d := p.Deployments[0]
	// Trim/pad to exactly n live servers for predictable tests.
	for len(d.Servers) > n {
		d.Servers = d.Servers[:len(d.Servers)-1]
	}
	return d
}

func TestPickDeploymentSkipsDead(t *testing.T) {
	lb := NewLoadBalancer()
	d1 := testDeployment(1, 4)
	d2 := testDeployment(2, 4)
	for _, s := range d1.Servers {
		s.SetAlive(false)
	}
	got, err := lb.PickDeployment([]*cdn.Deployment{d1, d2}, Row{Head: []uint16{0, 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != d2 {
		t.Error("dead deployment chosen")
	}
}

func TestPickDeploymentSpillsOnCapacity(t *testing.T) {
	lb := NewLoadBalancer()
	d1 := testDeployment(3, 2)
	d2 := testDeployment(4, 2)
	for _, s := range d1.Servers {
		s.AddLoad(s.Capacity())
	}
	got, err := lb.PickDeployment([]*cdn.Deployment{d1, d2}, Row{Head: []uint16{0, 1}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != d2 {
		t.Error("saturated deployment chosen over available one")
	}
}

func TestPickDeploymentDegradedWhenAllSaturated(t *testing.T) {
	lb := NewLoadBalancer()
	d1 := testDeployment(5, 2)
	d2 := testDeployment(6, 2)
	for _, d := range []*cdn.Deployment{d1, d2} {
		for _, s := range d.Servers {
			s.AddLoad(s.Capacity() * 3)
		}
	}
	got, err := lb.PickDeployment([]*cdn.Deployment{d1, d2}, Row{Head: []uint16{0, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != d1 {
		t.Error("degraded mode should return the best live candidate")
	}
}

func TestPickDeploymentAllDead(t *testing.T) {
	lb := NewLoadBalancer()
	d := testDeployment(7, 2)
	for _, s := range d.Servers {
		s.SetAlive(false)
	}
	if _, err := lb.PickDeployment([]*cdn.Deployment{d}, Row{Head: []uint16{0}}, 0); err == nil {
		t.Error("no-live-deployment case did not error")
	}
	if _, err := lb.PickDeployment(nil, Row{}, 0); err == nil {
		t.Error("empty candidates did not error")
	}
}

func TestPickServersConsistency(t *testing.T) {
	d := testDeployment(8, 8)
	lb := NewLoadBalancer()
	a, err := lb.PickServers(d, "domain-a.net", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lb.PickServers(d, "domain-a.net", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("want 2 servers, got %d/%d", len(a), len(b))
	}
	if a[0].ID != b[0].ID || a[1].ID != b[1].ID {
		t.Error("consistent hash returned different servers for same key")
	}
	if a[0].ID == a[1].ID {
		t.Error("returned duplicate servers")
	}
}

func TestPickServersSkipsDead(t *testing.T) {
	d := testDeployment(9, 6)
	lb := NewLoadBalancer()
	a, _ := lb.PickServers(d, "victim.net", 0)
	a[0].SetAlive(false)
	b, err := lb.PickServers(d, "victim.net", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b {
		if !s.Alive() {
			t.Error("dead server returned")
		}
		if s.ID == a[0].ID {
			t.Error("dead server still in answer")
		}
	}
}

func TestPickServersSingleServer(t *testing.T) {
	d := testDeployment(10, 1)
	lb := NewLoadBalancer()
	got, err := lb.PickServers(d, "only.net", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("single-server deployment returned %d servers", len(got))
	}
}

func TestPickServersNoLiveServers(t *testing.T) {
	d := testDeployment(11, 2)
	lb := NewLoadBalancer()
	for _, s := range d.Servers {
		s.SetAlive(false)
	}
	if _, err := lb.PickServers(d, "dead.net", 0); err == nil {
		t.Error("all-dead deployment did not error")
	}
}

// TestConsistentHashingStability: killing one server of ten moves exactly
// the domains whose primary it was, each to its second server, and no
// other domain's primary.
func TestConsistentHashingStability(t *testing.T) {
	d := testDeployment(12, 10)
	lb := NewLoadBalancer()
	before := map[string][]*cdn.Server{}
	for i := 0; i < 200; i++ {
		dom := fmt.Sprintf("site-%d.example.net", i)
		s, err := lb.PickServers(d, dom, 0)
		if err != nil {
			t.Fatal(err)
		}
		before[dom] = s
	}
	victim := d.Servers[0]
	victim.SetAlive(false)
	defer victim.SetAlive(true)
	moved := 0
	for dom, prev := range before {
		s, err := lb.PickServers(d, dom, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case prev[0] == victim:
			moved++
			if s[0] != prev[1] {
				t.Errorf("%s: primary %d died and server %d took over, not its second server %d", dom, victim.ID, s[0].ID, prev[1].ID)
			}
		case s[0] != prev[0]:
			t.Errorf("%s moved off live server %d to %d", dom, prev[0].ID, s[0].ID)
		}
	}
	if moved == 0 {
		t.Error("killing a server moved no domains: it was no domain's primary")
	}
}

// oracleRoster is a roster of the cold_wide benchmark's size: 600
// deployments of 12 servers on average, 7 744 servers in all and at most 24
// in one deployment.
func oracleRoster() *cdn.Platform {
	return cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 1, NumDeployments: 600, ServersPerDeployment: 12})
}

// rendezvousOrder is the reference a pick is held to: every live server of
// d sorted by its weight for key, heaviest first, equal weights by ID.
func rendezvousOrder(dst []*cdn.Server, d *cdn.Deployment, key uint64) []*cdn.Server {
	dst = dst[:0]
	for _, s := range d.Servers {
		if s.Alive() {
			dst = append(dst, s)
		}
	}
	slices.SortFunc(dst, func(a, b *cdn.Server) int {
		return cmp.Or(cmp.Compare(weight(key, b.ID), weight(key, a.ID)), cmp.Compare(a.ID, b.ID))
	})
	return dst
}

// TestRendezvousPickOracle holds the local pick to its definition on every
// deployment of a cold_wide-sized roster, for a thousand domains:
//  1. with every server alive, and again with one dead, each pick is the
//     first ServersPerAnswer servers of the full sort of the live servers
//     by weight;
//  2. killing one server changes exactly the answers that held it, and
//     each of those drops it and gains the next server of its order.
func TestRendezvousPickOracle(t *testing.T) {
	p := oracleRoster()
	lb := NewLoadBalancer()
	domains := make([]string, 1000)
	for i := range domains {
		domains[i] = fmt.Sprintf("c%d.cdn.example.net", i)
	}
	var order, dead []*cdn.Server
	before := make([][]*cdn.Server, len(domains))
	for _, d := range p.Deployments {
		for i, dom := range domains {
			got, err := lb.PickServers(d, dom, 0)
			if err != nil {
				t.Fatal(err)
			}
			order = rendezvousOrder(order, d, fnv1a(dom))
			if want := order[:min(ServersPerAnswer, len(order))]; !slices.Equal(got, want) {
				t.Fatalf("%s, %s: picked %v, the sort by weight starts %v", d.Name, dom, serverIDs(got), serverIDs(want))
			}
			before[i] = got
		}
		victim := d.Servers[len(d.Servers)/2]
		victim.SetAlive(false)
		held, changed := 0, 0
		for i, dom := range domains {
			got, err := lb.PickServers(d, dom, 0)
			if len(d.Servers) == 1 {
				if err == nil {
					t.Fatalf("%s: its one server is dead and %s still got %v", d.Name, dom, serverIDs(got))
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			order = rendezvousOrder(order, d, fnv1a(dom))
			if want := order[:min(ServersPerAnswer, len(order))]; !slices.Equal(got, want) {
				t.Fatalf("%s with server %d dead, %s: picked %v, the sort by weight starts %v", d.Name, victim.ID, dom, serverIDs(got), serverIDs(want))
			}
			if !slices.Equal(got, before[i]) {
				changed++
			}
			if !slices.Contains(before[i], victim) {
				continue
			}
			held++
			dead = append(dead[:0], before[i]...)
			dead = slices.DeleteFunc(dead, func(s *cdn.Server) bool { return s == victim })
			if len(order) >= ServersPerAnswer {
				dead = append(dead, order[ServersPerAnswer-1])
			}
			if !slices.Equal(got, dead) {
				t.Fatalf("%s: %s held dead server %d in %v and now gets %v, want %v",
					d.Name, dom, victim.ID, serverIDs(before[i]), serverIDs(got), serverIDs(dead))
			}
		}
		victim.SetAlive(true)
		if changed != held {
			t.Fatalf("%s: killing server %d changed %d answers, %d held it", d.Name, victim.ID, changed, held)
		}
	}
}

// TestConsistentHashingBalance is the third property of the rendezvous
// oracle: over 10 000 domains, on the deployments of a cold_wide-sized
// roster with at least eight servers, every server is the primary of at
// least a quarter of the mean share, and the busiest primary carries at
// most 1.3 times the mean share on average and 1.5 times at worst. A
// 32-point ring per server gave 2.86 and 5.07.
func TestConsistentHashingBalance(t *testing.T) {
	lb := NewLoadBalancer()
	domains := make([]string, 10000)
	for i := range domains {
		domains[i] = fmt.Sprintf("c%d.cdn.example.net", i)
	}
	sum, worst, n := 0.0, 0.0, 0
	for _, d := range oracleRoster().Deployments {
		if len(d.Servers) < 8 {
			continue
		}
		counts, busiest := map[*cdn.Server]int{}, 0
		for _, dom := range domains {
			s, err := lb.PickServers(d, dom, 0)
			if err != nil {
				t.Fatal(err)
			}
			counts[s[0]]++
			busiest = max(busiest, counts[s[0]])
		}
		if len(counts) != len(d.Servers) {
			t.Fatalf("%s: only %d of its %d servers are ever a primary", d.Name, len(counts), len(d.Servers))
		}
		fair := float64(len(domains)) / float64(len(d.Servers))
		for s, c := range counts {
			if float64(c) < fair/4 {
				t.Errorf("%s: server %d is the primary of %d domains, under a quarter of the mean %.0f", d.Name, s.ID, c, fair)
			}
		}
		r := float64(busiest) * float64(len(d.Servers)) / float64(len(domains))
		sum += r
		worst = max(worst, r)
		n++
	}
	mean := sum / float64(n)
	t.Logf("%d deployments of at least 8 servers: the busiest primary carries %.3f times the mean share on average, %.3f at worst", n, mean, worst)
	if mean > 1.3 || worst > 1.5 {
		t.Fatalf("primary share max/mean is %.3f on average and %.3f at worst, want at most 1.3 and 1.5", mean, worst)
	}
}

func serverIDs(ss []*cdn.Server) []uint64 {
	ids := make([]uint64, len(ss))
	for i, s := range ss {
		ids[i] = s.ID
	}
	return ids
}

func TestScorerBestMatchesRankHead(t *testing.T) {
	sc := NewScorer(testW, testP, testNet, 500)
	ep := testW.Blocks[10].Endpoint()
	rank := sc.Rank(ep)
	best, score := sc.Best(ep)
	if best == nil {
		t.Fatal("no best deployment")
	}
	if depOf(rank[0].Dep) != best || rank[0].Score != score {
		t.Errorf("Rank head %v/%.2f != Best %v/%.2f",
			depOf(rank[0].Dep).Name, rank[0].Score, best.Name, score)
	}
	for i := 1; i < len(rank); i++ {
		if rank[i].Score < rank[i-1].Score {
			t.Fatal("Rank not sorted")
		}
	}
}

func TestScorerClusteringConsistent(t *testing.T) {
	// With clustering, two very close endpoints share a ping target and
	// hence the exact same ranking.
	sc := NewScorer(testW, testP, testNet, 200)
	b := testW.Blocks[3]
	ep1 := b.Endpoint()
	ep2 := ep1
	ep2.ID = 999999999
	ep2.Loc.Lat += 0.001
	t1, _ := sc.TargetFor(ep1)
	t2, _ := sc.TargetFor(ep2)
	if t1.ID != t2.ID || !slices.Equal(sc.Rank(ep1), sc.Rank(ep2)) {
		t.Error("nearby endpoints did not share a ping target's ranking")
	}
}

func TestScorerNoClustering(t *testing.T) {
	sc := NewScorer(testW, testP, testNet, 0)
	ep := testW.Blocks[1].Endpoint()
	best, _ := sc.Best(ep)
	if best == nil {
		t.Fatal("no best without clustering")
	}
}

func TestScorerWeightedBest(t *testing.T) {
	sc := NewScorer(testW, testP, testNet, 0)
	// Weighted best of two far-apart endpoints with all weight on one of
	// them must equal the best of that one.
	e1 := testW.Blocks[0].Endpoint()
	e2 := testW.Blocks[len(testW.Blocks)-1].Endpoint()
	d, _ := sc.bestWeighted([]netmodel.Endpoint{e1, e2}, []float64{1, 0})
	want, _ := sc.Best(e1)
	if d < 0 || testP.Deployments[d] != want {
		t.Errorf("degenerate weighted best = deployment %d, want %v", d, want.Name)
	}
	if got, _ := sc.bestWeighted(nil, nil); got != -1 {
		t.Errorf("empty bestWeighted = deployment %d, want -1", got)
	}
}

func TestLoadAwareSheddingBeforeSaturation(t *testing.T) {
	lb := NewLoadBalancer()
	lb.BalanceFactor = 10
	d1 := testDeployment(20, 4) // best score
	d2 := testDeployment(21, 4) // slightly worse score
	deps := []*cdn.Deployment{d1, d2}
	candidates := stored([]Ranked{{0, 10}, {1, 11}})

	// Empty: best-scoring wins.
	got, err := lb.PickDeployment(deps, candidates, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != d1 {
		t.Fatal("unloaded pick should follow score")
	}
	// Load d1 to 90%: the penalty (10 * 0.81) makes d2 attractive before
	// d1 saturates.
	for _, s := range d1.Servers {
		s.AddLoad(0.9 * s.Capacity())
	}
	got, err = lb.PickDeployment(deps, candidates, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != d2 {
		t.Errorf("load-aware pick stayed on the 90%%-loaded deployment")
	}
	// Without the penalty, the hard-spill path sticks with d1.
	plain := NewLoadBalancer()
	got, err = plain.PickDeployment(deps, candidates, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got != d1 {
		t.Error("hard-spill pick moved before saturation")
	}
}

// TestBalanceZeroByteIdentical: the balance factor acts where the pick is
// made, so the published map is the same bytes at every β, idle or under
// load — and only the pick differs: with the deployment nearest a block at
// 90% utilisation, β = 2 moves the block's answer to another head entry
// before saturation while β = 0 stays until hard spill.
func TestBalanceZeroByteIdentical(t *testing.T) {
	testP.ResetLoad()
	defer testP.ResetLoad()
	base := NewSystem(testW, testP, testNet, Config{Policy: EndUser, PingTargets: 600})
	balanced := NewSystem(testW, testP, testNet, Config{Policy: EndUser, PingTargets: 600, BalanceFactor: 2})
	sameRows := func(a, b *Snapshot, what string) {
		t.Helper()
		if len(a.rows) != len(b.rows) {
			t.Fatalf("%s: %d rows vs %d", what, len(a.rows), len(b.rows))
		}
		for i := range a.rows {
			if !slices.Equal(a.RowOrder(i), b.RowOrder(i)) || i < a.Tables() && !slices.Equal(a.HeadScores(i), b.HeadScores(i)) {
				t.Fatalf("%s: row %d differs", what, i)
			}
		}
	}
	idle := base.Current()
	sameRows(idle, balanced.Current(), "idle, β=2 vs β=0")

	blk := testW.Blocks[0]
	hot := depOf(blockRow(idle, blk).Head[0])
	for _, s := range hot.Servers {
		s.AddLoad(0.9 * s.Capacity())
	}
	sameRows(idle, base.Rebuild(), "β=0 under load vs idle")
	sameRows(idle, balanced.Rebuild(), "β=2 under load vs idle")

	req := Request{Domain: "a.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
	if r, err := base.Map(req); err != nil || r.Deployment != hot {
		t.Fatalf("β=0 pick = %v (%v), want the unsaturated nearest deployment %s", r, err, hot.Name)
	}
	if r, err := balanced.Map(req); err != nil || r.Deployment == hot {
		t.Fatalf("β=2 pick = %v (%v), want it moved off %s at 90%% utilisation", r, err, hot.Name)
	}
}

func TestLoadAwareFallsBackWhenAllSaturated(t *testing.T) {
	lb := NewLoadBalancer()
	lb.BalanceFactor = 5
	d1 := testDeployment(22, 2)
	for _, s := range d1.Servers {
		s.AddLoad(s.Capacity() * 2)
	}
	got, err := lb.PickDeployment([]*cdn.Deployment{d1}, stored([]Ranked{{0, 3}}), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != d1 {
		t.Error("saturated fallback should still serve from the best live candidate")
	}
}

// TestPickDeploymentAllSaturatedLeastUtilised pins the degraded-mode spill
// rule: when every live candidate is at capacity, the pick goes to the
// least-utilised one (spreading overload), with utilisation ties keeping
// the best-scored candidate, dead candidates skipped, and any candidate
// with headroom for the demand short-circuiting the whole question.
func TestPickDeploymentAllSaturatedLeastUtilised(t *testing.T) {
	lb := NewLoadBalancer()
	// mk builds a 2-server deployment loaded to the given utilisation.
	mk := func(id uint64, util float64) *cdn.Deployment {
		d := testDeployment(30+id, 2)
		for _, s := range d.Servers {
			s.AddLoad(s.Capacity() * util)
		}
		return d
	}
	cases := []struct {
		name   string
		utils  []float64 // one candidate per entry, best score first
		dead   int       // candidate index to kill (-1: none)
		brown  int       // candidate index browned out to zero capacity (-1: none)
		demand float64
		want   int // expected candidate index
	}{
		{"least utilised wins", []float64{3, 1.5, 2}, -1, -1, 1, 1},
		{"tie keeps best score", []float64{2, 2, 3}, -1, -1, 1, 0},
		{"dead candidate skipped", []float64{3, 1.5, 2}, 1, -1, 1, 2},
		{"zero-capacity loaded counts hottest", []float64{3, 1.1, 2}, -1, 1, 1, 2},
		{"headroom short-circuits", []float64{3, 0.4, 2}, -1, -1, 1, 1},
		{"demand counts against headroom", []float64{3, 0.8, 1.2}, -1, -1, 1, 1},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var deps []*cdn.Deployment
			var ranked []Ranked
			for i, u := range tc.utils {
				d := mk(uint64(ci*10+i), u)
				if i == tc.dead {
					for _, s := range d.Servers {
						s.SetAlive(false)
					}
				}
				if i == tc.brown {
					d.SetCapacityFactor(0)
				}
				deps = append(deps, d)
				ranked = append(ranked, Ranked{uint32(i), float64(1 + i)})
			}
			cands := stored(ranked)
			got, err := lb.PickDeployment(deps, cands, tc.demand)
			if err != nil {
				t.Fatal(err)
			}
			if got != deps[tc.want] {
				gotIdx := slices.Index(deps, got)
				t.Errorf("picked candidate %d (util %v), want %d (util %v)",
					gotIdx, tc.utils[gotIdx], tc.want, tc.utils[tc.want])
			}
		})
	}
}

// TestPickServersDemandAccounting pins where assigned demand lands: on the
// primary (first) picked server only, once per decision.
func TestPickServersDemandAccounting(t *testing.T) {
	d := testDeployment(60, 6)
	lb := NewLoadBalancer()
	before := map[uint64]float64{}
	for _, s := range d.Servers {
		before[s.ID] = s.Load()
	}
	servers, err := lb.PickServers(d, "accounting.example.net", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := servers[0].Load() - before[servers[0].ID]; got != 2.5 {
		t.Errorf("primary absorbed %v demand, want 2.5", got)
	}
	for _, s := range servers[1:] {
		if s.Load() != before[s.ID] {
			t.Errorf("secondary server %d load changed by %v", s.ID, s.Load()-before[s.ID])
		}
	}
	if d.Load() != 2.5 {
		t.Errorf("deployment load = %v, want 2.5", d.Load())
	}
}

// BenchmarkPickServers is the local pick of one answer on the cold_wide
// benchmark's roster: a domain's two live servers of one deployment, from
// the weights of all its servers.
func BenchmarkPickServers(b *testing.B) {
	p := oracleRoster()
	lb := NewLoadBalancer()
	domains := make([]string, 1024)
	for i := range domains {
		domains[i] = fmt.Sprintf("c%d.cdn.example.net", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.PickServers(p.Deployments[i%len(p.Deployments)], domains[i%len(domains)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
