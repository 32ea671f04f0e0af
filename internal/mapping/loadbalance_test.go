package mapping

import (
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

// preparedFor returns a load balancer prepared for a platform of ds.
func preparedFor(ds ...*cdn.Deployment) *LoadBalancer {
	lb := NewLoadBalancer()
	lb.Prepare(&cdn.Platform{Deployments: ds})
	return lb
}

func TestPickDeploymentSkipsDead(t *testing.T) {
	lb := NewLoadBalancer()
	d1 := testDeployment(1, 4)
	d2 := testDeployment(2, 4)
	for _, s := range d1.Servers {
		s.SetAlive(false)
	}
	got, err := lb.PickDeployment([]*cdn.Deployment{d1, d2}, Row{Head: []Ranked{{Dep: 0}, {Dep: 1}}}, 0)
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
	got, err := lb.PickDeployment([]*cdn.Deployment{d1, d2}, Row{Head: []Ranked{{Dep: 0}, {Dep: 1}}}, 0.5)
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
	got, err := lb.PickDeployment([]*cdn.Deployment{d1, d2}, Row{Head: []Ranked{{Dep: 0}, {Dep: 1}}}, 1)
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
	if _, err := lb.PickDeployment([]*cdn.Deployment{d}, Row{Head: []Ranked{{Dep: 0}}}, 0); err == nil {
		t.Error("no-live-deployment case did not error")
	}
	if _, err := lb.PickDeployment(nil, Row{}, 0); err == nil {
		t.Error("empty candidates did not error")
	}
}

func TestPickServersConsistency(t *testing.T) {
	d := testDeployment(8, 8)
	lb := preparedFor(d)
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
	lb := preparedFor(d)
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
	lb := preparedFor(d)
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
	lb := preparedFor(d)
	for _, s := range d.Servers {
		s.SetAlive(false)
	}
	if _, err := lb.PickServers(d, "dead.net", 0); err == nil {
		t.Error("all-dead deployment did not error")
	}
}

// TestPickServersNeedsPreparedDeployment: a load balancer serves the
// platform it was prepared for, and refuses a deployment of any other,
// even one that shares an ID with a prepared deployment.
func TestPickServersNeedsPreparedDeployment(t *testing.T) {
	d, other := testDeployment(14, 3), testDeployment(15, 3)
	if _, err := NewLoadBalancer().PickServers(d, "a.net", 0); err == nil {
		t.Error("an unprepared load balancer picked servers")
	}
	lb := preparedFor(d)
	if _, err := lb.PickServers(other, "a.net", 0); err == nil {
		t.Error("a deployment the load balancer was not prepared for got servers")
	}
	if _, err := lb.PickServers(d, "a.net", 0); err != nil {
		t.Error(err)
	}
}

func TestConsistentHashingStability(t *testing.T) {
	// Killing one server should re-map only the domains it served:
	// most domains keep their primary server.
	d := testDeployment(12, 10)
	lb := preparedFor(d)
	before := map[string]uint64{}
	for i := 0; i < 200; i++ {
		dom := fmt.Sprintf("site-%d.example.net", i)
		s, err := lb.PickServers(d, dom, 0)
		if err != nil {
			t.Fatal(err)
		}
		before[dom] = s[0].ID
	}
	victim := d.Servers[0]
	victim.SetAlive(false)
	moved := 0
	for dom, prev := range before {
		s, err := lb.PickServers(d, dom, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s[0].ID != prev {
			moved++
			if prev != victim.ID {
				t.Errorf("domain %s moved off a live server", dom)
			}
		}
	}
	if moved == 0 {
		t.Error("killing a server moved no domains (suspicious)")
	}
	if moved > 60 {
		t.Errorf("killing 1 of 10 servers moved %d/200 domains", moved)
	}
}

func TestConsistentHashingBalance(t *testing.T) {
	// With many domains, load should spread across servers reasonably.
	d := testDeployment(13, 8)
	lb := preparedFor(d)
	counts := map[uint64]int{}
	n := 4000
	for i := 0; i < n; i++ {
		s, err := lb.PickServers(d, fmt.Sprintf("d%d.net", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[s[0].ID]++
	}
	if len(counts) != len(d.Servers) {
		t.Fatalf("only %d of %d servers used", len(counts), len(d.Servers))
	}
	mean := float64(n) / float64(len(d.Servers))
	for id, c := range counts {
		if float64(c) > mean*3 || float64(c) < mean/4 {
			t.Errorf("server %d holds %d domains (mean %.0f): imbalanced", id, c, mean)
		}
	}
}

func TestScorerBestMatchesRankHead(t *testing.T) {
	sc := NewScorer(testW, testP, testNet, 500)
	ep := testW.Blocks[10].Endpoint()
	rank := sc.Rank(ep)
	best, score := sc.Best(ep)
	if best == nil {
		t.Fatal("no best deployment")
	}
	if depOf(rank[0]) != best || rank[0].Score() != score {
		t.Errorf("Rank head %v/%.2f != Best %v/%.2f",
			depOf(rank[0]).Name, rank[0].Score(), best.Name, score)
	}
	for i := 1; i < len(rank); i++ {
		if rank[i].Score() < rank[i-1].Score() {
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
	candidates := Row{Head: []Ranked{MakeRanked(0, 10), MakeRanked(1, 11)}}

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
			if !slices.Equal(a.rows[i], b.rows[i]) {
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
	got, err := lb.PickDeployment([]*cdn.Deployment{d1}, Row{Head: []Ranked{MakeRanked(0, 3)}}, 0.5)
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
			var cands []Ranked
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
				cands = append(cands, MakeRanked(uint32(i), float64(1+i)))
			}
			got, err := lb.PickDeployment(deps, Row{Head: cands}, tc.demand)
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
	lb := preparedFor(d)
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

// BenchmarkPickServers is the local pick of one answer: a domain onto the
// ring of one of testP's deployments, two live servers out.
func BenchmarkPickServers(b *testing.B) {
	lb := preparedFor(testP.Deployments...)
	domains := make([]string, 1024)
	for i := range domains {
		domains[i] = fmt.Sprintf("c%d.cdn.example.net", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lb.PickServers(testP.Deployments[i%len(testP.Deployments)], domains[i%len(domains)], 0); err != nil {
			b.Fatal(err)
		}
	}
}
