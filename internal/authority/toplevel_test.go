package authority

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/geo"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/stats"
	"eum/internal/world"
)

func newTopLevel(t *testing.T) (*TopLevel, *mapping.System) {
	t.Helper()
	sys := mapping.NewSystem(testW, testP, netmodel.NewDefault(),
		mapping.Config{Policy: mapping.EndUser, PingTargets: 300})
	tl, err := NewTopLevel("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	return tl, sys
}

// sitesForTest registers two NS sites at far-apart deployments and returns
// them, most-distant-pair first.
func sitesForTest(t *testing.T, tl *TopLevel) (a, b NSSite) {
	t.Helper()
	d1 := testP.Deployments[0]
	// Find the deployment farthest from d1 for a clear choice.
	d2 := testP.Deployments[1]
	for _, d := range testP.Deployments {
		if sq(d.Loc.Lat-d1.Loc.Lat)+sq(d.Loc.Lon-d1.Loc.Lon) >
			sq(d2.Loc.Lat-d1.Loc.Lat)+sq(d2.Loc.Lon-d1.Loc.Lon) {
			d2 = d
		}
	}
	a = NSSite{Host: "n1.ns.cdn.example.net", Addr: netip.MustParseAddr("127.0.0.2"), Deployment: d1}
	b = NSSite{Host: "n2.ns.cdn.example.net", Addr: netip.MustParseAddr("127.0.0.3"), Deployment: d2}
	if err := tl.AddSite(a); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddSite(b); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func sq(v float64) float64 { return v * v }

func TestNewTopLevelValidation(t *testing.T) {
	tl, sys := newTopLevel(t)
	if _, err := NewTopLevel("", sys); err == nil {
		t.Error("empty zone accepted")
	}
	if _, err := NewTopLevel("z.net", nil); err == nil {
		t.Error("nil system accepted")
	}
	// A replica holds the publisher's map and no scorer, and its top level
	// delegates every world LDNS as the standalone's does.
	replica := mapping.NewReplica(testP, sys.Current(), mapping.Config{})
	rtl, err := NewTopLevel("cdn.example.net", replica)
	if err != nil {
		t.Fatal(err)
	}
	sitesForTest(t, tl)
	sitesForTest(t, rtl)
	for _, l := range testW.LDNSes {
		from := netip.AddrPortFrom(l.Addr, 53)
		want := glueOf(t, tl.ServeDNS(from, query("x.b.cdn.example.net", dnsmsg.TypeA)))
		if got := glueOf(t, rtl.ServeDNS(from, query("x.b.cdn.example.net", dnsmsg.TypeA))); got != want {
			t.Errorf("LDNS %v: the replica delegated to %v, the standalone to %v", l.Addr, got, want)
		}
	}
}

// glueOf returns a referral's glue address.
func glueOf(t *testing.T, resp *dnsmsg.Message) netip.Addr {
	t.Helper()
	if len(resp.Additionals) != 1 {
		t.Fatalf("referral with %d additional records, want the glue alone (rcode %v)", len(resp.Additionals), resp.RCode)
	}
	return resp.Additionals[0].Data.(*dnsmsg.A).Addr
}

func TestAddSiteValidation(t *testing.T) {
	tl, _ := newTopLevel(t)
	if err := tl.AddSite(NSSite{Host: "ns.other.org", Addr: netip.MustParseAddr("10.0.0.1"),
		Deployment: testP.Deployments[0]}); err == nil {
		t.Error("out-of-zone NS host accepted")
	}
	if err := tl.AddSite(NSSite{Host: "n.ns.cdn.example.net", Addr: netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Error("site without deployment accepted")
	}
	if err := tl.AddSite(NSSite{Host: "n.ns.cdn.example.net", Addr: netip.MustParseAddr("10.0.0.1"),
		Deployment: &cdn.Deployment{Name: "elsewhere"}}); err == nil {
		t.Error("site in a deployment outside the map accepted")
	}
	if err := tl.AddSite(NSSite{Host: "n1.ns.cdn.example.net", Addr: netip.MustParseAddr("10.0.0.1"),
		Deployment: testP.Deployments[0]}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddSite(NSSite{Host: "n2.ns.cdn.example.net", Addr: netip.MustParseAddr("10.0.0.2"),
		Deployment: testP.Deployments[0]}); err == nil {
		t.Error("a second site in one deployment accepted")
	}
}

func TestRegisterCustomerValidation(t *testing.T) {
	tl, _ := newTopLevel(t)
	if err := tl.RegisterCustomer("www.shop.example", "e1.b.cdn.example.net"); err != nil {
		t.Fatal(err)
	}
	if err := tl.RegisterCustomer("www.bad.example", "www.elsewhere.org"); err == nil {
		t.Error("CNAME target outside content zone accepted")
	}
}

func TestCustomerCNAMEAnswer(t *testing.T) {
	tl, _ := newTopLevel(t)
	_ = tl.RegisterCustomer("WWW.Shop.Example", "e77.b.cdn.example.net")
	resp := tl.ServeDNS(resolverAddr, query("www.shop.example", dnsmsg.TypeA))
	if !resp.Authoritative || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	c, ok := resp.Answers[0].Data.(*dnsmsg.CNAME)
	if !ok || c.Target != "e77.b.cdn.example.net" {
		t.Errorf("answer = %v", resp.Answers[0])
	}
}

func TestDelegationReferral(t *testing.T) {
	tl, _ := newTopLevel(t)
	siteA, siteB := sitesForTest(t, tl)
	resp := tl.ServeDNS(resolverAddr, query("e5.b.cdn.example.net", dnsmsg.TypeA))
	if resp.Authoritative {
		t.Error("referral should not be authoritative")
	}
	if len(resp.Answers) != 0 || len(resp.Authorities) != 1 || len(resp.Additionals) != 1 {
		t.Fatalf("sections: %d/%d/%d", len(resp.Answers), len(resp.Authorities), len(resp.Additionals))
	}
	ns := resp.Authorities[0].Data.(*dnsmsg.NS)
	glue := resp.Additionals[0].Data.(*dnsmsg.A)
	if ns.Host != siteA.Host && ns.Host != siteB.Host {
		t.Errorf("delegated to unknown site %v", ns.Host)
	}
	if glue.Addr != siteA.Addr && glue.Addr != siteB.Addr {
		t.Errorf("glue = %v", glue.Addr)
	}
	if resp.Authorities[0].Name != "b.cdn.example.net" {
		t.Errorf("delegation owner = %v", resp.Authorities[0].Name)
	}
}

func TestDelegationTracksLDNSLocation(t *testing.T) {
	// Different LDNSes should receive delegations to different (nearby)
	// NS sites: "different clients could receive different name server
	// delegations" (§2.2).
	tl, sys := newTopLevel(t)
	siteA, siteB := sitesForTest(t, tl)
	sn := sys.Current()

	got := map[netip.Addr]int{}
	for _, l := range testW.LDNSes {
		glue := glueOf(t, tl.ServeDNS(netip.AddrPortFrom(l.Addr, 53), query("x.b.cdn.example.net", dnsmsg.TypeA)))
		got[glue]++
		// The chosen site must be the one the map ranks first for this
		// LDNS: the first of the two met walking its resolver row.
		var want netip.Addr
		row, _ := sn.ResolverRow(l.Addr)
		row.Walk(func(_ int, dep uint16) bool {
			switch sn.Deployments()[dep] {
			case siteA.Deployment:
				want = siteA.Addr
			case siteB.Deployment:
				want = siteB.Addr
			}
			return !want.IsValid()
		})
		if glue != want {
			t.Errorf("LDNS %v delegated to %v, its row ranks %v first", l.Addr, glue, want)
		}
	}
	if len(got) < 2 {
		t.Error("all LDNSes delegated to a single site; expected geographic spread")
	}
}

// TestDelegationNoFartherThanScorer: the map's row order ranks a
// resolver's partition's ping target, not the resolver itself, so it can
// pick another site than scoring each site against the resolver would.
// Averaged over five random site sets of each size, it must cost no more
// than 1 % of the demand-weighted mean LDNS → site distance the scorer's
// order gets, nor 2 % of its p95.
func TestDelegationNoFartherThanScorer(t *testing.T) {
	for _, miles := range []float64{0, 50} {
		sys := mapping.NewSystem(testW, testP, netmodel.NewDefault(),
			mapping.Config{Policy: mapping.EndUser, PingTargets: 300, PartitionMiles: miles})
		for _, n := range []int{2, 4, 8, 16, 32} {
			row, scorer := delegationOrders(t, sys, testW, testP, n)
			t.Logf("partition_miles %g, %2d sites: mean %.0f / p95 %.0f mi by the row, %.0f / %.0f by the scorer",
				miles, n, row.mean, row.p95, scorer.mean, scorer.p95)
			if row.mean > 1.01*scorer.mean || row.p95 > 1.02*scorer.p95 {
				t.Errorf("partition_miles %g, %d sites: the row order is farther than the scorer's by more than 1 %% of the mean or 2 %% of the p95", miles, n)
			}
		}
	}
}

// delegationMiles is a demand-weighted mean and p95 LDNS → site distance.
type delegationMiles struct{ mean, p95 float64 }

// delegationOrders averages, over five random sets of n of p's
// deployments (seeds 1 to 5), the distances every world LDNS is delegated
// over: by a top level over sys, which walks the map's row, and by sys's
// scorer scoring each site against the LDNS itself.
func delegationOrders(t testing.TB, sys *mapping.System, w *world.World, p *cdn.Platform, n int) (row, scorer delegationMiles) {
	const sets = 5
	for seed := uint64(1); seed <= sets; seed++ {
		byRow, byScorer := delegationDistances(t, sys, w, randomDeployments(p, n, seed))
		row.mean += byRow.Mean() / sets
		row.p95 += byRow.Percentile(95) / sets
		scorer.mean += byScorer.Mean() / sets
		scorer.p95 += byScorer.Percentile(95) / sets
	}
	return row, scorer
}

// randomDeployments draws n distinct deployments of p.
func randomDeployments(p *cdn.Platform, n int, seed uint64) []*cdn.Deployment {
	r := rand.New(rand.NewPCG(seed, 0))
	deps := make([]*cdn.Deployment, n)
	for i, k := range r.Perm(len(p.Deployments))[:n] {
		deps[i] = p.Deployments[k]
	}
	return deps
}

// addSites registers one NS site in each of deps, and returns the
// deployment behind each glue address.
func addSites(t testing.TB, tl *TopLevel, deps []*cdn.Deployment) map[netip.Addr]*cdn.Deployment {
	t.Helper()
	byGlue := map[netip.Addr]*cdn.Deployment{}
	for i, d := range deps {
		glue := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		if err := tl.AddSite(NSSite{Host: dnsmsg.Name(fmt.Sprintf("n%d.ns.cdn.example.net", i)), Addr: glue, Deployment: d}); err != nil {
			t.Fatal(err)
		}
		byGlue[glue] = d
	}
	return byGlue
}

// TestReferralAllocs: a referral reads the installed map and appends
// records built when its site was added, so after a first pass grows the
// reply it allocates nothing, whatever the number of sites. It counts every
// allocation of a whole pass over every world LDNS.
func TestReferralAllocs(t *testing.T) {
	wire, err := query("x.b.cdn.example.net", dnsmsg.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{2, 8, 32} {
		tl, _ := newTopLevel(t)
		if n == 2 {
			sitesForTest(t, tl)
		} else {
			addSites(t, tl, randomDeployments(testP, n, 1))
		}
		var msg dnsmsg.Message
		pass := func() {
			for _, l := range testW.LDNSes {
				if err := dnsmsg.UnpackInto(&msg, wire); err != nil {
					t.Fatal(err)
				}
				if resp := tl.ServeDNS(netip.AddrPortFrom(l.Addr, 53), &msg); len(resp.Additionals) != 1 {
					t.Fatalf("no referral for LDNS %v (rcode %v)", l.Addr, resp.RCode)
				}
			}
		}
		pass()
		// The collector is held off: the runtime allocates on its own
		// account around a collection that completes inside the pass.
		gcPercent := debug.SetGCPercent(-1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pass()
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(gcPercent)
		if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
			t.Errorf("%d sites: %d allocations over %d referrals, want 0", n, allocs, len(testW.LDNSes))
		}
	}
}

// delegationDistances registers one NS site in each of deps on a fresh
// top level over sys and returns, weighted by demand, the distance from
// every world LDNS to the site it is delegated to, and to the site whose
// deployment sys's scorer scores best against the LDNS itself.
func delegationDistances(t testing.TB, sys *mapping.System, w *world.World, deps []*cdn.Deployment) (row, scorer *stats.Dataset) {
	t.Helper()
	tl, err := NewTopLevel("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	byGlue := addSites(t, tl, deps)
	row, scorer = &stats.Dataset{}, &stats.Dataset{}
	sc := sys.Scorer()
	q := query("x.b.cdn.example.net", dnsmsg.TypeA)
	for _, l := range w.LDNSes {
		resp := tl.ServeDNS(netip.AddrPortFrom(l.Addr, 53), q)
		row.Add(geo.Distance(l.Loc, byGlue[resp.Additionals[0].Data.(*dnsmsg.A).Addr].Loc), l.Demand)
		ep, best := l.Endpoint(), deps[0]
		for _, d := range deps[1:] {
			if sc.Score(d, ep) < sc.Score(best, ep) {
				best = d
			}
		}
		scorer.Add(geo.Distance(l.Loc, best.Loc), l.Demand)
	}
	return row, scorer
}

func TestDelegationSkipsDeadSite(t *testing.T) {
	tl, _ := newTopLevel(t)
	siteA, siteB := sitesForTest(t, tl)
	// Kill site A's deployment: every delegation must go to B.
	for _, s := range siteA.Deployment.Servers {
		s.SetAlive(false)
	}
	defer func() {
		for _, s := range siteA.Deployment.Servers {
			s.SetAlive(true)
		}
	}()
	resp := tl.ServeDNS(resolverAddr, query("y.b.cdn.example.net", dnsmsg.TypeA))
	glue := resp.Additionals[0].Data.(*dnsmsg.A).Addr
	if glue != siteB.Addr {
		t.Errorf("delegated to dead site: %v", glue)
	}
}

func TestNoSitesServfail(t *testing.T) {
	tl, _ := newTopLevel(t)
	resp := tl.ServeDNS(resolverAddr, query("z.b.cdn.example.net", dnsmsg.TypeA))
	if resp.RCode != dnsmsg.RCodeServerFailure {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestApexSOA(t *testing.T) {
	tl, _ := newTopLevel(t)
	resp := tl.ServeDNS(resolverAddr, query("cdn.example.net", dnsmsg.TypeA))
	if len(resp.Authorities) != 1 {
		t.Fatal("no SOA at apex")
	}
	if _, ok := resp.Authorities[0].Data.(*dnsmsg.SOA); !ok {
		t.Error("apex authority is not SOA")
	}
}

func TestOutOfZoneRefusedTopLevel(t *testing.T) {
	tl, _ := newTopLevel(t)
	resp := tl.ServeDNS(resolverAddr, query("www.unrelated.org", dnsmsg.TypeA))
	if resp.RCode != dnsmsg.RCodeRefused {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

// TestFullHierarchyOverUDP exercises the complete Figure 3 flow over real
// sockets: customer CNAME at the top level, NS referral to a low-level
// site, and the final ECS-scoped A answer from the mapping system.
func TestFullHierarchyOverUDP(t *testing.T) {
	tl, sys := newTopLevel(t)

	// Low-level authorities on distinct loopback addresses, same port.
	low, err := New("b.cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	lowA, errA := dnsserver.Listen("127.0.0.2:0", low)
	if errA != nil {
		t.Skipf("cannot bind 127.0.0.2 (need 127/8 loopback): %v", errA)
	}
	defer lowA.Close()
	go func() { _ = lowA.Serve() }()
	port := lowA.Addr().(*net.UDPAddr).Port
	lowB, errB := dnsserver.Listen("127.0.0.3:"+strconv.Itoa(port), low)
	if errB != nil {
		t.Skipf("cannot bind 127.0.0.3: %v", errB)
	}
	defer lowB.Close()
	go func() { _ = lowB.Serve() }()

	if err := tl.AddSite(NSSite{Host: "n1.ns.cdn.example.net",
		Addr: netip.MustParseAddr("127.0.0.2"), Deployment: testP.Deployments[0]}); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddSite(NSSite{Host: "n2.ns.cdn.example.net",
		Addr: netip.MustParseAddr("127.0.0.3"), Deployment: testP.Deployments[1]}); err != nil {
		t.Fatal(err)
	}
	if err := tl.RegisterCustomer("www.whitehouse.example", "e2561.b.cdn.example.net"); err != nil {
		t.Fatal(err)
	}

	top, err := dnsserver.Listen("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	go func() { _ = top.Serve() }()

	it := &dnsclient.Iterative{
		Client: dnsclient.Client{Timeout: 2 * time.Second},
		Root:   top.Addr().String(),
		Port:   port,
	}
	blk := testW.Blocks[25]
	resp, trace, err := it.Resolve(context.Background(),
		"www.whitehouse.example", dnsmsg.TypeA, blk.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) < 2 {
		t.Fatalf("final answers = %d", len(resp.Answers))
	}
	for _, rr := range resp.Answers {
		if _, ok := rr.Data.(*dnsmsg.A); !ok {
			t.Errorf("non-A final answer: %v", rr)
		}
	}
	// The trace shows the full path: CNAME chase + referral.
	if len(trace.CNAMEs) != 1 || trace.CNAMEs[0] != "e2561.b.cdn.example.net" {
		t.Errorf("CNAMEs = %v", trace.CNAMEs)
	}
	if len(trace.Referrals) != 1 {
		t.Errorf("referrals = %v", trace.Referrals)
	}
	if len(trace.Servers) != 3 { // top (alias), top (cdn name), low-level
		t.Errorf("servers = %v", trace.Servers)
	}
	// ECS honoured end-to-end.
	if ecs := resp.ClientSubnet(); ecs == nil || ecs.ScopePrefix == 0 {
		t.Errorf("final answer missing ECS scope: %+v", resp.ClientSubnet())
	}
}

// BenchmarkDelegationOrder measures what delegating by the map's row costs
// against scoring each site against the LDNS, at the experiments' Full
// scale (20 000 blocks, 2 642 deployments, seed 1): for site sets of 8, 32
// and 128 deployments, five random sets each, the demand-weighted mean
// and p95 LDNS → site miles under both orders.
//
//	go test -run '^$' -bench DelegationOrder ./internal/authority
func BenchmarkDelegationOrder(b *testing.B) {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 20000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 2642, ServersPerDeployment: 8})
	for _, miles := range []float64{0, 50} {
		sys := mapping.NewSystem(w, p, netmodel.NewDefault(),
			mapping.Config{Policy: mapping.EndUser, PingTargets: len(w.Blocks) / 10, PartitionMiles: miles})
		for _, n := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("partition_miles=%g/sites=%d", miles, n), func(b *testing.B) {
				var row, scorer delegationMiles
				for range b.N {
					row, scorer = delegationOrders(b, sys, w, p, n)
				}
				b.ReportMetric(row.mean, "row_mean_mi")
				b.ReportMetric(row.p95, "row_p95_mi")
				b.ReportMetric(scorer.mean, "scorer_mean_mi")
				b.ReportMetric(scorer.p95, "scorer_p95_mi")
			})
		}
	}
}
