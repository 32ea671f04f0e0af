package authority

import (
	"context"
	"net"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapping"
	"eum/internal/netmodel"
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
	_, sys := newTopLevel(t)
	if _, err := NewTopLevel("", sys); err == nil {
		t.Error("empty zone accepted")
	}
	if _, err := NewTopLevel("z.net", nil); err == nil {
		t.Error("nil system accepted")
	}
	// A replica has no scorer to rank sites with: refused here, where the
	// first referral would otherwise have dereferenced it.
	replica := mapping.NewReplica(testP, sys.Current(), mapping.Config{})
	if _, err := NewTopLevel("z.net", replica); err == nil {
		t.Error("a replica, which has no scorer, accepted")
	}
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
	scorer := sys.Scorer()

	got := map[netip.Addr]int{}
	for _, l := range testW.LDNSes {
		resp := tl.ServeDNS(netip.AddrPortFrom(l.Addr, 53), query("x.b.cdn.example.net", dnsmsg.TypeA))
		if len(resp.Additionals) != 1 {
			t.Fatal("no glue")
		}
		glue := resp.Additionals[0].Data.(*dnsmsg.A).Addr
		got[glue]++
		// The chosen site must be the better-scoring one for this LDNS.
		ep := sys.LDNSEndpoint(l.Addr)
		wantA := scorer.Score(siteA.Deployment, ep) <= scorer.Score(siteB.Deployment, ep)
		if wantA != (glue == siteA.Addr) {
			t.Errorf("LDNS %v delegated to the farther site", l.Addr)
		}
	}
	if len(got) < 2 {
		t.Error("all LDNSes delegated to a single site; expected geographic spread")
	}
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
