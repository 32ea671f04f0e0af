package mapping

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/netmodel"
	"eum/internal/stats"
	"eum/internal/world"
)

var (
	testW   = world.MustGenerate(world.Config{Seed: 5, NumBlocks: 4000})
	testNet = netmodel.NewDefault()
	testP   = cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 5, NumDeployments: 300, ServersPerDeployment: 6})
)

// depOf resolves a rank entry against the test platform.
func depOf(r Ranked) *cdn.Deployment { return testP.Deployments[r.Dep] }

// blockRow and ldnsRow return the rows a query reads for a world block's
// subnet and from a world resolver's address.
func blockRow(sn *Snapshot, b *world.ClientBlock) Row {
	r, _ := sn.ClientRow(b.Prefix)
	return r
}

func ldnsRow(sn *Snapshot, l *world.LDNS) Row {
	r, _ := sn.ResolverRow(l.Addr)
	return r
}

// assigned returns the partitions the builder's layout gives the world's
// LDNSes and blocks, in world order.
func assigned(b *SnapshotBuilder) (ldnses, blocks []int32) {
	_, _, assign := b.partition()
	return assign[:len(b.world.LDNSes)], assign[len(b.world.LDNSes):]
}

func newSystem(t testing.TB, pol Policy) *System {
	t.Helper()
	return NewSystem(testW, testP, testNet, Config{Policy: pol, PingTargets: 1000})
}

// publicBlock returns a block using a public resolver whose LDNS is far
// away (the clients EU mapping helps most).
func publicBlock(t testing.TB) *world.ClientBlock {
	t.Helper()
	var best *world.ClientBlock
	for _, b := range testW.Blocks {
		if b.LDNS.IsPublic() && b.ClientLDNSDistance() > 2000 {
			if best == nil || b.Demand > best.Demand {
				best = b
			}
		}
	}
	if best == nil {
		t.Fatal("no far public-resolver block in test world")
	}
	return best
}

func TestMapNSBased(t *testing.T) {
	s := newSystem(t, NSBased)
	b := publicBlock(t)
	resp, err := s.Map(Request{Domain: "foo.cdn.example.net", LDNS: b.LDNS.Addr})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deployment == nil || len(resp.Servers) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.UsedClientSubnet || resp.ScopePrefix != 0 {
		t.Error("NS-based mapping claims to have used the client subnet")
	}
	// The chosen deployment should be near the LDNS, not the client.
	dLDNS := geo.Distance(resp.Deployment.Loc, b.LDNS.Loc)
	dClient := geo.Distance(resp.Deployment.Loc, b.Loc)
	if dLDNS > dClient {
		t.Errorf("NS mapping chose deployment nearer the client (%.0f) than the LDNS (%.0f)", dClient, dLDNS)
	}
}

func TestMapEndUser(t *testing.T) {
	s := newSystem(t, EndUser)
	b := publicBlock(t)
	resp, err := s.Map(Request{
		Domain:       "foo.cdn.example.net",
		LDNS:         b.LDNS.Addr,
		ClientSubnet: b.Prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.UsedClientSubnet {
		t.Error("EU mapping did not use the client subnet")
	}
	if resp.ScopePrefix != 24 {
		t.Errorf("scope = %d, want 24", resp.ScopePrefix)
	}
	// The chosen deployment should be near the client.
	dClient := geo.Distance(resp.Deployment.Loc, b.Loc)
	dLDNS := geo.Distance(resp.Deployment.Loc, b.LDNS.Loc)
	if dClient > dLDNS {
		t.Errorf("EU mapping chose deployment nearer the LDNS (%.0f) than the client (%.0f)", dLDNS, dClient)
	}
}

func TestEUFallsBackWithoutECS(t *testing.T) {
	s := newSystem(t, EndUser)
	b := publicBlock(t)
	resp, err := s.Map(Request{Domain: "foo.cdn.example.net", LDNS: b.LDNS.Addr})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UsedClientSubnet {
		t.Error("EU mapping used a client subnet that was not provided")
	}
}

func TestEUImprovesMappingDistanceForPublicClients(t *testing.T) {
	// The roll-out headline: for public-resolver clients, EU mapping cuts
	// the client-deployment distance several-fold versus NS mapping.
	ns := newSystem(t, NSBased)
	eu := newSystem(t, EndUser)
	var nsD, euD stats.Dataset
	n := 0
	for _, b := range testW.Blocks {
		if !b.LDNS.IsPublic() || n > 400 {
			continue
		}
		n++
		r1, err := ns.Map(Request{Domain: "d.net", LDNS: b.LDNS.Addr})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := eu.Map(Request{Domain: "d.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix})
		if err != nil {
			t.Fatal(err)
		}
		nsD.Add(geo.Distance(r1.Deployment.Loc, b.Loc), b.Demand)
		euD.Add(geo.Distance(r2.Deployment.Loc, b.Loc), b.Demand)
	}
	if euD.Mean() >= nsD.Mean()/2 {
		t.Errorf("EU mean mapping distance %.0f not well below NS %.0f", euD.Mean(), nsD.Mean())
	}
}

func TestCANSBetweenNSAndEU(t *testing.T) {
	// §6: CANS is an intermediate point between NS and EU.
	ns := newSystem(t, NSBased)
	cans := newSystem(t, ClientAwareNS)
	eu := newSystem(t, EndUser)
	var nsD, cansD, euD stats.Dataset
	count := 0
	for _, b := range testW.Blocks {
		if !b.LDNS.IsPublic() {
			continue
		}
		if count++; count > 300 {
			break
		}
		for _, tc := range []struct {
			sys *System
			ds  *stats.Dataset
			ecs netip.Prefix
		}{{ns, &nsD, netip.Prefix{}}, {cans, &cansD, netip.Prefix{}}, {eu, &euD, b.Prefix}} {
			r, err := tc.sys.Map(Request{Domain: "d.net", LDNS: b.LDNS.Addr, ClientSubnet: tc.ecs})
			if err != nil {
				t.Fatal(err)
			}
			tc.ds.Add(geo.Distance(r.Deployment.Loc, b.Loc), b.Demand)
		}
	}
	if !(euD.Mean() <= cansD.Mean() && cansD.Mean() <= nsD.Mean()*1.05) {
		t.Errorf("want EU (%.0f) <= CANS (%.0f) <= NS (%.0f)", euD.Mean(), cansD.Mean(), nsD.Mean())
	}
}

func TestMapUnknownLDNSFallsBack(t *testing.T) {
	s := newSystem(t, NSBased)
	resp, err := s.Map(Request{Domain: "d.net", LDNS: netip.MustParseAddr("127.0.0.1")})
	if err != nil {
		t.Fatalf("unknown LDNS should still be served: %v", err)
	}
	if resp.Deployment == nil {
		t.Fatal("no deployment for unknown LDNS")
	}
}

func TestMapUnknownECSPrefix(t *testing.T) {
	s := newSystem(t, EndUser)
	resp, err := s.Map(Request{
		Domain:       "d.net",
		LDNS:         netip.MustParseAddr("127.0.0.1"),
		ClientSubnet: netip.MustParsePrefix("198.18.55.0/24"), // not in world
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.UsedClientSubnet {
		t.Error("unknown prefix should not count as a client-subnet decision")
	}
}

func TestMapEmptyDomainRejected(t *testing.T) {
	s := newSystem(t, NSBased)
	if _, err := s.Map(Request{LDNS: netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestScopeNeverExceedsSource(t *testing.T) {
	// RFC 7871: answering with scope longer than the query's source
	// prefix would leak granularity the resolver cannot cache.
	s := newSystem(t, EndUser)
	b := publicBlock(t)
	p20, _ := b.Prefix.Addr().Prefix(20)
	resp, err := s.Map(Request{Domain: "d.net", LDNS: b.LDNS.Addr, ClientSubnet: p20})
	if err != nil {
		t.Fatal(err)
	}
	if int(resp.ScopePrefix) > 20 {
		t.Errorf("scope /%d exceeds source /20", resp.ScopePrefix)
	}
}

func TestCoarseUnitsCoarseScope(t *testing.T) {
	s := NewSystem(testW, testP, testNet, Config{
		Policy: EndUser, Units: PrefixUnits{X: 20}, PingTargets: 500,
	})
	b := publicBlock(t)
	resp, err := s.Map(Request{Domain: "d.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ScopePrefix != 20 {
		t.Errorf("scope = %d, want 20 for /20 units", resp.ScopePrefix)
	}
}

func TestSameDomainSameServers(t *testing.T) {
	// Local LB cache locality: repeated requests for one domain from the
	// same unit must hit the same servers.
	s := newSystem(t, EndUser)
	b := publicBlock(t)
	req := Request{Domain: "popular.cdn.example.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix}
	r1, err := s.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Servers[0].ID != r2.Servers[0].ID {
		t.Error("same domain mapped to different primary servers")
	}
}

func TestDifferentDomainsSpreadServers(t *testing.T) {
	s := newSystem(t, NSBased)
	b := publicBlock(t)
	seen := map[uint64]bool{}
	for _, dom := range []string{"a.net", "b.net", "c.net", "d.net", "e.net", "f.net", "g.net", "h.net"} {
		r, err := s.Map(Request{Domain: dom, LDNS: b.LDNS.Addr})
		if err != nil {
			t.Fatal(err)
		}
		seen[r.Servers[0].ID] = true
	}
	if len(seen) < 2 {
		t.Error("8 domains all hashed to one server")
	}
}

func TestLivenessRespected(t *testing.T) {
	s := newSystem(t, NSBased)
	b := publicBlock(t)
	r1, err := s.Map(Request{Domain: "live.net", LDNS: b.LDNS.Addr})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the chosen deployment entirely; the system must pick another.
	for _, srv := range r1.Deployment.Servers {
		srv.SetAlive(false)
	}
	defer func() {
		for _, srv := range r1.Deployment.Servers {
			srv.SetAlive(true)
		}
	}()
	r2, err := s.Map(Request{Domain: "live.net", LDNS: b.LDNS.Addr})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Deployment.ID == r1.Deployment.ID {
		t.Error("mapping returned a dead deployment")
	}
	for _, srv := range r2.Servers {
		if !srv.Alive() {
			t.Error("mapping returned a dead server")
		}
	}
}

func TestCapacitySpill(t *testing.T) {
	s := newSystem(t, NSBased)
	b := publicBlock(t)
	r1, err := s.Map(Request{Domain: "x.net", LDNS: b.LDNS.Addr})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the chosen deployment.
	for _, srv := range r1.Deployment.Servers {
		srv.AddLoad(srv.Capacity() * 2)
	}
	defer testP.ResetLoad()
	r2, err := s.Map(Request{Domain: "x.net", LDNS: b.LDNS.Addr, Demand: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Deployment.ID == r1.Deployment.ID {
		t.Error("global LB did not spill away from a saturated deployment")
	}
}

func TestDemandAccounting(t *testing.T) {
	s := newSystem(t, NSBased)
	b := publicBlock(t)
	testP.ResetLoad()
	r, err := s.Map(Request{Domain: "load.net", LDNS: b.LDNS.Addr, Demand: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Servers[0].Load(); got != 0.5 {
		t.Errorf("primary server load = %v, want 0.5", got)
	}
	testP.ResetLoad()
}

func TestTTLDefault(t *testing.T) {
	s := newSystem(t, NSBased)
	if s.TTL() != 20*time.Second {
		t.Errorf("TTL = %v, want 20s", s.TTL())
	}
	b := publicBlock(t)
	r, err := s.Map(Request{Domain: "ttl.net", LDNS: b.LDNS.Addr})
	if err != nil {
		t.Fatal(err)
	}
	if r.TTL != 20*time.Second {
		t.Errorf("response TTL = %v", r.TTL)
	}
}

func TestSetPolicy(t *testing.T) {
	s := newSystem(t, NSBased)
	if s.Policy() != NSBased {
		t.Fatal("initial policy wrong")
	}
	s.SetPolicy(EndUser)
	if s.Policy() != EndUser {
		t.Fatal("SetPolicy failed")
	}
	if NSBased.String() != "NS" || EndUser.String() != "EU" || ClientAwareNS.String() != "CANS" {
		t.Error("policy names wrong")
	}
}

func TestLookupHelpers(t *testing.T) {
	s := newSystem(t, NSBased)
	sn := s.Current()
	b := testW.Blocks[0]
	same := func(g, w Row) bool { return slices.Equal(g.Head, w.Head) && slices.Equal(g.Tail, w.Tail) }
	ldnsParts, blockParts := assigned(s.builder)
	if got, ok := sn.ClientRow(netip.PrefixFrom(b.Prefix.Addr().Next(), 32)); !ok || !same(got, sn.row(blockParts[0])) {
		t.Error("ClientRow failed for an in-block address")
	}
	if got, ok := sn.ClientRow(netip.MustParsePrefix("255.255.255.1/32")); ok || !same(got, sn.fallbackRow(true)) {
		t.Error("ClientRow found a nonexistent block")
	}
	if got, ok := sn.ResolverRow(b.LDNS.Addr); !ok || !same(got, sn.row(ldnsParts[slices.Index(testW.LDNSes, b.LDNS)])) {
		t.Error("ResolverRow failed")
	}
	if got := s.LDNSEndpoint(b.LDNS.Addr); got != b.LDNS.Endpoint() {
		t.Errorf("LDNSEndpoint = %+v, want the world LDNS %+v", got, b.LDNS.Endpoint())
	}
}

// TestUnknownResolversShareOneEndpoint: every resolver address the map does
// not know is scored as the builder's one fallback resolver, so a flood of
// queries from distinct unknown (say spoofed) sources adds at most one
// entry to the scorer's nearest-target memo instead of one per address.
// A rewound system, which holds no world, scores every address that way.
func TestUnknownResolversShareOneEndpoint(t *testing.T) {
	s := newSystem(t, NSBased)
	fallback, _ := fallbackEndpoints(s.cfg.FallbackLoc)
	a, b := netip.MustParseAddr("198.51.100.9"), netip.MustParseAddr("2001:db8::53")
	if ea, eb := s.LDNSEndpoint(a), s.LDNSEndpoint(b); ea != fallback || eb != fallback {
		t.Fatalf("unknown resolvers scored as %+v and %+v, want the fallback resolver %+v", ea, eb, fallback)
	}
	memo := func() int {
		s.Scorer().mu.RLock()
		defer s.Scorer().mu.RUnlock()
		return len(s.Scorer().nearest)
	}
	before := memo()
	for i := 0; i < 20000; i++ {
		addr := netip.AddrFrom4([4]byte{198, 18 + byte(i>>16), byte(i >> 8), byte(i)})
		s.Scorer().Score(testP.Deployments[0], s.LDNSEndpoint(addr))
	}
	if grew := memo() - before; grew > 1 {
		t.Fatalf("scoring 20000 unknown resolvers added %d memo entries, want at most 1", grew)
	}

	l := testW.LDNSes[0]
	s.BootstrapReplica()
	if got := s.LDNSEndpoint(l.Addr); got != fallback {
		t.Fatalf("a rewound system scores world resolver %v as %+v, want the fallback resolver", l.Addr, got)
	}
}
