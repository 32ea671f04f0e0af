package mapping

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
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

// depOf resolves a deployment index against the test platform.
func depOf[I uint16 | uint32](i I) *cdn.Deployment { return testP.Deployments[i] }

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

// assigned returns the tables the builder's layout gives the world's
// LDNSes and blocks, in world order: the table of each one's partition.
func assigned(b *SnapshotBuilder) (ldnses, blocks []int32) {
	_, _, _, assign := b.partition()
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

// TestCANSBetweenNSAndEU: §6's client-aware NS mapping, which no map
// serves, sends each LDNS's clients to the deployment BestWeighted finds
// for the LDNS's whole client cluster. Over the same blocks its
// demand-weighted mean mapping distance sits between EU's and NS's.
func TestCANSBetweenNSAndEU(t *testing.T) {
	ns := newSystem(t, NSBased)
	eu := newSystem(t, EndUser)
	cans := map[*world.LDNS]*cdn.Deployment{}
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
		}{{ns, &nsD, netip.Prefix{}}, {eu, &euD, b.Prefix}} {
			r, err := tc.sys.Map(Request{Domain: "d.net", LDNS: b.LDNS.Addr, ClientSubnet: tc.ecs})
			if err != nil {
				t.Fatal(err)
			}
			tc.ds.Add(geo.Distance(r.Deployment.Loc, b.Loc), b.Demand)
		}
		d, ok := cans[b.LDNS]
		if !ok {
			eps := make([]netmodel.Endpoint, len(b.LDNS.Blocks))
			weights := make([]float64, len(b.LDNS.Blocks))
			for i, c := range b.LDNS.Blocks {
				eps[i], weights[i] = c.Endpoint(), c.Demand
			}
			win, _ := ns.Scorer().BestWeighted(eps, weights)
			if win < 0 {
				t.Fatalf("LDNS %v: no weighted best over its %d blocks", b.LDNS.Addr, len(b.LDNS.Blocks))
			}
			d = testP.Deployments[win]
			cans[b.LDNS] = d
		}
		cansD.Add(geo.Distance(d.Loc, b.Loc), b.Demand)
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

// TestPolicyOfInstalledSnapshot: the policy is part of the map, so the
// system serves under the policy of whatever snapshot is installed.
func TestPolicyOfInstalledSnapshot(t *testing.T) {
	s := newSystem(t, NSBased)
	if s.Policy() != NSBased {
		t.Fatal("initial policy wrong")
	}
	s.Install(s.Builder().Build(s.Current().Epoch()+1, EndUser))
	if s.Policy() != EndUser {
		t.Fatal("installing an EU snapshot left the policy at NS")
	}
	if NSBased.String() != "NS" || EndUser.String() != "EU" {
		t.Error("policy names wrong")
	}
}

func TestLookupHelpers(t *testing.T) {
	s := newSystem(t, NSBased)
	sn := s.Current()
	b := testW.Blocks[0]
	same := func(g, w Row) bool { return slices.Equal(g.Head, w.Head) && slices.Equal(g.Tail, w.Tail) }
	ldnsTables, blockTables := assigned(s.builder)
	if got, ok := sn.ClientRow(netip.PrefixFrom(b.Prefix.Addr().Next(), 32)); !ok || !same(got, sn.row(blockTables[0])) {
		t.Error("ClientRow failed for an in-block address")
	}
	if got, ok := sn.ClientRow(netip.MustParsePrefix("255.255.255.1/32")); ok || !same(got, sn.fallbackRow(true)) {
		t.Error("ClientRow found a nonexistent block")
	}
	if got, ok := sn.ResolverRow(b.LDNS.Addr); !ok || !same(got, sn.row(ldnsTables[slices.Index(testW.LDNSes, b.LDNS)])) {
		t.Error("ResolverRow failed")
	}
}

// lab is a world, its platform and the network between them.
type lab struct {
	World    *world.World
	Platform *cdn.Platform
	Net      *netmodel.Model
}

// smallWorld is the figures' Small lab world — seed 1, 4 000 blocks —
// built on first use.
var smallWorld = sync.OnceValue(func() *world.World {
	return world.MustGenerate(world.Config{Seed: 1, NumBlocks: 4000})
})

// coldWideLab is the cold_wide benchmark's universe — seed 1, 50 000
// blocks, 600 deployments — built on first use, for BenchmarkMappingMap.
var coldWideLab = sync.OnceValue(func() lab {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 50000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 600})
	return lab{World: w, Platform: p, Net: netmodel.NewDefault()}
})

// BenchmarkMappingMap times the map's answer as the server asks for it, on
// cold_wide's map (5 000 ping targets, 50-mile partitions): MapInto
// against the installed snapshot, the servers picked into a scratch array
// on the stack. Each operation asks for the next of every IPv4 block's
// subnet in a fixed shuffled order, so the index is searched across all
// its keys, as cold_wide's queries search it, and not for one key whose
// path the caches keep. At beta=0 the pick walks the order alone; at
// beta=2 it weighs the first live head entries by their stored scores and
// load, with every deployment half loaded. The ecs=/20 case asks with each
// block's /20, a truncated ECS source the index answers by finding the
// highest-demand leaf inside it.
func BenchmarkMappingMap(b *testing.B) {
	l := coldWideLab()
	for _, bc := range []struct {
		name string
		beta float64
		bits int
	}{{"beta=0", 0, 24}, {"beta=2", 2, 24}, {"ecs=/20", 0, 20}} {
		b.Run(bc.name, func(b *testing.B) {
			sys := NewSystem(l.World, l.Platform, l.Net, Config{
				Policy: EndUser, PingTargets: 5000, PartitionMiles: 50, BalanceFactor: bc.beta,
			})
			if bc.beta > 0 {
				for _, d := range l.Platform.Deployments {
					for _, s := range d.Servers {
						s.AddLoad(s.Capacity() / 2)
					}
				}
				defer l.Platform.ResetLoad()
			}
			var reqs []Request
			for _, blk := range l.World.Blocks {
				if !blk.Prefix.Addr().Is4() {
					continue
				}
				subnet, err := blk.Prefix.Addr().Prefix(bc.bits)
				if err != nil {
					b.Fatal(err)
				}
				reqs = append(reqs, Request{Domain: "bench.net", LDNS: blk.LDNS.Addr, ClientSubnet: subnet})
			}
			if len(reqs) == 0 {
				b.Fatal("the lab has no IPv4 block")
			}
			rand.New(rand.NewPCG(1, 2)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var scratch [ServersPerAnswer]*cdn.Server
				if _, err := sys.MapInto(nil, reqs[i%len(reqs)], scratch[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
