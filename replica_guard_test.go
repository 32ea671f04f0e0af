package bench

import (
	"bytes"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// bootReplica builds a world-free replica from a full image, as eumdns does
// with the first image it fetches.
func bootReplica(t *testing.T, image []byte, cfg mapping.Config) (*mapwire.Codec, *mapping.System) {
	t.Helper()
	c, sn, err := mapwire.DecodeBoot(bytes.NewReader(image), int64(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	return c, mapping.NewReplica(c.Platform(), sn, cfg)
}

// TestReplicaBootBuildsNothing pins the replica's life cycle: built from
// its publisher's full image alone, it has no builder and no scorer to
// rank with, and after installing the publisher's next epoch it ranks
// every block's prefix and every resolver's address bitwise-identically to
// how the publisher ranks their endpoints, and answers /20-truncated
// queries as the publisher does. The epoch-0 boot map a system rewound to
// replica state serves answers from the client fallback table at scope 0.
func TestReplicaBootBuildsNothing(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 4000, IPv6Fraction: 0.1})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 17, NumDeployments: 150, ServersPerDeployment: 4})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 400, PartitionMiles: 50}
	net := netmodel.NewDefault()
	pub := mapping.NewSystem(w, p, net, cfg)

	// The rewind: epoch 0, nothing but the fallback tables, scope 0.
	rewound := mapping.NewSystem(w, p, net, cfg)
	rewound.BootstrapReplica()
	boot := rewound.Current()
	if boot.Epoch() != 0 || boot.Partitions() != 0 || boot.Tables() > 2 {
		t.Fatalf("boot map: epoch %d, %d partitions, %d tables; want epoch 0 and only the fallback tables",
			boot.Epoch(), boot.Partitions(), boot.Tables())
	}
	unknown := netip.MustParsePrefix("255.255.255.0/24")
	for i := 0; i < len(w.Blocks); i += 97 {
		b := w.Blocks[i]
		resp, err := rewound.Map(mapping.Request{Domain: "boot.example.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ScopePrefix != 0 || resp.UsedClientSubnet || resp.Epoch != 0 {
			t.Fatalf("epoch-0 answer for %v: scope /%d, used subnet %v, epoch %d",
				b.Prefix, resp.ScopePrefix, resp.UsedClientSubnet, resp.Epoch)
		}
		fallback, _ := boot.ClientRow(unknown)
		if want, _ := boot.FirstLive(fallback); resp.Deployment != want {
			t.Fatalf("epoch-0 answer for %v is %s, the client fallback table says %s",
				b.Prefix, resp.Deployment.Name, want.Name)
		}
	}

	codec := mapwire.NewCodec(p)
	image, err := codec.EncodeFull(pub.Current())
	if err != nil {
		t.Fatal(err)
	}
	repCodec, rep := bootReplica(t, image, cfg)
	if rep.Builder() != nil || rep.Scorer() != nil {
		t.Fatal("a replica has a builder or a scorer")
	}
	target, ok := pub.Scorer().TargetFor(w.Blocks[0].Endpoint())
	if !ok {
		t.Fatal("no ping target for block 0")
	}
	prev := pub.Current()
	pub.Builder().MarkMeasurementsDirty(target.ID)
	pub.Rebuild()
	delta, ok, err := codec.EncodeDelta(prev, pub.Current())
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	decoded, err := repCodec.Decode(delta, rep.Current())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Install(decoded) {
		t.Fatal("the publisher's next epoch did not install")
	}

	got, want := rep.Current(), pub.Current()
	same := func(g, w mapping.Row) bool { return slices.Equal(g.Head, w.Head) && slices.Equal(g.Tail, w.Tail) }
	for _, b := range w.Blocks {
		w, _ := want.ClientRow(b.Prefix)
		if g, ok := got.ClientRow(b.Prefix); !ok || !same(g, w) {
			t.Fatalf("block %v ranks differently on the replica", b.Prefix)
		}
	}
	for _, l := range w.LDNSes {
		w, _ := want.ResolverRow(l.Addr)
		if g, ok := got.ResolverRow(l.Addr); !ok || !same(g, w) {
			t.Fatalf("LDNS %v ranks differently on the replica", l.Addr)
		}
	}
	// Truncated ECS resolves through the index's range scan, not an
	// endpoint ID, so compare whole decisions.
	truncated := 0
	for i := 0; i < len(w.Blocks); i += 41 {
		b := w.Blocks[i]
		if !b.Prefix.Addr().Is4() {
			continue
		}
		req := mapping.Request{Domain: "wide.example.net", LDNS: b.LDNS.Addr,
			ClientSubnet: netip.PrefixFrom(b.Prefix.Addr(), 20).Masked()}
		g, err := rep.Map(req)
		if err != nil {
			t.Fatal(err)
		}
		wnt, err := pub.Map(req)
		if err != nil {
			t.Fatal(err)
		}
		if g.Deployment.ID != wnt.Deployment.ID || g.ScopePrefix != wnt.ScopePrefix || !sameServers(g.Servers, wnt.Servers) {
			t.Fatalf("%v: replica answers %s /%d, publisher %s /%d", req.ClientSubnet,
				g.Deployment.Name, g.ScopePrefix, wnt.Deployment.Name, wnt.ScopePrefix)
		}
		truncated++
	}
	if truncated == 0 {
		t.Fatal("no /20-truncated prefix sampled")
	}
}

// sameServers compares two answers' servers by identity and address: a
// replica's servers are its decoded roster's, not the publisher's objects.
func sameServers(a, b []*cdn.Server) bool {
	return slices.EqualFunc(a, b, func(x, y *cdn.Server) bool { return x.ID == y.ID && x.Addr == y.Addr })
}

// rosterBytes is the resident size of a decoded platform: its deployments,
// their names and server lists, and the servers.
func rosterBytes(p *cdn.Platform) uint64 {
	n := uint64(cap(p.Deployments)) * 8
	for _, d := range p.Deployments {
		n += uint64(unsafe.Sizeof(*d)) + uint64(len(d.Name)+len(d.Country)) +
			uint64(cap(d.Servers))*8 + uint64(len(d.Servers))*uint64(unsafe.Sizeof(cdn.Server{}))
	}
	return n
}

// TestReplicaHeapGuard holds a replica to what it serves: at the cold_wide
// benchmark's shape (50 000 blocks, 600 deployments, 50-mile partitions) a
// replica built from one full image must hold no more than its map, its
// index, its roster and the load balancer's rings (six bytes per virtual
// node), plus a tenth. A world, a scorer or a second copy of the map would
// each break it.
func TestReplicaHeapGuard(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 50000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 600})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 5000, PartitionMiles: 50}
	image, err := mapwire.NewCodec(p).EncodeFull(mapping.NewSystem(w, p, netmodel.NewDefault(), cfg).Current())
	if err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sweep uncovered
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap() // world, platform and image, all of which outlive the replica
	c, rep := bootReplica(t, image, cfg)
	held := heap() - before
	runtime.KeepAlive(image)

	snapshot, index, roster := rep.Current().MemoryBytes(), rep.IndexBytes(), rosterBytes(c.Platform())
	// The rings are one arena: 32 virtual nodes a server at 6 bytes a
	// point, and a 4-byte offset a deployment and one more.
	deps := c.Platform().Deployments
	rings := uint64(4 * (len(deps) + 1))
	for _, d := range deps {
		rings += uint64(len(d.Servers) * 32 * 6)
	}
	if got := rep.LoadBalancer().RingBytes(); got != rings {
		t.Fatalf("the load balancer reports %d bytes of rings; %d servers in %d deployments take %d", got, c.Platform().NumServers(), len(deps), rings)
	}
	t.Logf("replica holds %.2f MB: a %.2f MB map, a %.2f MB index, a %.2f MB roster, %.2f MB of rings for %d points (%.1f B/block in map and index)",
		float64(held)/1e6, float64(snapshot)/1e6, float64(index)/1e6, float64(roster)/1e6, float64(rings)/1e6,
		c.Platform().NumServers()*32, float64(snapshot+index)/float64(len(w.Blocks)))
	if ceiling := snapshot + index + roster + rings; held > ceiling+ceiling/10 {
		t.Fatalf("a replica holds %d bytes; its map, index, roster and rings are %d", held, ceiling)
	}
	runtime.KeepAlive(rep)
	runtime.KeepAlive(w)
	runtime.KeepAlive(p)
}
