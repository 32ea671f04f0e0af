package bench

import (
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// TestReplicaBootBuildsNothing pins the replica's life cycle: it boots
// without ranking a map, answers from the shared fallback tables at scope 0
// while it sits at epoch 0, and once a decoded full image is installed it
// ranks bitwise-identically to the publisher — having still built nothing.
func TestReplicaBootBuildsNothing(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 4000, IPv6Fraction: 0.1})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 17, NumDeployments: 150, ServersPerDeployment: 4})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 400, PartitionMiles: 50}
	net := netmodel.NewDefault()
	pub := mapping.NewSystem(w, p, net, cfg)
	rep := mapping.NewReplica(w, p, net, cfg)

	built := func(when string) {
		t.Helper()
		if st := rep.Builder().BuildStats(); st != (mapping.BuildStats{}) {
			t.Fatalf("%s: replica built: %+v", when, st)
		}
	}
	built("at boot")

	boot := rep.Current()
	if boot.Epoch() != 0 || boot.Partitions() != 0 || boot.Tables() > 2 {
		t.Fatalf("boot map: epoch %d, %d partitions, %d tables; want epoch 0 and only the fallback tables",
			boot.Epoch(), boot.Partitions(), boot.Tables())
	}
	const unknown = 1<<63 + 99
	for i := 0; i < len(w.Blocks); i += 97 {
		b := w.Blocks[i]
		resp, err := rep.Map(mapping.Request{Domain: "boot.example.net", LDNS: b.LDNS.Addr, ClientSubnet: b.Prefix})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ScopePrefix != 0 || resp.UsedClientSubnet || resp.Epoch != 0 {
			t.Fatalf("epoch-0 answer for %v: scope /%d, used subnet %v, epoch %d",
				b.Prefix, resp.ScopePrefix, resp.UsedClientSubnet, resp.Epoch)
		}
		if want, _ := boot.FirstLive(boot.RankOf(unknown, true)); resp.Deployment != want {
			t.Fatalf("epoch-0 answer for %v is %s, the client fallback table says %s",
				b.Prefix, resp.Deployment.Name, want.Name)
		}
	}

	codec := mapwire.NewCodec(p)
	image, err := codec.EncodeFull(pub.Current())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := codec.Decode(image, rep.Current())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Install(decoded) {
		t.Fatal("the publisher's first epoch did not install over the boot map")
	}
	built("after install")

	got, want := rep.Current(), pub.Current()
	for _, b := range w.Blocks {
		if g, w := got.RankOf(b.ID, true), want.RankOf(b.ID, true); !slices.Equal(g.Head, w.Head) || !slices.Equal(g.Tail, w.Tail) {
			t.Fatalf("block %v ranks differently on the replica", b.Prefix)
		}
	}
	for _, l := range w.LDNSes {
		if g, w := got.RankOf(l.ID, false), want.RankOf(l.ID, false); !slices.Equal(g.Head, w.Head) || !slices.Equal(g.Tail, w.Tail) {
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
		if g.Deployment != wnt.Deployment || g.ScopePrefix != wnt.ScopePrefix || !slices.Equal(g.Servers, wnt.Servers) {
			t.Fatalf("%v: replica answers %s /%d, publisher %s /%d", req.ClientSubnet,
				g.Deployment.Name, g.ScopePrefix, wnt.Deployment.Name, wnt.ScopePrefix)
		}
		truncated++
	}
	if truncated == 0 {
		t.Fatal("no /20-truncated prefix sampled")
	}
}

// TestReplicaHeapGuard holds an installed replica to one copy of its map:
// at the cold_wide benchmark's shape (50 000 blocks, 50-mile partitions)
// installing a decoded image must grow the heap by the snapshot's own
// accounted size plus a tenth and no more, and before the install the
// replica must hold nothing map-sized besides its lookup index and rings.
// With heads and shared tails the map is 3.75 MB of a 9.7 MB replica, so
// "twice the map" would no longer bound anything. The replica here gets
// into replica state the hard way, from a system that has built a map of
// its own: keeping that build, the scorer's tables or the wire image would
// hold two to three times the map.
func TestReplicaHeapGuard(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 50000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 600})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 5000, PartitionMiles: 50}
	codec := mapwire.NewCodec(p)
	image, err := codec.EncodeFull(mapping.NewSystem(w, p, netmodel.NewDefault(), cfg).Current())
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

	rep := mapping.NewSystem(w, p, netmodel.NewDefault(), cfg)
	rep.BootstrapReplica()
	booted := heap() - before
	decoded, err := codec.Decode(image, rep.Current())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Install(decoded) {
		t.Fatal("decoded image did not install")
	}
	held := heap() - before
	runtime.KeepAlive(image)

	snapshot := rep.Current().MemoryBytes()
	t.Logf("replica holds %.2f MB: %.2f MB before the install, a %.2f MB map (%.1f B/block with the %.2f MB index)",
		float64(held)/1e6, float64(booted)/1e6, float64(snapshot)/1e6,
		float64(snapshot+rep.IndexBytes())/float64(len(w.Blocks)), float64(rep.IndexBytes())/1e6)
	// Measured: the install adds 3.77 MB for a 3.75 MB snapshot.
	if grew := held - booted; grew > snapshot+snapshot/10 {
		t.Fatalf("installing a %d-byte map grew the replica by %d bytes", snapshot, grew)
	}
	// Before any install a replica holds its lookup index and the load
	// balancer's rings (two words per virtual node), neither of which is
	// map state. Whatever a local build left behind — its snapshot, layout
	// or scores — would be a whole map or more, so everything else gets
	// half of one (measured: 0.75 MB of 5.89 MB, against a 3.75 MB map).
	rings := 0
	for _, d := range p.Deployments {
		rings += len(d.Servers) * rep.LoadBalancer().VirtualNodes * 16
	}
	if ceiling := rep.IndexBytes() + uint64(rings) + snapshot/2; booted > ceiling {
		t.Fatalf("a replica holds %d bytes before any install, ceiling %d", booted, ceiling)
	}
	runtime.KeepAlive(rep)
}
