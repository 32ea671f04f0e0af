// Package layers is the one place the benchmark touches eum/internal.
//
// Later changes may not edit the benchmark, so every symbol used here is a
// symbol those changes must keep. The complete list:
//
//	world.MustGenerate, world.Config, world.ClientBlock{Prefix,Demand,Endpoint}
//	cdn.MustGenerateUniverse, cdn.Config, Platform.Deployments[].Servers[].Addr
//	netmodel.NewDefault
//	mapping.NewSystem, mapping.Config, mapping.EndUser, mapping.Request, Response.Servers
//	System.{Current,Rebuild,Builder,Scorer,MapAt,IndexBytes,BootstrapReplica,Install}
//	SnapshotBuilder.MarkMeasurementsDirty, Scorer.TargetFor
//	Snapshot.{Epoch,LayoutFingerprint,MemoryBytes,Tables,Partitions}
//	mapmaker.New, MapMaker.{NotifyMeasurement,Sync,Publish,SetOnPublish}
//	mapdist.NewPublisher, Publisher.{Observe,ServeHTTP}, mapdist.NewFetcher,
//	Fetcher.FetchOnce, mapdist.SnapshotPath
//	mapwire.NewCodec, Codec.{EncodeFull,EncodeDelta,Decode}
//	authority.New, Authority.ServeDNS
//	dnsserver.ListenConfig, dnsserver.HandlerFunc, Server.{Addr,Serve,Close}
//	dnsmsg.Message{Reply}, dnsmsg.UnpackInto, Message.AppendPack
//
// Everything else in the benchmark drives the product through its binary,
// its config file, DNS over UDP and the admin HTTP endpoints.
package layers

import (
	"context"
	"net/http"
	"net/netip"
	"time"

	"eum/bench/internal/gen"
	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapdist"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// Zone is the zone every workload queries under; it is eumdns's default.
const Zone = "cdn.example.net"

// SnapshotPath is the publisher's route on the admin plane.
const SnapshotPath = mapdist.SnapshotPath

// resolver is the LDNS address the server sees for loopback traffic.
var resolver = netip.MustParseAddr("127.0.0.1")

// Spec sizes one universe. It mirrors the fields of eumdns's config file
// the benchmark sets, so the harness and the server generate the same one.
type Spec struct {
	Seed           int64
	Blocks         int
	Deployments    int
	PartitionMiles float64
}

// Universe is a generated world and platform.
type Universe struct {
	spec     Spec
	world    *world.World
	platform *cdn.Platform
}

// Generate builds the world and the platform exactly as eumdns does from
// the same spec, and reports how long each took.
func Generate(spec Spec) (u *Universe, worldTime, cdnTime time.Duration) {
	t0 := time.Now()
	w := world.MustGenerate(world.Config{Seed: spec.Seed, NumBlocks: spec.Blocks})
	t1 := time.Now()
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: spec.Seed, NumDeployments: spec.Deployments})
	return &Universe{spec: spec, world: w, platform: p}, t1.Sub(t0), time.Since(t1)
}

// Blocks lists the world's client blocks in the form the query generator
// draws from.
func (u *Universe) Blocks() []gen.Block {
	out := make([]gen.Block, len(u.world.Blocks))
	for i, b := range u.world.Blocks {
		out[i] = gen.Block{Prefix: b.Prefix, Demand: b.Demand}
	}
	return out
}

// ServerAddrs is the set of addresses the platform owns: any A record the
// server returns must be one of them.
func (u *Universe) ServerAddrs() map[netip.Addr]struct{} {
	out := make(map[netip.Addr]struct{})
	for _, d := range u.platform.Deployments {
		for _, s := range d.Servers {
			out[s.Addr] = struct{}{}
		}
	}
	return out
}

// System is a mapping system over a universe.
type System struct {
	u   *Universe
	sys *mapping.System
}

// Snapshot is one published map.
type Snapshot struct{ sn *mapping.Snapshot }

// Epoch returns the snapshot's epoch.
func (s Snapshot) Epoch() uint64 { return s.sn.Epoch() }

// LayoutFingerprint identifies the partition layout a delta must match; a
// replica sends it with every fetch.
func (s Snapshot) LayoutFingerprint() uint64 { return s.sn.LayoutFingerprint() }

// NewSystem builds a mapping system (and its first map) with the settings
// eumdns derives from the same spec.
func (u *Universe) NewSystem() *System {
	sys := mapping.NewSystem(u.world, u.platform, netmodel.NewDefault(), mapping.Config{
		Policy:         mapping.EndUser,
		PingTargets:    u.spec.Blocks / 10,
		PartitionMiles: u.spec.PartitionMiles,
	})
	return &System{u: u, sys: sys}
}

// Current returns the installed snapshot.
func (s *System) Current() Snapshot { return Snapshot{s.sys.Current()} }

// FullBuild invalidates every measurement and rebuilds the whole map.
func (s *System) FullBuild() Snapshot {
	s.sys.Builder().MarkMeasurementsDirty()
	return Snapshot{s.sys.Rebuild()}
}

// IncrementalBuild re-ranks the tables one ping target backs and rebuilds,
// with no MapMaker around the build.
func (s *System) IncrementalBuild(target uint64) Snapshot {
	s.sys.Builder().MarkMeasurementsDirty(target)
	return Snapshot{s.sys.Rebuild()}
}

// BootstrapReplica rewinds the system to epoch 0 so a fetched map installs.
func (s *System) BootstrapReplica() { s.sys.BootstrapReplica() }

// Install installs a decoded snapshot.
func (s *System) Install(sn Snapshot) bool { return s.sys.Install(sn.sn) }

// Answer is the mapping plane's own answer for a query arriving over
// loopback: the addresses the wire answer must carry.
func (s *System) Answer(sn Snapshot, domain string, subnet netip.Prefix) ([]netip.Addr, error) {
	resp, err := s.sys.MapAt(sn.sn, mapping.Request{Domain: domain, LDNS: resolver, ClientSubnet: subnet})
	if err != nil {
		return nil, err
	}
	addrs := make([]netip.Addr, len(resp.Servers))
	for i, srv := range resp.Servers {
		addrs[i] = srv.Addr
	}
	return addrs, nil
}

// MapAt runs one mapping decision and discards it (the mapping.mapat probe).
func (s *System) MapAt(sn Snapshot, domain string, subnet netip.Prefix) error {
	_, err := s.sys.MapAt(sn.sn, mapping.Request{Domain: domain, LDNS: resolver, ClientSubnet: subnet})
	return err
}

// Shape reports the installed map's size.
type Shape struct {
	Tables, Partitions        int
	SnapshotBytes, IndexBytes uint64
}

// Shape returns the installed map's table counts and resident bytes.
func (s *System) Shape() Shape {
	sn := s.sys.Current()
	return Shape{
		Tables: sn.Tables(), Partitions: sn.Partitions(),
		SnapshotBytes: sn.MemoryBytes(), IndexBytes: s.sys.IndexBytes(),
	}
}

// PingTargets returns the distinct ping-target IDs standing in for the
// world's blocks, in block order: the IDs a measurement refresh names.
func (s *System) PingTargets(max int) []uint64 {
	var ids []uint64
	seen := make(map[uint64]bool)
	for _, b := range s.u.world.Blocks {
		ep, ok := s.sys.Scorer().TargetFor(b.Endpoint())
		if !ok || seen[ep.ID] {
			continue
		}
		seen[ep.ID] = true
		if ids = append(ids, ep.ID); len(ids) == max {
			break
		}
	}
	return ids
}

// MapMaker publishes maps for a system.
type MapMaker struct{ mm *mapmaker.MapMaker }

// NewMapMaker wraps a system in a MapMaker whose Run loop is never started:
// the harness drives every publish itself.
func NewMapMaker(s *System) *MapMaker {
	return &MapMaker{mapmaker.New(s.sys, mapmaker.Config{})}
}

// NotifyMeasurement marks ping targets dirty.
func (m *MapMaker) NotifyMeasurement(ids ...uint64) { m.mm.NotifyMeasurement(ids...) }

// Sync publishes if anything is dirty.
func (m *MapMaker) Sync() Snapshot { return Snapshot{m.mm.Sync()} }

// Publish publishes unconditionally (a warm republish when nothing is dirty).
func (m *MapMaker) Publish() Snapshot { return Snapshot{m.mm.Publish()} }

// Publisher serves a system's snapshots to replicas.
type Publisher struct{ pub *mapdist.Publisher }

// NewPublisher builds a publisher and feeds it every map mm publishes.
func NewPublisher(s *System, mm *MapMaker) *Publisher {
	pub := mapdist.NewPublisher(s.sys, s.u.platform, mapdist.PublisherConfig{})
	mm.mm.SetOnPublish(pub.Observe)
	return &Publisher{pub}
}

// ServeHTTP serves one snapshot fetch.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.pub.ServeHTTP(w, r) }

// Fetcher pulls snapshots from a publisher into a replica system.
type Fetcher struct{ f *mapdist.Fetcher }

// NewFetcher builds a fetcher installing into s from the publisher at source.
func NewFetcher(s *System, source string) (*Fetcher, error) {
	f, err := mapdist.NewFetcher(s.sys, s.u.platform, mapdist.FetcherConfig{Source: source, Interval: time.Minute})
	if err != nil {
		return nil, err
	}
	return &Fetcher{f}, nil
}

// FetchOnce runs one fetch, decode and install.
func (f *Fetcher) FetchOnce(ctx context.Context) error { return f.f.FetchOnce(ctx) }

// Codec encodes and decodes snapshots for one universe.
type Codec struct{ c *mapwire.Codec }

// NewCodec builds a codec for the universe's platform.
func (u *Universe) NewCodec() Codec { return Codec{mapwire.NewCodec(u.platform)} }

// EncodeFull encodes a full image.
func (c Codec) EncodeFull(sn Snapshot) ([]byte, error) { return c.c.EncodeFull(sn.sn) }

// EncodeDelta encodes the segments that differ between prev and next. ok is
// false when no delta exists and the publisher would ship a full image (the
// builder compacted its arenas, so next shares no segment with prev).
func (c Codec) EncodeDelta(prev, next Snapshot) (data []byte, ok bool, err error) {
	return c.c.EncodeDelta(prev.sn, next.sn)
}

// Decode decodes an image against the snapshot it patches.
func (c Codec) Decode(data []byte, prev Snapshot) (Snapshot, error) {
	sn, err := c.c.Decode(data, prev.sn)
	return Snapshot{sn}, err
}

// Message is a reusable DNS message.
type Message struct{ m dnsmsg.Message }

// Unpack decodes wire into m.
func (m *Message) Unpack(wire []byte) error { return dnsmsg.UnpackInto(&m.m, wire) }

// Response is a DNS response ready to pack.
type Response struct{ m *dnsmsg.Message }

// Pack encodes the response into buf[:0].
func (r Response) Pack(buf []byte) ([]byte, error) { return r.m.AppendPack(buf[:0]) }

// Authority answers queries from a system, as eumdns's handler does.
type Authority struct{ a *authority.Authority }

// NewAuthority builds the authority for Zone over s.
func NewAuthority(s *System) (*Authority, error) {
	a, err := authority.New(Zone, s.sys)
	if err != nil {
		return nil, err
	}
	return &Authority{a}, nil
}

// Serve answers one query from the loopback resolver.
func (a *Authority) Serve(q *Message) Response {
	return Response{a.a.ServeDNS(netip.AddrPortFrom(resolver, 53), &q.m)}
}

// NullServer is a dnsserver whose handler only echoes an empty reply: the
// cost of receiving, parsing, packing and sending, with no mapping work.
type NullServer struct{ srv *dnsserver.Server }

// ListenNull starts a null server on addr with the product's default
// serving configuration.
func ListenNull(addr string) (*NullServer, error) {
	h := dnsserver.HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message { return q.Reply() })
	srv, err := dnsserver.ListenConfig(addr, h, dnsserver.Config{})
	if err != nil {
		return nil, err
	}
	return &NullServer{srv}, nil
}

// Addr returns the UDP address the server listens on.
func (n *NullServer) Addr() string { return n.srv.Addr().String() }

// Serve blocks serving until Close.
func (n *NullServer) Serve() error { return n.srv.Serve() }

// Close stops the server.
func (n *NullServer) Close() error { return n.srv.Close() }
