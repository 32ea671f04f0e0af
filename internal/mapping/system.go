// Package mapping implements the paper's primary contribution: the CDN
// mapping system that routes each DNS request to a proximal server cluster.
//
// It provides the two request-routing policies the paper's CDN deployed —
// traditional NS-based mapping (route by the LDNS) and end-user mapping
// (route by the EDNS0 client-subnet prefix) — together with the scoring
// layer built on ping-target measurements, the two-level (global + local)
// load balancer, and the map a name server answers from. A client's
// mapping unit, the finest grain an answer is decided at, is its /24 or
// /48 block (§5.1).
package mapping

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"eum/internal/cdn"
	"eum/internal/world"
)

// Policy selects how the mapping system identifies the client it is
// routing.
type Policy int

// The two request-routing policies a map serves.
const (
	// NSBased routes by the LDNS: the deployment with the least latency
	// to the resolver that sent the query (Equation 1).
	NSBased Policy = iota
	// EndUser routes by the client: the deployment with the least latency
	// to the client's IP block from the EDNS0 client-subnet option
	// (Equation 2) — the paper's contribution.
	EndUser
)

// String names the policy as in the paper.
func (p Policy) String() string {
	switch p {
	case NSBased:
		return "NS"
	case EndUser:
		return "EU"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config parameterises a mapping System.
type Config struct {
	// Policy is the request-routing policy. Default NSBased (the
	// traditional system; enable EndUser to roll out EU mapping).
	Policy Policy
	// TTL is the DNS answer TTL. The paper's CDN uses short TTLs so load
	// balancing reacts quickly; default 20s.
	TTL time.Duration
	// PingTargets bounds the scoring measurement set (§6 uses 8K);
	// 0 disables clustering.
	PingTargets int
	// PartitionMiles is the routing-aware partitioning threshold: client
	// blocks (and resolvers) whose routing signatures agree — same
	// quantized geo cell of this size, same origin AS, same access tier —
	// are clustered into one mapping partition sharing a single rank
	// table. 0 (the default) keeps identity partitioning: every endpoint
	// is its own partition, byte-identical to per-endpoint tables. Set it
	// (e.g. 50) for million-block worlds, where it cuts table and index
	// cost by orders of magnitude.
	PartitionMiles float64
	// BalanceFactor is the distance-vs-load balance knob β, applied where
	// the pick is made (see LoadBalancer.BalanceFactor): the first few live
	// head entries are re-ranked per query by ping·(1 + β·util²), so
	// demand moves off a busy deployment before it saturates. 0 (default)
	// keeps best-score-first with hard capacity spill. The published map
	// is the same at every β.
	BalanceFactor float64
}

// System is the mapping system: it answers "which servers should this
// client download from" for every DNS query the CDN's authoritative name
// servers receive. It is split into two planes:
//
//   - The data plane — Map / MapAt — is a pure reader of the currently
//     published Snapshot: one atomic pointer load per query, then lock-free
//     table lookups and a rendezvous-hash pick among the chosen deployment's
//     servers. It never scores, never takes a lock, never invalidates.
//   - The control plane — Rebuild / Install, normally driven by a
//     mapmaker.MapMaker — re-ranks what measurements refreshed and
//     publishes fresh epoch-numbered snapshots in the background.
type System struct {
	cfg      Config
	platform *cdn.Platform
	lb       *LoadBalancer
	// builder ranks the maps this node serves; a replica (NewReplica) has none.
	builder *SnapshotBuilder

	// rebuild serialises Rebuild, so each build follows the last one's install.
	rebuild sync.Mutex
	// snap is the currently published map. Installed by a single pointer
	// swap; non-nil from NewSystem / NewReplica on.
	snap atomic.Pointer[Snapshot]
	// publishedAt is the wall-clock instant (unix nanoseconds) of the last
	// successful Install. The serving plane's staleness watchdog reads it
	// to detect a stalled or dead control plane: a MapMaker whose builds
	// keep failing never advances it.
	publishedAt atomic.Int64
}

// NewSystem builds a mapping system over the given world and platform and
// publishes its first map before returning, so the data plane never
// computes anything on the hot path. The prober is typically the network
// model itself.
func NewSystem(w *world.World, p *cdn.Platform, net Prober, cfg Config) *System {
	cfg = withDefaults(cfg)
	s := bareSystem(p, cfg)
	s.builder = newSnapshotBuilder(w, NewScorer(w, p, net, cfg.PingTargets), cfg)
	s.Install(s.builder.Build(1, cfg.Policy))
	return s
}

// NewReplica builds a mapping system that installs maps instead of
// building them, serving sn — a snapshot decoded from a full image — on p,
// the platform decoded from the same image's roster (see
// mapwire.DecodeBoot). It holds the map, its index and the roster, and no
// world, scorer or builder: Rebuild and BootstrapReplica are for systems
// NewSystem made.
func NewReplica(p *cdn.Platform, sn *Snapshot, cfg Config) *System {
	s := bareSystem(p, withDefaults(cfg))
	s.Install(sn)
	return s
}

// withDefaults fills in the Config fields left zero.
func withDefaults(cfg Config) Config {
	if cfg.TTL == 0 {
		cfg.TTL = 20 * time.Second
	}
	return cfg
}

// bareSystem wires a system with no map installed and no builder yet.
func bareSystem(p *cdn.Platform, cfg Config) *System {
	s := &System{cfg: cfg, platform: p, lb: NewLoadBalancer()}
	s.lb.BalanceFactor = cfg.BalanceFactor
	return s
}

// Policy returns the routing policy of the currently published snapshot.
func (s *System) Policy() Policy { return s.Current().Policy() }

// Current returns the published snapshot the data plane is serving from.
// It is never nil.
func (s *System) Current() *Snapshot { return s.snap.Load() }

// Install publishes a snapshot unless it is no newer than the current one
// of the same lineage, reporting whether it was installed. Concurrent
// rebuilds may race; within a lineage the epoch order decides, so an older
// build can never clobber a newer map. A snapshot of another lineage — a
// replica's first fetch, or the first after its publisher restarted and
// began again at epoch 1 — replaces the current map whatever its epoch.
func (s *System) Install(sn *Snapshot) bool {
	for {
		cur := s.snap.Load()
		if cur != nil && cur.lineage == sn.lineage && cur.epoch >= sn.epoch {
			return false
		}
		if s.snap.CompareAndSwap(cur, sn) {
			s.publishedAt.Store(time.Now().UnixNano())
			return true
		}
	}
}

// PublishedAtNanos returns the wall-clock time (unix nanoseconds) the
// current snapshot was installed. Authorities derive map staleness from it
// (see authority.DegradeConfig): time since the last successful publish,
// regardless of how many builds failed in between.
func (s *System) PublishedAtNanos() int64 { return s.publishedAt.Load() }

// Rebuild builds a snapshot at the installed epoch plus one under the
// configured policy and installs it, unless an Install from elsewhere raced
// it. This is the control plane's one entry point: the MapMaker calls it on
// its cadence and after measurement refreshes; tests call it directly after
// mutating the platform.
func (s *System) Rebuild() *Snapshot {
	s.rebuild.Lock()
	defer s.rebuild.Unlock()
	sn := s.builder.Build(s.Current().Epoch()+1, s.cfg.Policy)
	s.Install(sn)
	return sn
}

// Builder exposes the snapshot builder (the control plane's compute
// stage); nil on a replica.
func (s *System) Builder() *SnapshotBuilder { return s.builder }

// Scorer exposes the scoring layer (for simulations and tests); nil on a
// replica.
func (s *System) Scorer() *Scorer {
	if s.builder == nil {
		return nil
	}
	return s.builder.Scorer()
}

// LoadBalancer exposes the load-balancing layer.
func (s *System) LoadBalancer() *LoadBalancer { return s.lb }

// TTL returns the configured answer TTL.
func (s *System) TTL() time.Duration { return s.cfg.TTL }

// Request is one mapping decision request, as extracted from a DNS query
// by an authoritative name server.
type Request struct {
	// Domain is the content domain being resolved.
	Domain string
	// LDNS is the resolver address the query came from.
	LDNS netip.Addr
	// ClientSubnet is the ECS prefix, if the query carried one.
	ClientSubnet netip.Prefix
	// Demand is the load this assignment will add (0 = don't track).
	Demand float64
	// Degraded asks for the snapshot's generic fallback tables instead of
	// the per-endpoint rank tables. The serving plane sets it when the map
	// is too stale to trust its per-client measurements (see
	// authority.DegradeFallback): the fallback tables rank purely from the
	// builder's fallback geography, the least perishable part of the map.
	Degraded bool
}

// Response is the mapping decision. It is small enough to pass by value,
// which MapInto does so that a caller's server scratch stays on its stack.
type Response struct {
	// Deployment is the chosen server cluster.
	Deployment *cdn.Deployment
	// Servers are the chosen servers' addresses (≥1, usually 2).
	Servers []*cdn.Server
	// ScopePrefix is the ECS scope the answer is valid for (0 when the
	// decision did not use the client subnet).
	ScopePrefix uint8
	// TTL is the answer TTL.
	TTL time.Duration
	// Epoch is the epoch of the snapshot the decision was read from.
	Epoch uint64
	// UsedClientSubnet reports whether the client subnet (rather than
	// the LDNS) determined the decision.
	UsedClientSubnet bool
}

// Map answers a mapping request against the currently published snapshot.
func (s *System) Map(req Request) (*Response, error) {
	return s.MapAt(s.snap.Load(), req)
}

// MapAt answers a mapping request against a specific snapshot (nil means
// the current one): MapInto with a decision and a server slice of the
// caller's own.
func (s *System) MapAt(sn *Snapshot, req Request) (*Response, error) {
	resp, err := s.MapInto(sn, req, make([]*cdn.Server, 0, ServersPerAnswer))
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// MapInto answers a mapping request against a specific snapshot (nil means
// the current one), appending the picked servers to scratch[:0] and
// returning the decision by value: a caller that passes ServersPerAnswer
// of scratch from its stack decides without a heap allocation. It is the
// data plane: a pure reader — the candidate row (the endpoint's own head,
// its region's tail) comes precomputed from the snapshot, liveness and
// load are read per server at pick time, and nothing on this path scores,
// locks, allocates or invalidates. Callers that must keep a set of
// decisions mutually consistent (a deterministic simulation day, a wire
// answer checked against its oracle) pin one snapshot and pass it for
// every request.
func (s *System) MapInto(sn *Snapshot, req Request, scratch []*cdn.Server) (Response, error) {
	if req.Domain == "" {
		return Response{}, fmt.Errorf("mapping: empty domain")
	}
	if sn == nil {
		sn = s.snap.Load()
	}
	resp := Response{TTL: sn.ttl, Epoch: sn.epoch}

	// Decide the candidate list for the endpoint whose latency the
	// snapshot's policy optimises.
	var candidates Row
	switch {
	case req.Degraded:
		// Too-stale map: per-endpoint tables are distrusted, serve from the
		// generic fallback table. The decision no longer depends on the
		// client subnet, so the scope stays 0.
		candidates = sn.fallbackRow(sn.policy == EndUser && req.ClientSubnet.IsValid())
	case sn.policy == EndUser && req.ClientSubnet.IsValid():
		// A query coarser than its mapping unit — a truncated ECS source
		// from a privacy-limiting resolver — is searched whole: the unit
		// around its base address may hold no block even when sibling
		// leaves inside the coarse prefix do. Falling through to the
		// generic fallback there would answer with scope 0, which the
		// resolver files in its subnet-blind cache, shadowing answers for
		// every client it serves.
		unit := unitOf(req.ClientSubnet.Addr())
		scope := uint8(unit.Bits())
		if req.ClientSubnet.Bits() < unit.Bits() {
			unit = req.ClientSubnet
		}
		var known bool
		// Not covered — unknown to the index, or any prefix on a boot map
		// — answers from the client fallback row at scope 0 like any
		// other fallback answer.
		if candidates, known = sn.ClientRow(unit); known {
			resp.UsedClientSubnet = true
			// Answer scope: the mapping unit's width for this address
			// family, never more specific than what the query revealed
			// (RFC 7871 §7.2.1 privacy: y <= x).
			resp.ScopePrefix = min(scope, uint8(req.ClientSubnet.Bits()))
		}
	default:
		candidates, _ = sn.ResolverRow(req.LDNS)
	}

	d, err := s.lb.PickDeployment(s.platform.Deployments, candidates, req.Demand)
	if err != nil {
		return Response{}, err
	}
	servers, err := s.lb.appendServers(scratch, d, req.Domain, req.Demand)
	if err != nil {
		return Response{}, err
	}
	resp.Deployment = d
	resp.Servers = servers
	return resp, nil
}

// IndexBytes returns the resident size of the current map's index; with
// Snapshot.MemoryBytes, which leaves it out, it is the scale guard's
// bytes-per-block accounting.
func (s *System) IndexBytes() uint64 { return s.Current().lay.Index.memoryBytes() }
