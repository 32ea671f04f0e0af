package mapping

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"eum/internal/cdn"
)

// LoadBalancer performs the two hierarchical assignment steps of §2.2:
// global load balancing picks a server cluster for each mapping unit
// (best score first, spilling to the next-best cluster when a cluster is
// at capacity or down), and local load balancing picks servers within the
// cluster using consistent hashing on the content domain, so requests for
// the same domain concentrate on few servers and cache hit rates stay high
// (the "likely to contain the requested content" consideration).
type LoadBalancer struct {
	// ServersPerAnswer is how many server IPs each DNS answer carries;
	// the paper returns "two or more" as a precaution against transient
	// failures. Default 2.
	ServersPerAnswer int
	// VirtualNodes is the number of ring positions per server. Default 32.
	VirtualNodes int
	// BalanceFactor is the distance-vs-load balance factor β. When
	// positive, the global choice is load-aware before hard saturation:
	// the first loadAwareWindow live head entries are re-ranked by
	// score x (1 + β x utilisation^2), shifting traffic off busy clusters
	// early at a small latency cost. Zero keeps the pure best-score-first
	// behaviour with hard capacity spill.
	BalanceFactor float64

	// prepared holds the consistent-hash rings built eagerly by Prepare
	// for every deployment of the served platform. Prepare fills it before
	// the balancer is shared and nothing writes it afterwards, so the
	// query hot path reads it with no lock.
	prepared map[uint64]*ring

	// tailPicks counts PickDeployment calls the head did not decide.
	tailPicks atomic.Uint64

	// rings lazily caches rings for deployments outside the prepared set
	// (foreign platforms, standalone use). Reads take the read lock;
	// rings are only built once per deployment, so writer contention is a
	// startup transient.
	mu    sync.RWMutex
	rings map[uint64]*ring // deployment ID -> server ring
}

// NewLoadBalancer returns a load balancer with default settings.
func NewLoadBalancer() *LoadBalancer {
	return &LoadBalancer{ServersPerAnswer: 2, VirtualNodes: 32, rings: map[uint64]*ring{}}
}

// Prepare eagerly builds the consistent-hash ring for every deployment of
// the platform, so the per-query path never takes the ring lock. Call it
// once, before the balancer is shared.
func (lb *LoadBalancer) Prepare(p *cdn.Platform) {
	lb.prepared = make(map[uint64]*ring, len(p.Deployments))
	for _, d := range p.Deployments {
		lb.prepared[d.ID] = newRing(d, lb.VirtualNodes)
	}
}

// PickDeployment walks candidates (the head, then the shared tail; each
// names its deployment by index into deps, the platform's deployment list)
// and returns the first live deployment that can absorb demand more load.
// Deployments at or over capacity are skipped unless every candidate is
// saturated, in which case the least-utilised live candidate is returned
// (serving degraded beats not serving, and spreading the overload across
// the candidate set beats piling it all on the nearest cluster).
// Utilisation ties keep the best-scored candidate. The tail ranks every
// deployment, so the walk fails only when none is alive; a pick the head
// alone could not decide is counted in TailPicks.
func (lb *LoadBalancer) PickDeployment(deps []*cdn.Deployment, candidates Row, demand float64) (*cdn.Deployment, error) {
	if lb.BalanceFactor > 0 {
		if d := lb.pickLoadAware(deps, candidates, demand); d != nil {
			return d, nil
		}
	}
	var coolest *cdn.Deployment
	coolestUtil := 0.0
	for level, list := range candidates.lists() {
		if level == 1 && list != nil {
			lb.tailPicks.Add(1)
		}
		for _, c := range list {
			d := deps[c.Dep]
			if !d.Alive() {
				continue
			}
			if d.Load()+demand <= d.Capacity() {
				return d, nil
			}
			if u := d.Utilisation(); coolest == nil || u < coolestUtil {
				coolest, coolestUtil = d, u
			}
		}
	}
	if coolest != nil {
		return coolest, nil
	}
	return nil, fmt.Errorf("mapping: no live deployment among %d candidates", candidates.Len())
}

// TailPicks returns how many picks went past the head of their row: the
// head was all dead or saturated and did not hold the whole platform, so
// the shared tail was read.
func (lb *LoadBalancer) TailPicks() uint64 { return lb.tailPicks.Load() }

// loadAwareWindow is how many top live candidates the load-aware picker
// re-ranks; beyond it, scores are already too poor to be worth the trade.
// On the Full lab's balance-factor frontier, windows of 2 to 16 land within
// a few miles of each other; re-ranking the whole head costs up to 30 mi of
// mean distance more.
const loadAwareWindow = 8

// pickLoadAware re-ranks the best few live candidates of the head by
// load-penalised score and returns the best unsaturated one, or nil when
// none qualifies (the caller falls back to the hard-spill path).
func (lb *LoadBalancer) pickLoadAware(deps []*cdn.Deployment, candidates Row, demand float64) *cdn.Deployment {
	var best *cdn.Deployment
	bestEff := 0.0
	seen := 0
	for _, c := range candidates.Head {
		d := deps[c.Dep]
		if !d.Alive() {
			continue
		}
		if seen++; seen > loadAwareWindow {
			break
		}
		cap := d.Capacity()
		if cap <= 0 || d.Load()+demand > cap {
			continue
		}
		util := d.Load() / cap
		eff := c.Score() * (1 + lb.BalanceFactor*util*util)
		if best == nil || eff < bestEff {
			best, bestEff = d, eff
		}
	}
	return best
}

// PickServers chooses up to ServersPerAnswer live servers in d for the
// given content domain using consistent hashing, and records demand load
// on the first (primary) server.
func (lb *LoadBalancer) PickServers(d *cdn.Deployment, domain string, demand float64) ([]*cdn.Server, error) {
	r := lb.ringFor(d)
	servers := r.pick(fnv1a(domain), lb.ServersPerAnswer)
	if len(servers) == 0 {
		return nil, fmt.Errorf("mapping: deployment %s has no live servers", d.Name)
	}
	if demand > 0 {
		servers[0].AddLoad(demand)
	}
	return servers, nil
}

func (lb *LoadBalancer) ringFor(d *cdn.Deployment) *ring {
	// Fast path: the prepared, immutable ring set — no lock.
	if r, ok := lb.prepared[d.ID]; ok {
		return r
	}
	lb.mu.RLock()
	r, ok := lb.rings[d.ID]
	lb.mu.RUnlock()
	if ok {
		return r
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if r, ok := lb.rings[d.ID]; ok {
		return r
	}
	r = newRing(d, lb.VirtualNodes)
	lb.rings[d.ID] = r
	return r
}

// ring is a consistent-hash ring over a deployment's servers.
type ring struct {
	points  []uint64
	servers []*cdn.Server // parallel to points
}

// newRing places vnodes points per server at FNV-1a("<server ID>/<virtual
// node>") and sorts them; equal points (which a 64-bit hash all but never
// produces) order by server ID, then virtual node, so a ring is a pure
// function of its membership.
func newRing(d *cdn.Deployment, vnodes int) *ring {
	type point struct {
		hash   uint64
		server int32 // index into d.Servers
		vnode  int32
	}
	pts := make([]point, 0, len(d.Servers)*vnodes)
	var key [41]byte // two 64-bit decimals and the slash
	for i, s := range d.Servers {
		id := append(strconv.AppendUint(key[:0], s.ID, 10), '/')
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{fnv1a(strconv.AppendUint(id, uint64(v), 10)), int32(i), int32(v)})
		}
	}
	slices.SortFunc(pts, func(a, b point) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		if c := cmp.Compare(d.Servers[a.server].ID, d.Servers[b.server].ID); c != 0 {
			return c
		}
		return cmp.Compare(a.vnode, b.vnode)
	})
	r := &ring{points: make([]uint64, len(pts)), servers: make([]*cdn.Server, len(pts))}
	for i, p := range pts {
		r.points[i], r.servers[i] = p.hash, d.Servers[p.server]
	}
	return r
}

// pick returns up to n distinct live servers clockwise from key. Answers
// carry few servers (ServersPerAnswer, default 2), so distinctness is a
// linear scan of the output rather than a per-query map allocation.
func (r *ring) pick(key uint64, n int) []*cdn.Server {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= key })
	out := make([]*cdn.Server, 0, n)
scan:
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		s := r.servers[(start+i)%len(r.points)]
		if !s.Alive() {
			continue
		}
		for _, prev := range out {
			if prev.ID == s.ID {
				continue scan
			}
		}
		out = append(out, s)
	}
	return out
}

// FNV-1a constants (hash/fnv), inlined so string hashing needs neither a
// hash-object allocation nor a string-to-bytes conversion.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a is FNV-1a over the bytes of a string or a byte slice, allocation-
// free. It produces the same values as hash/fnv's New64a, which is what
// places a server on its ring and a domain on the ring's circle.
func fnv1a[T string | []byte](s T) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
