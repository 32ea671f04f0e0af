package mapping

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
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
//
// The consistent-hash rings of every deployment of the served platform
// live in one pointer-free arena that Prepare fills before the balancer is
// shared and nothing writes afterwards, so the query path reads it with no
// lock and the collector never scans it.
type LoadBalancer struct {
	// BalanceFactor is the distance-vs-load balance factor β. When
	// positive, the global choice is load-aware before hard saturation:
	// the first loadAwareWindow live head entries are re-ranked by
	// score x (1 + β x utilisation^2), shifting traffic off busy clusters
	// early at a small latency cost. Zero keeps the pure best-score-first
	// behaviour with hard capacity spill.
	BalanceFactor float64

	deps  []*cdn.Deployment // the prepared platform's, in order
	index map[uint64]uint32 // deployment ID -> position in deps
	// Deployment i's ring is points off[i] to off[i+1], in ring order.
	// Point j sits at a hash whose top 32 bits are hi[j] and belongs to
	// server pt[j]>>vnodeBits, virtual node pt[j]&(virtualNodes-1).
	off []uint32
	hi  []uint32
	pt  []uint16

	// tailPicks counts PickDeployment calls the head did not decide.
	tailPicks atomic.Uint64
}

const (
	// serversPerAnswer is how many server IPs each DNS answer carries;
	// the paper returns "two or more" as a precaution against transient
	// failures.
	serversPerAnswer = 2
	// virtualNodes is the number of ring points per server; a point's
	// ordinal keeps its virtual node in the low vnodeBits bits.
	vnodeBits    = 5
	virtualNodes = 1 << vnodeBits
)

// A point's ordinal, server index × virtualNodes + virtual node, is a
// uint16: that is what caps a deployment at cdn.MaxServers servers.
var _ [1<<16 - cdn.MaxServers*virtualNodes]struct{}

// NewLoadBalancer returns a load balancer with default settings. It picks
// servers once Prepare has built the rings of a platform.
func NewLoadBalancer() *LoadBalancer { return &LoadBalancer{} }

// Prepare builds the consistent-hash rings of every deployment of the
// platform, which is the platform PickServers then serves. Call it once,
// before the balancer is shared. Each server has virtualNodes points at
// FNV-1a("<server ID>/<virtual node>"), in ascending order; equal points
// (which a 64-bit hash all but never produces) order by server ID, then
// virtual node, so a ring is a pure function of its membership. Prepare
// panics on a deployment of more than cdn.MaxServers servers, which
// neither cdn.GenerateUniverse nor a decoded roster produces.
func (lb *LoadBalancer) Prepare(p *cdn.Platform) {
	total, most := 0, 0
	for _, d := range p.Deployments {
		if len(d.Servers) > cdn.MaxServers {
			panic(fmt.Sprintf("mapping: deployment %s has %d servers, the rings address %d", d.Name, len(d.Servers), cdn.MaxServers))
		}
		total += len(d.Servers)
		most = max(most, len(d.Servers))
	}
	total, most = total*virtualNodes, most*virtualNodes
	lb.deps = p.Deployments
	lb.index = make(map[uint64]uint32, len(p.Deployments))
	lb.off = make([]uint32, len(p.Deployments)+1)
	lb.hi = make([]uint32, total)
	lb.pt = make([]uint16, total)
	// Scratch for one ring, reused by every deployment: its points as
	// placed, the same points in ring order, and bucket counts.
	placed, sorted := make([]point, most), make([]point, most)
	counts := make([]uint32, buckets(most)+1)
	for i, d := range p.Deployments {
		lb.index[d.ID] = uint32(i)
		n := len(d.Servers) * virtualNodes
		at := lb.off[i]
		lb.off[i+1] = at + uint32(n)
		place(d, placed[:n])
		ringOrder(d, placed[:n], sorted[:n], counts)
		for j, q := range sorted[:n] {
			lb.hi[int(at)+j], lb.pt[int(at)+j] = uint32(q.hash>>32), q.ord
		}
	}
}

// RingBytes returns the resident size of the prepared rings: six bytes a
// point and four a deployment.
func (lb *LoadBalancer) RingBytes() uint64 {
	return uint64(cap(lb.off))*4 + uint64(cap(lb.hi))*4 + uint64(cap(lb.pt))*2
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

// PickServers chooses up to serversPerAnswer live servers in d, a
// deployment of the prepared platform, for the given content domain using
// consistent hashing, and records demand load on the first (primary)
// server.
func (lb *LoadBalancer) PickServers(d *cdn.Deployment, domain string, demand float64) ([]*cdn.Server, error) {
	i, ok := lb.index[d.ID]
	if !ok || lb.deps[i] != d {
		return nil, fmt.Errorf("mapping: deployment %s is not on the platform the load balancer was prepared for", d.Name)
	}
	servers := lb.pick(int(i), fnv1a(domain))
	if len(servers) == 0 {
		return nil, fmt.Errorf("mapping: deployment %s has no live servers", d.Name)
	}
	if demand > 0 {
		servers[0].AddLoad(demand)
	}
	return servers, nil
}

// pick returns up to serversPerAnswer distinct live servers of deployment
// i, clockwise from key: from the first point whose hash is at least key.
// Answers carry few servers, so distinctness is a linear scan of the
// output rather than a per-query map allocation.
func (lb *LoadBalancer) pick(i int, key uint64) []*cdn.Server {
	lo, end := int(lb.off[i]), int(lb.off[i+1])
	n := end - lo
	servers := lb.deps[i].Servers
	// The first point whose top half is at least key's, then past the
	// points that share key's top half but hash below it.
	top := uint32(key >> 32)
	start, _ := slices.BinarySearch(lb.hi[lo:end], top)
	start += lo
	for start < end && lb.hi[start] == top && pointHash(servers, lb.pt[start]) < key {
		start++
	}
	out := make([]*cdn.Server, 0, serversPerAnswer)
scan:
	for j := 0; j < n && len(out) < serversPerAnswer; j++ {
		at := start + j
		if at >= end {
			at -= n
		}
		s := servers[lb.pt[at]>>vnodeBits]
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

// point is a ring point while a ring is built: its full hash and ordinal.
type point struct {
	hash uint64
	ord  uint16
}

// place fills pts with d's points in server, then virtual-node order: it
// hashes each server's "<ID>/" once and continues FNV-1a over the virtual
// node's digits.
func place(d *cdn.Deployment, pts []point) {
	var key [21]byte // a 64-bit decimal and the slash
	for i, s := range d.Servers {
		h := fnv1a(append(strconv.AppendUint(key[:0], s.ID, 10), '/'))
		for v := 0; v < virtualNodes; v++ {
			pts[i*virtualNodes+v] = point{fnvMore(h, strconv.AppendUint(key[:0], uint64(v), 10)), uint16(i*virtualNodes + v)}
		}
	}
}

// pointHash recomputes the full hash of the point with ordinal ord.
func pointHash(servers []*cdn.Server, ord uint16) uint64 {
	var key [21]byte
	h := fnv1a(append(strconv.AppendUint(key[:0], servers[ord>>vnodeBits].ID, 10), '/'))
	return fnvMore(h, strconv.AppendUint(key[:0], uint64(ord&(virtualNodes-1)), 10))
}

// buckets is the number of buckets ringOrder spreads n points over: the
// power of two above n.
func buckets(n int) int { return 1 << bits.Len(uint(n)) }

// ringOrder writes pts into out in ring order — by hash, then server ID,
// then virtual node. A counting pass places each point by its hash's top
// bits, with at most a point per bucket on average, and an insertion pass
// orders each bucket. counts is scratch of at least buckets(len(pts))+1.
func ringOrder(d *cdn.Deployment, pts, out []point, counts []uint32) {
	nb := buckets(len(pts))
	shift := 64 - bits.TrailingZeros(uint(nb))
	counts = counts[:nb+1]
	clear(counts)
	for _, q := range pts {
		counts[q.hash>>shift+1]++ // a shift of 64 is bucket 0
	}
	for b := 1; b <= nb; b++ {
		counts[b] += counts[b-1]
	}
	for _, q := range pts {
		b := q.hash >> shift
		out[counts[b]] = q
		counts[b]++
	}
	before := func(a, b point) bool {
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if ia, ib := d.Servers[a.ord>>vnodeBits].ID, d.Servers[b.ord>>vnodeBits].ID; ia != ib {
			return ia < ib
		}
		return a.ord < b.ord
	}
	for i := 1; i < len(out); i++ {
		q, j := out[i], i
		for ; j > 0 && before(q, out[j-1]); j-- {
			out[j] = out[j-1]
		}
		out[j] = q
	}
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
func fnv1a[T string | []byte](s T) uint64 { return fnvMore(fnvOffset64, s) }

// fnvMore continues FNV-1a from state h over the bytes of s.
func fnvMore[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
