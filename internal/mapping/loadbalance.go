package mapping

import (
	"fmt"
	"sync/atomic"

	"eum/internal/cdn"
)

// LoadBalancer performs the two hierarchical assignment steps of §2.2:
// global load balancing picks a server cluster for each mapping unit
// (best score first, spilling to the next-best cluster when a cluster is
// at capacity or down), and local load balancing picks servers within the
// cluster by rendezvous (highest-random-weight) hashing on the content
// domain, so requests for the same domain concentrate on few servers and
// cache hit rates stay high (the "likely to contain the requested content"
// consideration). The local pick reads only the deployment's server list,
// so the balancer holds no per-platform state and serves any deployment.
type LoadBalancer struct {
	// BalanceFactor is the distance-vs-load balance factor β. When
	// positive, the global choice is load-aware before hard saturation:
	// the first loadAwareWindow live head entries are re-ranked by
	// score x (1 + β x utilisation^2), shifting traffic off busy clusters
	// early at a small latency cost. Zero keeps the pure best-score-first
	// behaviour with hard capacity spill.
	BalanceFactor float64

	// tailPicks counts PickDeployment calls the head did not decide.
	tailPicks atomic.Uint64
}

// ServersPerAnswer is how many server IPs each DNS answer carries; the
// paper returns "two or more" as a precaution against transient failures.
const ServersPerAnswer = 2

// NewLoadBalancer returns a load balancer with default settings.
func NewLoadBalancer() *LoadBalancer { return &LoadBalancer{} }

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
		d := lb.pickLoadAware(deps, candidates, demand)
		if loadAwareProbe != nil {
			loadAwareProbe(lb, deps, candidates, demand, d)
		}
		if d != nil {
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
			d := deps[c]
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

// loadAwareProbe, nil outside tests, sees every load-aware pick before its
// load lands: the candidates, the demand and the deployment chosen, or nil.
var loadAwareProbe func(lb *LoadBalancer, deps []*cdn.Deployment, candidates Row, demand float64, got *cdn.Deployment)

// pickLoadAware re-ranks the best few live candidates of the head by
// load-penalised score and returns the best unsaturated one, or nil when
// none qualifies (the caller falls back to the hard-spill path). It is the
// one reader of a row's scores.
func (lb *LoadBalancer) pickLoadAware(deps []*cdn.Deployment, candidates Row, demand float64) *cdn.Deployment {
	var best *cdn.Deployment
	bestEff := 0.0
	seen := 0
	for k, c := range candidates.Head {
		d := deps[c]
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
		eff := float64(candidates.Scores[k]) * (1 + lb.BalanceFactor*util*util)
		if best == nil || eff < bestEff {
			best, bestEff = d, eff
		}
	}
	return best
}

// PickServers chooses up to ServersPerAnswer live servers of d for the
// given content domain by rendezvous hashing, and records demand load on
// the first (primary) server. The servers are the live ones of highest
// weight for the domain, heaviest first, so a domain keeps its servers
// while they live, and a dead server hands each of its domains to the
// next server of that domain's order and moves no other domain.
func (lb *LoadBalancer) PickServers(d *cdn.Deployment, domain string, demand float64) ([]*cdn.Server, error) {
	return lb.appendServers(make([]*cdn.Server, 0, ServersPerAnswer), d, domain, demand)
}

// appendServers is PickServers appending the servers to dst[:0].
func (lb *LoadBalancer) appendServers(dst []*cdn.Server, d *cdn.Deployment, domain string, demand float64) ([]*cdn.Server, error) {
	servers := pickServers(dst[:0], d.Servers, fnv1a(domain))
	if len(servers) == 0 {
		return nil, fmt.Errorf("mapping: deployment %s has no live servers", d.Name)
	}
	if demand > 0 {
		servers[0].AddLoad(demand)
	}
	return servers, nil
}

// pickServers appends to out, which must be empty, the up to
// ServersPerAnswer live servers of servers with the highest weight for a
// domain hashing to key, heaviest first. It keeps the best so far in a
// fixed array, so a pick is one pass over the deployment and stores
// nothing.
func pickServers(out, servers []*cdn.Server, key uint64) []*cdn.Server {
	var top [ServersPerAnswer]*cdn.Server
	var heavy [ServersPerAnswer]uint64
	n := 0
	for _, s := range servers {
		w := weight(key, s.ID)
		j := n
		for j > 0 && w > heavy[j-1] {
			j--
		}
		if j == ServersPerAnswer || !s.Alive() {
			continue
		}
		n = min(n+1, ServersPerAnswer)
		for k := n - 1; k > j; k-- {
			top[k], heavy[k] = top[k-1], heavy[k-1]
		}
		top[j], heavy[j] = s, w
	}
	return append(out, top[:n]...)
}

// weight is server id's rendezvous weight for a domain hashing to key:
// the splitmix64 finaliser of key mixed with the ID. For a fixed key it is
// a bijection of the ID, so the servers of one deployment never tie.
func weight(key, id uint64) uint64 {
	z := key ^ id*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// FNV-1a constants (hash/fnv), inlined so string hashing needs neither a
// hash-object allocation nor a string-to-bytes conversion.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a is FNV-1a over the bytes of a string, allocation-free. It
// produces the same values as hash/fnv's New64a; it is the key a domain's
// server weights are drawn from.
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
