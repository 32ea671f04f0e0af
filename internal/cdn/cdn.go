// Package cdn models the content delivery platform itself: server
// deployment locations ("clusters") around the world, the servers in them,
// and their real-time liveness, load and cache state.
//
// It substitutes for the paper's production platform of 170,000+ servers in
// 2642 candidate deployment locations across 100 countries (§6), at a
// configurable scale. Deployment locations are generated around the world
// model's population centres, since CDNs deploy where clients are.
package cdn

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"sync/atomic"

	"eum/internal/geo"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// Server is a single content server in a deployment. Liveness and load are
// held in atomics: the mapping hot path reads them for every candidate
// deployment on every query, so they must not serialize concurrent queries
// on a mutex.
type Server struct {
	ID         uint64
	Addr       netip.Addr
	Deployment *Deployment

	alive atomic.Bool
	load  atomic.Uint64 // float64 bits; see Load/AddLoad
	cap   float64       // capacity in demand units; immutable after creation
}

// Alive reports whether the server is live.
func (s *Server) Alive() bool { return s.alive.Load() }

// SetAlive marks the server live or dead (failure injection).
func (s *Server) SetAlive(v bool) { s.alive.Store(v) }

// Load returns the server's current load.
func (s *Server) Load() float64 {
	return math.Float64frombits(s.load.Load())
}

// Capacity returns the server's capacity.
func (s *Server) Capacity() float64 { return s.cap }

// AddLoad adds (or with a negative delta, removes) load, reporting whether
// the server remains within capacity afterwards.
func (s *Server) AddLoad(delta float64) bool {
	for {
		old := s.load.Load()
		v := math.Float64frombits(old) + delta
		if v < 0 {
			v = 0
		}
		if s.load.CompareAndSwap(old, math.Float64bits(v)) {
			return v <= s.cap
		}
	}
}

// ResetLoad zeroes the server's load (start of a load-balancing interval).
func (s *Server) ResetLoad() { s.load.Store(0) }

// ScaleLoad multiplies the server's load by f (clamped at zero). Live
// servers accumulate demand units per answer; a periodic exponential decay
// via ScaleLoad turns the cumulative counter into the rate-like gauge
// load-aware picks weigh.
func (s *Server) ScaleLoad(f float64) {
	if f < 0 {
		f = 0
	}
	for {
		old := s.load.Load()
		v := math.Float64frombits(old) * f
		if s.load.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Utilisation returns load/capacity.
func (s *Server) Utilisation() float64 {
	if s.cap == 0 {
		return math.Inf(1)
	}
	return s.Load() / s.cap
}

// Deployment is a server cluster at one location — the unit the global
// load balancer assigns clients to.
type Deployment struct {
	ID      uint64
	Name    string
	Loc     geo.Point
	ASN     uint32
	Country string
	Servers []*Server

	// capLoss is the fractional capacity reduction in [0,1], stored as
	// float64 bits. A brownout (cooling failure, partial rack loss, admin
	// drain) reduces effective capacity without flipping liveness. Stored
	// as a *loss* rather than a factor so the zero value means "full
	// capacity" and existing Deployment literals stay valid.
	capLoss atomic.Uint64
}

// AddServer appends a live, unloaded server of the given capacity to the
// deployment and returns it. Generation and the roster a replica decodes
// from a map image both build deployments this way.
func (d *Deployment) AddServer(id uint64, addr netip.Addr, capacity float64) *Server {
	s := &Server{ID: id, Addr: addr, Deployment: d, cap: capacity}
	s.alive.Store(true)
	d.Servers = append(d.Servers, s)
	return s
}

// Endpoint returns the deployment as a network-model endpoint.
func (d *Deployment) Endpoint() netmodel.Endpoint {
	return netmodel.Endpoint{ID: d.ID, Loc: d.Loc, ASN: d.ASN, Access: netmodel.AccessBackbone}
}

// CapacityFactor returns the fraction of nominal capacity currently
// available, in [0,1]. 1 means healthy; below 1 the deployment is browned
// out (see SetCapacityFactor).
func (d *Deployment) CapacityFactor() float64 {
	return 1 - math.Float64frombits(d.capLoss.Load())
}

// SetCapacityFactor sets the fraction of nominal capacity available,
// clamped to [0,1]. 0 means fully browned out (no usable capacity even if
// servers answer health probes); 1 restores full capacity.
func (d *Deployment) SetCapacityFactor(f float64) {
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	d.capLoss.Store(math.Float64bits(1 - f))
}

// Capacity returns the summed capacity of live servers, scaled by the
// brownout capacity factor.
func (d *Deployment) Capacity() float64 {
	var sum float64
	for _, s := range d.Servers {
		if s.Alive() {
			sum += s.cap
		}
	}
	return sum * d.CapacityFactor()
}

// Load returns the summed load of live servers.
func (d *Deployment) Load() float64 {
	var sum float64
	for _, s := range d.Servers {
		if s.Alive() {
			sum += s.Load()
		}
	}
	return sum
}

// Alive reports whether the deployment has at least one live server. It
// scans directly rather than materialising the live-server slice: the
// load balancer asks this for every candidate on every query.
func (d *Deployment) Alive() bool {
	for _, s := range d.Servers {
		if s.Alive() {
			return true
		}
	}
	return false
}

// Utilisation returns the deployment's load/capacity ratio. A deployment
// with zero capacity (all servers dead, or fully browned out) reports 0
// when idle and +Inf when carrying load.
func (d *Deployment) Utilisation() float64 {
	c := d.Capacity()
	if c <= 0 {
		if d.Load() <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d.Load() / c
}

// ResetLoad zeroes every server's load.
func (d *Deployment) ResetLoad() {
	for _, s := range d.Servers {
		s.ResetLoad()
	}
}

// ScaleLoad multiplies every server's load by f (see Server.ScaleLoad).
func (d *Deployment) ScaleLoad(f float64) {
	for _, s := range d.Servers {
		s.ScaleLoad(f)
	}
}

// MaxServers is the most servers one deployment may hold. The mapping
// system weighs every server of the picked deployment on every answer, so
// this bounds the work one answer costs on a roster that arrives from
// outside (a decoded map image) as well as on a generated one.
const MaxServers = 2048

// Platform is a set of deployments with their servers.
type Platform struct {
	Deployments []*Deployment
}

// Config parameterises universe generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumDeployments is the number of candidate deployment locations
	// (the paper's universe has 2642).
	NumDeployments int
	// ServersPerDeployment is the mean cluster size; actual sizes vary
	// around it, up to twice the mean. At most MaxServers/2.
	ServersPerDeployment int
}

// DefaultConfig mirrors the paper's deployment universe at full scale.
func DefaultConfig() Config {
	return Config{Seed: 1, NumDeployments: 2642, ServersPerDeployment: 12}
}

// GenerateUniverse creates a deployment universe over the world model's
// geography: locations are placed in and around population centres,
// proportionally to country demand, mirroring how a CDN deploys close to
// clients. Generation is deterministic in cfg.Seed.
func GenerateUniverse(w *world.World, cfg Config) (*Platform, error) {
	if cfg.NumDeployments <= 0 {
		return nil, fmt.Errorf("cdn: NumDeployments must be positive, got %d", cfg.NumDeployments)
	}
	if cfg.ServersPerDeployment <= 0 {
		cfg.ServersPerDeployment = 12
	}
	if cfg.ServersPerDeployment > MaxServers/2 {
		return nil, fmt.Errorf("cdn: ServersPerDeployment is a mean of at most %d (sizes reach twice it), got %d",
			MaxServers/2, cfg.ServersPerDeployment)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Platform{}

	// Per-country deployment counts proportional to demand with a floor,
	// echoing the paper's "good coverage of the global Internet".
	type slot struct {
		country string
		loc     geo.Point
		asn     uint32
	}
	// Deployment density follows demand, discounted by infrastructure
	// tier: CDN build-out in well-connected markets (tier 1) is dense,
	// while emerging markets host far fewer clusters per unit of demand —
	// the 2014-era coverage gap that makes end-user mapping matter most
	// exactly where client-LDNS distances are largest.
	tierFactor := map[int]float64{1: 1.0, 2: 0.4, 3: 0.15}
	var weightSum float64
	weights := make([]float64, len(w.Countries))
	for i, c := range w.Countries {
		f := tierFactor[c.Spec.InfraTier]
		if f == 0 {
			f = 0.4
		}
		weights[i] = c.Demand * f
		weightSum += weights[i]
	}
	var slots []slot
	for ci, c := range w.Countries {
		n := int(math.Round(weights[ci] / weightSum * float64(cfg.NumDeployments)))
		if n < 2 {
			n = 2
		}
		// Cycle through the country's cities; scatter each deployment
		// within the metro area. Deployments inside ISPs reuse the
		// country's AS numbers (the paper's CDN deploys inside 1300+ ISPs).
		for i := 0; i < n; i++ {
			city := c.Spec.Cities[i%len(c.Spec.Cities)]
			loc := geo.Offset(city.Loc, rng.Float64()*360, rng.ExpFloat64()*20)
			asn := uint32(64512)
			if len(c.ASes) > 0 {
				asn = c.ASes[rng.Intn(len(c.ASes))].ASN
			}
			slots = append(slots, slot{c.Code(), loc, asn})
		}
	}
	// Trim or pad to the exact requested count deterministically.
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for len(slots) > cfg.NumDeployments {
		slots = slots[:len(slots)-1]
	}
	for len(slots) < cfg.NumDeployments {
		slots = append(slots, slots[rng.Intn(len(slots))])
	}

	var id uint64 = 1 << 32 // distinct from world entity IDs
	var serverIP uint32 = 0x17000000
	for i, sl := range slots {
		d := &Deployment{
			ID:      id,
			Name:    fmt.Sprintf("%s-%04d", sl.country, i),
			Loc:     sl.loc,
			ASN:     sl.asn,
			Country: sl.country,
		}
		id++
		nSrv := 1 + rng.Intn(2*cfg.ServersPerDeployment)
		for s := 0; s < nSrv; s++ {
			d.AddServer(id, ipv4(serverIP), 1)
			id++
			serverIP++
		}
		p.Deployments = append(p.Deployments, d)
	}
	return p, nil
}

// MustGenerateUniverse is GenerateUniverse that panics on error.
func MustGenerateUniverse(w *world.World, cfg Config) *Platform {
	p, err := GenerateUniverse(w, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Subset returns a platform restricted to the first n deployments of a
// deterministic random ordering — the paper's methodology for Fig 25
// ("randomly order the deployments in U; for each N, simulate with the
// first N").
func (p *Platform) Subset(n int, seed int64) *Platform {
	if n > len(p.Deployments) {
		n = len(p.Deployments)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(p.Deployments))
	out := &Platform{Deployments: make([]*Deployment, 0, n)}
	for _, idx := range perm[:n] {
		out.Deployments = append(out.Deployments, p.Deployments[idx])
	}
	return out
}

// TotalCapacity sums live capacity across deployments.
func (p *Platform) TotalCapacity() float64 {
	var sum float64
	for _, d := range p.Deployments {
		sum += d.Capacity()
	}
	return sum
}

// NumServers counts all servers on the platform.
func (p *Platform) NumServers() int {
	n := 0
	for _, d := range p.Deployments {
		n += len(d.Servers)
	}
	return n
}

// ResetLoad zeroes load on all deployments.
func (p *Platform) ResetLoad() {
	for _, d := range p.Deployments {
		d.ResetLoad()
	}
}

// ScaleLoad multiplies load on all deployments by f — the periodic decay
// step that turns per-answer demand into a rate.
func (p *Platform) ScaleLoad(f float64) {
	for _, d := range p.Deployments {
		d.ScaleLoad(f)
	}
}

// Countries returns the distinct countries with deployments, sorted.
func (p *Platform) Countries() []string {
	set := map[string]bool{}
	for _, d := range p.Deployments {
		set[d.Country] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func ipv4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
