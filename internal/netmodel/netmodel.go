// Package netmodel provides a deterministic synthetic model of Internet
// path performance: round-trip time, packet loss, and achievable throughput
// between two endpoints, plus the ping-style probe latency the paper's
// deployment simulation (§6) is built on.
//
// The paper's production substrate measures these quantities; this package
// substitutes a model that preserves the causal structure the paper's
// results depend on:
//
//   - RTT grows (super-)linearly with great-circle distance: propagation at
//     roughly 2/3 c through fibre along routes inflated relative to the
//     geodesic, so halving the mapping distance roughly halves the RTT.
//   - Crossing AS boundaries, peering points and transnational links adds
//     latency, loss, and congestion variance (paper §4.4).
//   - The last mile adds an access-technology-dependent floor.
//   - Throughput follows a Mathis-style MSS/(RTT·sqrt(loss)) law, so
//     download time is dominated by client-server RTT (paper §4.1).
//
// All randomness is derived by hashing endpoint identities with the model
// seed, so the model is a pure function: the same pair always sees the same
// base path quality, with an optional epoch input to model day-to-day
// congestion variation.
//
// Every metric is arithmetic on a path — the pair's great-circle distance
// and the AS crossings it implies — measured once per call. The distance is
// geo's (geo.Prepared.DistanceTo owns the haversine; there is none here),
// and PingAt is PingMs for one prepared site and a prepared target, equal
// to it bit for bit: rank ties, the figures' checksums and the wire image's
// CRC all depend on a score not moving in its last place. PingRow is PingAt
// over many sites. PingFloorPerMile and PingFloorCrossingMs bound a ping
// from below by the pair's distance and ASes alone — propagation and the
// one AS crossing two ASes imply, at the lowest noise draw — so that with
// geo.Prepared.FloorTo a ranking can pass over a site that provably pings
// worse than the ones it keeps, without pinging it.
package netmodel

import (
	"math"

	"eum/internal/geo"
)

// AccessType describes an endpoint's last-mile connectivity.
type AccessType uint8

// Access technologies, ordered roughly by decreasing last-mile latency.
// The paper's RUM dataset covers "cellular, WiFi, 3G, 4G, DSL, cable modem,
// and fiber"; Backbone models infrastructure endpoints (servers, resolvers)
// with no last mile.
const (
	AccessBackbone AccessType = iota
	AccessFiber
	AccessCable
	AccessDSL
	AccessWiFi
	Access4G
	Access3G
	AccessCellular
	numAccessTypes
)

// String returns the access-type name.
func (a AccessType) String() string {
	switch a {
	case AccessBackbone:
		return "backbone"
	case AccessFiber:
		return "fiber"
	case AccessCable:
		return "cable"
	case AccessDSL:
		return "dsl"
	case AccessWiFi:
		return "wifi"
	case Access4G:
		return "4g"
	case Access3G:
		return "3g"
	case AccessCellular:
		return "cellular"
	}
	return "unknown"
}

// lastMileMs is the one-way last-mile latency in milliseconds per access type.
var lastMileMs = [numAccessTypes]float64{
	AccessBackbone: 0,
	AccessFiber:    2,
	AccessCable:    5,
	AccessDSL:      9,
	AccessWiFi:     6,
	Access4G:       18,
	Access3G:       45,
	AccessCellular: 60,
}

// lastMileMbps is the nominal downlink bandwidth in Mbit/s per access type.
var lastMileMbps = [numAccessTypes]float64{
	AccessBackbone: 10000,
	AccessFiber:    300,
	AccessCable:    100,
	AccessDSL:      20,
	AccessWiFi:     50,
	Access4G:       25,
	Access3G:       4,
	AccessCellular: 2,
}

// Endpoint is one end of a modelled network path.
type Endpoint struct {
	ID     uint64    // stable identity used to derive per-pair path quality
	Loc    geo.Point // geographic location
	ASN    uint32    // autonomous system number
	Access AccessType
}

// Params tunes the path model. The zero value is not useful; use
// DefaultParams.
type Params struct {
	// FiberMilesPerMs is signal speed through fibre (~2/3 c).
	FiberMilesPerMs float64
	// RouteInflation scales great-circle distance to modelled route
	// distance; Internet paths are far from geodesics.
	RouteInflation float64
	// PerASCrossingMs is the per-AS-boundary latency penalty (one way).
	PerASCrossingMs float64
	// CongestionMs is the scale of the heavy-tailed congestion term.
	CongestionMs float64
	// BaseLoss is the loss-rate floor of an uncongested path.
	BaseLoss float64
	// LossPerCrossing adds loss probability per AS crossing.
	LossPerCrossing float64
	// MSSBytes is the TCP segment size for the throughput law.
	MSSBytes float64
	// Parallelism is the number of concurrent TCP connections a page
	// download uses (browsers open several per host).
	Parallelism float64
	// PingNoise is the measurement-noise span of ping probes: a probe
	// reads the true path latency scaled by a deterministic per-pair
	// factor in [1-PingNoise, 1]. Probes hit a router before the last
	// mile, so they always under-estimate (§6's caveat); the spread is
	// what makes scoring imperfect, as production measurements are.
	PingNoise float64
	// Seed decorrelates independently constructed models.
	Seed uint64
}

// DefaultParams returns the parameter set used in the reproduction.
func DefaultParams() Params {
	return Params{
		FiberMilesPerMs: 124, // 2/3 × 186 mi/ms
		RouteInflation:  1.35,
		PerASCrossingMs: 2.5,
		CongestionMs:    12,
		BaseLoss:        0.0003,
		LossPerCrossing: 0.001,
		MSSBytes:        1460,
		Parallelism:     6,
		PingNoise:       0.28,
		Seed:            0x5eed,
	}
}

// Model evaluates path metrics between endpoints. It is safe for concurrent
// use; all methods are pure functions of their inputs.
type Model struct {
	p Params
	// The inner hash of hash01 for the three salts that do not vary by
	// epoch, mixed with the seed once here instead of once per pair.
	crossSalt, pingSalt, lossSalt uint64
}

// New returns a Model with the given parameters.
func New(p Params) *Model {
	return &Model{
		p:         p,
		crossSalt: mix64(0xA5 ^ p.Seed),
		pingSalt:  mix64(0x9147 ^ p.Seed),
		lossSalt:  mix64(0x10555 ^ p.Seed),
	}
}

// NewDefault returns a Model with DefaultParams.
func NewDefault() *Model { return New(DefaultParams()) }

// hash01 derives a deterministic uniform value in [0,1) from the pair and
// a salted seed. The pair is unordered so metrics are symmetric.
func hash01(a, b *Endpoint, salted uint64) float64 {
	x, y := a.ID, b.ID
	if x > y {
		x, y = y, x
	}
	h := mix64(x ^ mix64(y^salted))
	return float64(h>>11) / float64(1<<53)
}

// mix64 is the splitmix64 finaliser, a strong 64-bit mixing function.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// path is a pair of endpoints measured once: the great-circle distance
// between them and the AS crossings it implies. Every metric below is
// arithmetic on a path, so none measures the pair a second time.
type path struct {
	a, b      *Endpoint
	miles     float64
	crossings int
}

// pathOver is the path between a and b given their distance in miles: zero
// AS crossings inside one AS, otherwise one plus roughly one extra transit
// hop per 2500 miles (transnational links, peering points).
func (m *Model) pathOver(a, b *Endpoint, miles float64) path {
	pt := path{a: a, b: b, miles: miles}
	if a.ASN == b.ASN {
		return pt
	}
	pt.crossings = 1 + int(miles/2500)
	// Some pairs peer directly; some go through extra intermediaries.
	u := hash01(a, b, m.crossSalt)
	if u < 0.25 && pt.crossings > 1 {
		pt.crossings--
	} else if u > 0.85 {
		pt.crossings++
	}
	return pt
}

// path measures the pair. geo owns the haversine; this is the model's one
// call to it for endpoints that were not prepared (see PingAt).
func (m *Model) path(a, b *Endpoint) path {
	return m.pathOver(a, b, geo.Distance(a.Loc, b.Loc))
}

// backboneMs is the round trip between the two ends' access routers:
// propagation plus AS crossings, no last mile.
func (m *Model) backboneMs(pt path) float64 {
	prop := 2 * pt.miles * m.p.RouteInflation / m.p.FiberMilesPerMs
	cross := 2 * float64(pt.crossings) * m.p.PerASCrossingMs
	return prop + cross
}

// baseRTTMs adds both last miles to the backbone round trip.
func (m *Model) baseRTTMs(pt path) float64 {
	return m.backboneMs(pt) + lastMileMs[pt.a.Access] + lastMileMs[pt.b.Access]
}

// congestionMs is the epoch's heavy-tailed congestion term, growing with
// the number of AS crossings: the inverse CDF of a Pareto-ish tail, so most
// epochs sit near zero congestion and a few are heavily congested.
func (m *Model) congestionMs(pt path, epoch uint64) float64 {
	u := hash01(pt.a, pt.b, mix64(0xC0FFEE^epoch^m.p.Seed))
	return m.p.CongestionMs * float64(1+pt.crossings) * paretoTail(u)
}

// rttMs is the epoch's round trip: base plus congestion.
func (m *Model) rttMs(pt path, epoch uint64) float64 {
	return m.baseRTTMs(pt) + m.congestionMs(pt, epoch)
}

// pingMs is the probe reading: the backbone round trip scaled by the
// pair's measurement-noise factor.
func (m *Model) pingMs(pt path) float64 {
	noise := 1 - m.p.PingNoise*hash01(pt.a, pt.b, m.pingSalt)
	return m.backboneMs(pt) * noise
}

// loss is the path's packet-loss probability.
func (m *Model) loss(pt path) float64 {
	loss := m.p.BaseLoss + m.p.LossPerCrossing*float64(pt.crossings)
	// Per-pair variation of ±50%.
	loss *= 0.5 + hash01(pt.a, pt.b, m.lossSalt)
	if loss > 0.25 {
		loss = 0.25
	}
	return loss
}

// ASCrossings estimates the number of AS boundaries a path between a and b
// traverses.
func (m *Model) ASCrossings(a, b Endpoint) int { return m.path(&a, &b).crossings }

// BaseRTTMs is the congestion-free round-trip time in milliseconds:
// propagation + AS crossings + both last miles.
func (m *Model) BaseRTTMs(a, b Endpoint) float64 { return m.baseRTTMs(m.path(&a, &b)) }

// RTTMs is the modelled round-trip time in milliseconds for the given
// epoch (e.g. day number). The congestion term is heavy-tailed and grows
// with the number of AS crossings, modelling the paper's observation that
// paths crossing more AS boundaries and peering points see more congestion.
func (m *Model) RTTMs(a, b Endpoint, epoch uint64) float64 {
	return m.rttMs(m.path(&a, &b), epoch)
}

// paretoTail maps u in [0,1) to a nonnegative multiplier with mean ~1 and
// a heavy right tail, capped to keep single samples physical.
func paretoTail(u float64) float64 {
	if u >= 0.999999 {
		u = 0.999999
	}
	// (1-u)^(-1/3) - 1 has mean 0.5 for u ~ U(0,1); scale by 2 for mean ~1.
	v := 2 * (math.Pow(1-u, -1.0/3.0) - 1)
	if v > 40 {
		v = 40
	}
	return v
}

// Loss returns the modelled packet-loss probability on the path.
func (m *Model) Loss(a, b Endpoint) float64 { return m.loss(m.path(&a, &b)) }

// ThroughputMbps returns the achievable TCP throughput in Mbit/s, the
// minimum of the Mathis law MSS/(RTT·sqrt(loss)) and the client's last-mile
// bandwidth.
func (m *Model) ThroughputMbps(a, b Endpoint, epoch uint64) float64 {
	pt := m.path(&a, &b)
	rtt := m.rttMs(pt, epoch) / 1000 // seconds
	loss := m.loss(pt)
	if loss <= 0 {
		loss = 1e-6
	}
	par := m.p.Parallelism
	if par < 1 {
		par = 1
	}
	mathis := par * m.p.MSSBytes * 8 / (rtt * math.Sqrt(loss)) / 1e6
	cap1 := lastMileMbps[a.Access]
	cap2 := lastMileMbps[b.Access]
	return math.Min(mathis, math.Min(cap1, cap2))
}

// PingMs models a ping probe from a deployment to a "ping target": a router
// en route to a client block. Per the paper (§6), ping latency is a lower
// bound on the true client RTT since the target sits before the last mile;
// we model it as the base RTT without either endpoint's last-mile term.
func (m *Model) PingMs(a, b Endpoint) float64 { return m.pingMs(m.path(&a, &b)) }

// PingMsAt is PingMs plus the congestion the probe would observe in the
// given epoch: measurement pipelines see the network's time-varying state,
// which is why measurement freshness matters to mapping quality (the
// "real-time" half of the paper's measurement component).
func (m *Model) PingMsAt(a, b Endpoint, epoch uint64) float64 {
	pt := m.path(&a, &b)
	// A probe sees half the congestion a client's round trip does (halving
	// a float64 is exact, so where in the product it happens is immaterial).
	return m.pingMs(pt) + 0.5*m.congestionMs(pt, epoch)
}

// Site is an endpoint with the latitude trigonometry of its location done,
// for the side of a row that is measured against many targets.
type Site struct {
	Endpoint
	At geo.Prepared // Loc, prepared
}

// SiteOf prepares an endpoint.
func SiteOf(ep Endpoint) Site { return Site{Endpoint: ep, At: geo.Prepare(ep.Loc)} }

// PingAt is PingMs(s.Endpoint, *to), bit for bit, for a site and a target
// whose locations are prepared — at is geo.Prepare(to.Loc) — so neither
// side's trigonometry is redone per pair. It is the model's one ping
// kernel: PingRow loops over it.
func (m *Model) PingAt(s *Site, to *Endpoint, at geo.Prepared) float64 {
	return m.pingMs(m.pathOver(&s.Endpoint, to, s.At.DistanceTo(at)))
}

// PingRow is the row form of PingMs: dst[i] = PingMs(from[i].Endpoint, to),
// bit for bit, with to's trigonometry done once for the row and each
// site's once for all rows.
func (m *Model) PingRow(dst []float64, from []Site, to Endpoint) {
	at := geo.Prepare(to.Loc)
	for i := range from {
		dst[i] = m.PingAt(&from[i], &to, at)
	}
}

// pingFloorShave keeps the ping floors below the rates a ping is computed
// at, whatever the rounding of either: a relative margin far wider than the
// few ulps the ping's products are off by.
const pingFloorShave = 1 - 1e-9

// PingFloorPerMile and PingFloorCrossingMs bound a ping from below by what
// the pair's endpoints and distance alone say:
//
//	PingMs(a, b) >= PingFloorPerMile()·d + PingFloorCrossingMs()   if a.ASN != b.ASN
//	PingMs(a, b) >= PingFloorPerMile()·d                           otherwise
//
// for any d at most the pair's great-circle distance (geo.Prepared.FloorTo,
// say). A ping is the backbone round trip — propagation plus AS crossings,
// of which a pair in two ASes has at least one — scaled by a noise factor
// of at least 1 - PingNoise; the floors are those terms at that factor,
// less a margin. They hold for non-negative parameters with PingNoise at
// most 1.
func (m *Model) PingFloorPerMile() float64 {
	return (1 - m.p.PingNoise) * 2 * m.p.RouteInflation / m.p.FiberMilesPerMs * pingFloorShave
}

// PingFloorCrossingMs is the least one AS crossing adds to a ping; see
// PingFloorPerMile.
func (m *Model) PingFloorCrossingMs() float64 {
	return (1 - m.p.PingNoise) * 2 * m.p.PerASCrossingMs * pingFloorShave
}
