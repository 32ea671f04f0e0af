package netmodel

import (
	"math"
	"math/rand"
	"testing"

	"eum/internal/geo"
)

// ref is the model's arithmetic as it stood before the once-per-pair path
// and the prepared points existed, frozen here: its own haversine, its own
// hash, every metric measuring the pair for itself. The model must agree
// with it to the last bit — rank ties, FIGURES.sha256 and the wire image's
// checksum all hang on that.
type ref struct{ p Params }

func (r ref) distance(p, q geo.Point) float64 {
	rad := func(deg float64) float64 { return deg * math.Pi / 180 }
	lat1, lat2 := rad(p.Lat), rad(q.Lat)
	dLat := lat2 - lat1
	dLon := rad(q.Lon - p.Lon)
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if a > 1 {
		a = 1
	}
	return 2 * geo.EarthRadiusMiles * math.Asin(math.Sqrt(a))
}

func (r ref) hash01(a, b Endpoint, salt uint64) float64 {
	x, y := a.ID, b.ID
	if x > y {
		x, y = y, x
	}
	h := mix64(x ^ mix64(y^mix64(salt^r.p.Seed)))
	return float64(h>>11) / float64(1<<53)
}

func (r ref) crossings(a, b Endpoint) int {
	if a.ASN == b.ASN {
		return 0
	}
	d := r.distance(a.Loc, b.Loc)
	crossings := 1 + int(d/2500)
	u := r.hash01(a, b, 0xA5)
	if u < 0.25 && crossings > 1 {
		crossings--
	} else if u > 0.85 {
		crossings++
	}
	return crossings
}

func (r ref) baseRTT(a, b Endpoint) float64 {
	d := r.distance(a.Loc, b.Loc)
	prop := 2 * d * r.p.RouteInflation / r.p.FiberMilesPerMs
	cross := 2 * float64(r.crossings(a, b)) * r.p.PerASCrossingMs
	return prop + cross + lastMileMs[a.Access] + lastMileMs[b.Access]
}

func (r ref) rtt(a, b Endpoint, epoch uint64) float64 {
	base := r.baseRTT(a, b)
	u := r.hash01(a, b, 0xC0FFEE^epoch)
	return base + r.p.CongestionMs*float64(1+r.crossings(a, b))*paretoTail(u)
}

func (r ref) loss(a, b Endpoint) float64 {
	loss := r.p.BaseLoss + r.p.LossPerCrossing*float64(r.crossings(a, b))
	loss *= 0.5 + r.hash01(a, b, 0x10555)
	if loss > 0.25 {
		loss = 0.25
	}
	return loss
}

func (r ref) throughput(a, b Endpoint, epoch uint64) float64 {
	rtt := r.rtt(a, b, epoch) / 1000
	loss := r.loss(a, b)
	if loss <= 0 {
		loss = 1e-6
	}
	par := r.p.Parallelism
	if par < 1 {
		par = 1
	}
	mathis := par * r.p.MSSBytes * 8 / (rtt * math.Sqrt(loss)) / 1e6
	return math.Min(mathis, math.Min(lastMileMbps[a.Access], lastMileMbps[b.Access]))
}

func (r ref) ping(a, b Endpoint) float64 {
	d := r.distance(a.Loc, b.Loc)
	prop := 2 * d * r.p.RouteInflation / r.p.FiberMilesPerMs
	cross := 2 * float64(r.crossings(a, b)) * r.p.PerASCrossingMs
	noise := 1 - r.p.PingNoise*r.hash01(a, b, 0x9147)
	return (prop + cross) * noise
}

func (r ref) pingAt(a, b Endpoint, epoch uint64) float64 {
	u := r.hash01(a, b, 0xC0FFEE^epoch)
	congestion := 0.5 * r.p.CongestionMs * float64(1+r.crossings(a, b)) * paretoTail(u)
	return r.ping(a, b) + congestion
}

// hostile lists the geometry a haversine gets wrong first: one point twice,
// the poles, both sides of the antimeridian, and antipodes, where rounding
// can push the haversine's argument past 1.
var hostile = []geo.Point{
	{Lat: 0, Lon: 0}, {Lat: 0, Lon: 180}, {Lat: 0, Lon: -180},
	{Lat: 90, Lon: 0}, {Lat: 90, Lon: 77}, {Lat: -90, Lon: 0}, {Lat: -90, Lon: -120},
	{Lat: 12.5, Lon: 179.9999}, {Lat: 12.5, Lon: -179.9999}, {Lat: -12.5, Lon: 0.0001},
	{Lat: 42.36, Lon: -71.06}, {Lat: -42.36, Lon: 108.94},
	{Lat: 45, Lon: 45}, {Lat: -45, Lon: -135},
	{Lat: 1e-9, Lon: 1e-9}, {Lat: 89.999999, Lon: 179.999999},
}

// TestRowKernelMatchesPingMs is the bit-identity property: over random
// pairs and the hostile geometry — identical points, one AS and two, the
// IDs in both orders — the row form, PingMs and the frozen reference give
// the same float64, and so does every other metric that now shares the
// once-per-pair path.
func TestRowKernelMatchesPingMs(t *testing.T) {
	m := NewDefault()
	r := ref{DefaultParams()}
	rng := rand.New(rand.NewSource(18))
	point := func() geo.Point {
		return geo.Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
	}
	endpoint := func(loc geo.Point) Endpoint {
		return Endpoint{ID: rng.Uint64(), Loc: loc, ASN: uint32(rng.Intn(40)), Access: AccessType(rng.Intn(int(numAccessTypes)))}
	}

	const rowLen, rows = 100, 1000 // 10⁵ random pairs
	var froms []Endpoint
	for _, loc := range hostile {
		froms = append(froms, endpoint(loc))
	}
	for len(froms) < rowLen {
		froms = append(froms, endpoint(point()))
	}
	sites := make([]Site, len(froms))
	for i, ep := range froms {
		sites[i] = SiteOf(ep)
	}
	var tos []Endpoint
	for _, loc := range hostile {
		tos = append(tos, endpoint(loc))
	}
	// A target that is one of the sites: same point, same ID, same AS.
	tos = append(tos, froms[3], froms[len(hostile)+1])
	for len(tos) < rows {
		tos = append(tos, endpoint(point()))
	}

	same := func(what string, a, b Endpoint, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) || math.IsNaN(got) {
			t.Fatalf("%s(%+v, %+v) = %v (%#x), the reference says %v (%#x)",
				what, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	row := make([]float64, len(sites))
	for ti, to := range tos {
		m.PingRow(row, sites, to)
		at := geo.Prepare(to.Loc)
		for i, from := range froms {
			want := r.ping(from, to)
			same("PingRow", from, to, row[i], want)
			same("PingAt", from, to, m.PingAt(&sites[i], &to, at), want)
			same("PingMs", from, to, m.PingMs(from, to), want)
			same("PingMs reversed", to, from, m.PingMs(to, from), want)
			same("geo.Distance", from, to, geo.Distance(from.Loc, to.Loc), r.distance(from.Loc, to.Loc))
			if (ti+i)%7 != 0 {
				continue // the other metrics on a seventh of the pairs
			}
			epoch := uint64(ti % 5)
			if got, want := m.ASCrossings(from, to), r.crossings(from, to); got != want {
				t.Fatalf("ASCrossings(%+v, %+v) = %d, the reference says %d", from, to, got, want)
			}
			same("BaseRTTMs", from, to, m.BaseRTTMs(from, to), r.baseRTT(from, to))
			same("RTTMs", from, to, m.RTTMs(from, to, epoch), r.rtt(from, to, epoch))
			same("Loss", from, to, m.Loss(from, to), r.loss(from, to))
			same("ThroughputMbps", from, to, m.ThroughputMbps(from, to, epoch), r.throughput(from, to, epoch))
			same("PingMsAt", from, to, m.PingMsAt(from, to, epoch), r.pingAt(from, to, epoch))
		}
	}

	// Antipodes are where rounding pushes the haversine's argument to 1 and
	// past it: half the circumference, not a NaN out of Asin.
	half := math.Pi * geo.EarthRadiusMiles
	for _, pair := range [][2]geo.Point{{hostile[0], hostile[1]}, {hostile[3], hostile[5]}, {hostile[10], hostile[11]}, {hostile[12], hostile[13]}} {
		if d := geo.Distance(pair[0], pair[1]); math.Abs(d-half) > 1e-3 {
			t.Fatalf("antipodes %v and %v are %v miles apart, want %v", pair[0], pair[1], d, half)
		}
	}
}

// TestPingFloorIsALowerBound holds PingMs at or above its floor —
// PingFloorPerMile times the chord floor of the pair's distance, plus
// PingFloorCrossingMs for a pair in two ASes — which is what lets a ranking
// pass over a deployment unmeasured: over the hostile geometry and random
// pairs, a third of them in one AS (no crossing adds to the ping), and over
// pairs picked for a noise draw within a thousandth of its top, where the
// ping is nearest its floor. There, up to 500 miles apart and with no more
// crossings than the floor counts, the floor must also be within 1 % of the
// ping, or it would pass over nothing.
func TestPingFloorIsALowerBound(t *testing.T) {
	m := NewDefault()
	perMile, crossing := m.PingFloorPerMile(), m.PingFloorCrossingMs()
	rng := rand.New(rand.NewSource(27))
	point := func() geo.Point {
		return geo.Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
	}
	check := func(a, b Endpoint) (ping, floor float64) {
		t.Helper()
		ping, floor = m.PingMs(a, b), perMile*geo.Prepare(a.Loc).FloorTo(geo.Prepare(b.Loc))
		if a.ASN != b.ASN {
			floor += crossing
		}
		if !(floor <= ping) {
			t.Fatalf("PingMs(%+v, %+v) = %v, below its floor %v", a, b, ping, floor)
		}
		return ping, floor
	}
	endpoint := func(loc geo.Point, asn uint32) Endpoint {
		return Endpoint{ID: rng.Uint64(), Loc: loc, ASN: asn}
	}
	for _, p := range hostile {
		for _, q := range hostile {
			check(endpoint(p, 7), endpoint(q, 7))
			check(endpoint(p, 7), endpoint(q, 8))
		}
	}
	for i := 0; i < 300_000; i++ {
		asn := uint32(rng.Intn(40))
		if i%3 == 0 {
			asn = 0
		}
		check(endpoint(point(), 0), endpoint(point(), asn))
	}
	// The top of the noise draw, in one AS and in two: the ping is
	// propagation and crossings at nearly the floor's rate.
	for found := 0; found < 4000; {
		a := endpoint(point(), 3)
		b := endpoint(a.Loc, 3+uint32(found%2))
		if hash01(&a, &b, m.pingSalt) < 0.999 {
			continue
		}
		found++
		for _, miles := range []float64{0, 1e-6, 0.01, 1, 50, 500, 3000, 12000} {
			b.Loc = geo.Offset(a.Loc, rng.Float64()*360, miles)
			ping, floor := check(a, b)
			if miles >= 1 && miles <= 500 && m.ASCrossings(a, b) <= 1 && floor < 0.99*ping {
				t.Fatalf("%v miles apart at noise draw %v: floor %v is under 99 %% of ping %v",
					miles, hash01(&a, &b, m.pingSalt), floor, ping)
			}
		}
	}
}
