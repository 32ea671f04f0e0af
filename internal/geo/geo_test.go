package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Well-known city coordinates used as distance fixtures.
var (
	boston   = Point{42.3601, -71.0589}
	london   = Point{51.5074, -0.1278}
	sydney   = Point{-33.8688, 151.2093}
	tokyo    = Point{35.6762, 139.6503}
	saoPaulo = Point{-23.5505, -46.6333}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		want float64 // miles
		tol  float64
	}{
		{"boston-london", boston, london, 3275, 25},
		{"london-sydney", london, sydney, 10560, 60},
		{"tokyo-saopaulo", tokyo, saoPaulo, 11530, 60},
		{"same-point", boston, boston, 0, 1e-9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Distance(c.a, c.b)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("Distance(%v,%v) = %.1f, want %.1f ± %.0f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		p := Point{wrapLat(lat1), wrapLon(lon1)}
		q := Point{wrapLat(lat2), wrapLon(lon2)}
		d1, d2 := Distance(p, q), Distance(q, p)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randPoint(rng)
		b := randPoint(rng)
		c := randPoint(rng)
		if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		p := Point{wrapLat(lat1), wrapLon(lon1)}
		q := Point{wrapLat(lat2), wrapLon(lon2)}
		d := Distance(p, q)
		return d >= 0 && d <= math.Pi*EarthRadiusMiles+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceAntipodes(t *testing.T) {
	p := Point{40, 30}
	q := Point{-40, -150}
	got := Distance(p, q)
	want := math.Pi * EarthRadiusMiles
	if math.Abs(got-want) > 1 {
		t.Errorf("antipodal distance = %.2f, want %.2f", got, want)
	}
}

func TestCentroidSinglePoint(t *testing.T) {
	c, ok := Centroid([]Weighted{{boston, 3.5}})
	if !ok {
		t.Fatal("Centroid returned !ok for a single weighted point")
	}
	if Distance(c, boston) > 0.01 {
		t.Errorf("centroid of single point = %v, want %v", c, boston)
	}
}

func TestCentroidEmptyAndZeroWeight(t *testing.T) {
	if _, ok := Centroid(nil); ok {
		t.Error("Centroid(nil) should report !ok")
	}
	if _, ok := Centroid([]Weighted{{boston, 0}}); ok {
		t.Error("Centroid of zero-weight points should report !ok")
	}
}

func TestCentroidAntipodal(t *testing.T) {
	pts := []Weighted{
		{Point{0, 0}, 1},
		{Point{0, 180}, 1},
	}
	if _, ok := Centroid(pts); ok {
		t.Error("Centroid of perfectly antipodal equal mass should report !ok")
	}
}

func TestCentroidWeighting(t *testing.T) {
	// A heavy point should dominate the centroid.
	pts := []Weighted{
		{boston, 1000},
		{london, 1},
	}
	c, ok := Centroid(pts)
	if !ok {
		t.Fatal("unexpected !ok")
	}
	if d := Distance(c, boston); d > 10 {
		t.Errorf("weighted centroid %v is %.1f mi from dominant point, want < 10", c, d)
	}
}

func TestCentroidAntimeridianCluster(t *testing.T) {
	// Two points straddling the antimeridian near Fiji: a naive lat/lon
	// average would land near lon 0 on the wrong side of the planet.
	a := Point{-17, 179}
	b := Point{-17, -179}
	c, ok := Centroid([]Weighted{{a, 1}, {b, 1}})
	if !ok {
		t.Fatal("unexpected !ok")
	}
	if Distance(c, Point{-17, 180}) > 30 {
		t.Errorf("antimeridian centroid = %v, want near (-17, 180)", c)
	}
}

func TestRadiusSymmetricPair(t *testing.T) {
	// Radius of two equal-weight points is half the pairwise distance
	// (to first order; great-circle curvature keeps it close).
	d := Distance(boston, london)
	r := Radius([]Weighted{{boston, 1}, {london, 1}})
	if math.Abs(r-d/2) > d*0.02 {
		t.Errorf("radius = %.1f, want ≈ %.1f", r, d/2)
	}
}

func TestRadiusZero(t *testing.T) {
	if r := Radius(nil); r != 0 {
		t.Errorf("Radius(nil) = %v, want 0", r)
	}
	if r := Radius([]Weighted{{boston, 5}}); r > 0.01 {
		t.Errorf("Radius(single) = %v, want ~0", r)
	}
}

func TestMeanDistanceTo(t *testing.T) {
	pts := []Weighted{{boston, 2}, {london, 2}}
	m := MeanDistanceTo(pts, boston)
	want := Distance(boston, london) / 2
	if math.Abs(m-want) > 0.5 {
		t.Errorf("MeanDistanceTo = %.2f, want %.2f", m, want)
	}
	if MeanDistanceTo(nil, boston) != 0 {
		t.Error("MeanDistanceTo(nil) != 0")
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(boston, london)
	d1, d2 := Distance(m, boston), Distance(m, london)
	if math.Abs(d1-d2) > 5 {
		t.Errorf("midpoint distances differ: %.1f vs %.1f", d1, d2)
	}
	total := Distance(boston, london)
	if math.Abs(d1+d2-total) > total*0.01 {
		t.Errorf("midpoint not on great circle: %.1f + %.1f != %.1f", d1, d2, total)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		p := randPoint(rng)
		brg := rng.Float64() * 360
		dist := rng.Float64() * 3000
		q := Offset(p, brg, dist)
		if !q.IsValid() {
			t.Fatalf("Offset produced invalid point %v from %v brg=%f d=%f", q, p, brg, dist)
		}
		got := Distance(p, q)
		if math.Abs(got-dist) > 1 {
			t.Fatalf("Offset distance = %.2f, want %.2f (p=%v brg=%.1f)", got, dist, p, brg)
		}
	}
}

func TestOffsetZeroDistance(t *testing.T) {
	q := Offset(boston, 123, 0)
	if Distance(q, boston) > 1e-6 {
		t.Errorf("Offset by 0 moved the point: %v -> %v", boston, q)
	}
}

func TestIsValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.IsValid(); got != c.want {
			t.Errorf("IsValid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{42.36011, -71.05890}).String(); s != "42.3601,-71.0589" {
		t.Errorf("String() = %q", s)
	}
}

func randPoint(rng *rand.Rand) Point {
	// Uniform on the sphere via acos of uniform z.
	z := rng.Float64()*2 - 1
	lat := math.Asin(z) * 180 / math.Pi
	lon := rng.Float64()*360 - 180
	return Point{lat, lon}
}

func wrapLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 180) - 90
}

func wrapLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 360) - 180
}

// hostile lists the geometry a distance gets wrong first: one point twice,
// the poles, both sides of the antimeridian, and antipodes, where rounding
// can push the haversine's argument past 1.
var hostile = []Point{
	{0, 0}, {0, 180}, {0, -180},
	{90, 0}, {90, 77}, {-90, 0}, {-90, -120},
	{12.5, 179.9999}, {12.5, -179.9999}, {-12.5, 0.0001},
	{42.36, -71.06}, {-42.36, 108.94},
	{45, 45}, {-45, -135},
	{1e-9, 1e-9}, {89.999999, 179.999999},
}

// TestFloorToIsALowerBound holds FloorTo at or below DistanceTo — the
// soundness a search that discards points on the floor rests on — over the
// hostile geometry — every pair of it, and each point against itself
// nudged by a few ulps — and 10⁶ random pairs, two thirds of them a random
// point and one nearby at every scale from a micrometre to a hemisphere.
// Below 100 miles the floor must also be within a hundredth of a mile of
// the distance, or it would discard nothing.
func TestFloorToIsALowerBound(t *testing.T) {
	check := func(p, q Point) {
		t.Helper()
		pp, pq := Prepare(p), Prepare(q)
		d, f := pp.DistanceTo(pq), pp.FloorTo(pq)
		if !(f <= d) {
			t.Fatalf("FloorTo(%v, %v) = %v, DistanceTo = %v", p, q, f, d)
		}
		if d < 100 && d-f > 0.01 {
			t.Fatalf("FloorTo(%v, %v) = %v is %v below a %v-mile distance", p, q, f, d-f, d)
		}
	}
	for _, p := range hostile {
		for _, q := range hostile {
			check(p, q)
		}
		near := p
		for k := 0; k < 4; k++ {
			near.Lat, near.Lon = math.Nextafter(near.Lat, 0), math.Nextafter(near.Lon, 0)
			check(p, near)
			check(near, p)
		}
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 1_000_000; i++ {
		p := randPoint(rng)
		q := randPoint(rng)
		if i%3 != 0 {
			// Up to 90° away, log-uniform down to 1e-11° (about a micrometre).
			scale := math.Pow(10, -11+rng.Float64()*12.95)
			q = Point{
				Lat: math.Max(-90, math.Min(90, p.Lat+scale*(rng.Float64()*2-1))),
				Lon: math.Mod(p.Lon+scale*(rng.Float64()*2-1)+540, 360) - 180,
			}
		}
		check(p, q)
	}
}
