// Package geo provides geographic primitives used throughout the mapping
// system: points on the globe, great-circle distances, centroids, and
// weighted cluster radii.
//
// The paper measures all client-LDNS and client-server proximity as the
// great circle distance in miles between geolocated endpoints, and defines a
// client cluster's radius as the demand-weighted mean distance of its
// members to the demand-weighted centroid. This package implements exactly
// those definitions.
//
// Prepared.DistanceTo owns the haversine; it is the only one in the
// repository. Distance prepares both points and calls it, and callers that
// measure one point against many (the network model's row kernel, the
// scorer's nearest-target search) prepare each point once and call it
// directly. Both routes do the same operations in the same order, so they
// return the same bits.
//
// Prepared.FloorTo is the cheap side of a search: the straight-line chord
// between the two points, scaled to miles and shaved by a margin, so it is
// never above DistanceTo. A search that only wants the nearest few of many
// points skips the haversine of any point whose floor already loses.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMiles is the mean Earth radius in miles, the constant used to
// convert central angles to great-circle distances.
const EarthRadiusMiles = 3958.8

// Point is a location on the Earth's surface in decimal degrees.
// The zero value is the (0°N, 0°E) "null island" point, which is a valid
// location; use IsValid to detect out-of-range coordinates.
type Point struct {
	Lat float64 // latitude in degrees, north positive, in [-90, 90]
	Lon float64 // longitude in degrees, east positive, in [-180, 180]
}

// IsValid reports whether p has in-range latitude and longitude.
func (p Point) IsValid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String renders the point as "lat,lon" with 4 decimal places
// (roughly 10 m of precision, far finer than city granularity).
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

// Prepared is a point with its latitude trigonometry done: the form to keep
// when one point is measured against many (a deployment against every ping
// target, a ping target against every deployment), so that radians(lat) and
// cos(lat) are computed once per point instead of once per pair. It also
// holds the point as a unit vector, which FloorTo measures chords between.
type Prepared struct {
	latRad, cosLat float64 // radians(Lat), cos(radians(Lat))
	lon            float64 // degrees, as given
	x, y, z        float64 // the point on the unit sphere
}

// Prepare does p's share of every distance it will take part in.
func Prepare(p Point) Prepared {
	q := prepareLat(p)
	lon := radians(p.Lon)
	q.x, q.y, q.z = q.cosLat*math.Cos(lon), q.cosLat*math.Sin(lon), math.Sin(q.latRad)
	return q
}

// prepareLat is Prepare without the unit vector: all DistanceTo reads, for
// a point measured once.
func prepareLat(p Point) Prepared {
	lat := radians(p.Lat)
	return Prepared{latRad: lat, cosLat: math.Cos(lat), lon: p.Lon}
}

// DistanceTo returns the great-circle distance in miles from p to q by the
// haversine formula, which is numerically stable for nearby points (unlike
// the spherical law of cosines). This is the repository's one haversine:
// Distance, the network model's metrics and the scorer's row kernel all end
// here, so they agree to the last bit.
func (p Prepared) DistanceTo(q Prepared) float64 {
	dLat := q.latRad - p.latRad
	dLon := radians(q.lon - p.lon)
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + p.cosLat*q.cosLat*sinLon*sinLon
	// Clamp to [0,1] to guard against floating-point drift for antipodes.
	if a > 1 {
		a = 1
	}
	return 2 * EarthRadiusMiles * math.Asin(math.Sqrt(a))
}

// Margins that keep FloorTo below DistanceTo despite rounding in both: a
// relative one, far wider than the few ulps either computation is off by,
// and an absolute one for points so close that the chord's subtraction
// cancels to its rounding error.
const (
	floorShave = 1 - 1e-9
	floorSlack = 1e-6 // miles
)

// FloorTo returns a lower bound on p.DistanceTo(q) in miles: the chord
// between the two points on the unit sphere — never longer than the arc —
// times the Earth's radius, less the margins. It costs one square root
// where the haversine costs two sines, an arcsine and a square root, and
// it falls short of the arc by less than a mile up to ~700 miles apart, so
// a search for the nearest few of many points can discard the rest on it
// without taking their distances.
func (p Prepared) FloorTo(q Prepared) float64 {
	dx, dy, dz := p.x-q.x, p.y-q.y, p.z-q.z
	return EarthRadiusMiles*math.Sqrt(dx*dx+dy*dy+dz*dz)*floorShave - floorSlack
}

// Distance returns the great-circle distance in miles between p and q.
func Distance(p, q Point) float64 {
	return prepareLat(p).DistanceTo(prepareLat(q))
}

// Weighted pairs a point with a nonnegative weight, typically the client
// demand originating at that point.
type Weighted struct {
	Point  Point
	Weight float64
}

// Centroid returns the demand-weighted centroid of the given points.
// Points are converted to 3-D unit vectors, averaged, and projected back to
// the sphere, so clusters that straddle the antimeridian are handled
// correctly. The second return value is false when the total weight is zero
// (including an empty input) or when the weighted vectors cancel exactly.
func Centroid(points []Weighted) (Point, bool) {
	var x, y, z, total float64
	for _, wp := range points {
		if wp.Weight <= 0 {
			continue
		}
		lat, lon := radians(wp.Point.Lat), radians(wp.Point.Lon)
		cl := math.Cos(lat)
		x += wp.Weight * cl * math.Cos(lon)
		y += wp.Weight * cl * math.Sin(lon)
		z += wp.Weight * math.Sin(lat)
		total += wp.Weight
	}
	if total == 0 {
		return Point{}, false
	}
	x, y, z = x/total, y/total, z/total
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		// Perfectly antipodal mass distribution: centroid undefined.
		return Point{}, false
	}
	return Point{
		Lat: math.Atan2(z, math.Hypot(x, y)) * 180 / math.Pi,
		Lon: math.Atan2(y, x) * 180 / math.Pi,
	}, true
}

// Radius returns the demand-weighted mean distance in miles from each point
// to the cluster centroid — the paper's definition of a client cluster's
// radius. It returns 0 for empty or zero-weight inputs.
func Radius(points []Weighted) float64 {
	c, ok := Centroid(points)
	if !ok {
		return 0
	}
	return MeanDistanceTo(points, c)
}

// MeanDistanceTo returns the demand-weighted mean great-circle distance in
// miles from the points to ref. It returns 0 when the total weight is zero.
func MeanDistanceTo(points []Weighted, ref Point) float64 {
	var sum, total float64
	for _, wp := range points {
		if wp.Weight <= 0 {
			continue
		}
		sum += wp.Weight * Distance(wp.Point, ref)
		total += wp.Weight
	}
	if total == 0 {
		return 0
	}
	return sum / total
}

// Offset returns the point reached by travelling dist miles from p on the
// initial bearing (degrees clockwise from north). It is used by the world
// generator to scatter clients around city centres.
func Offset(p Point, bearingDeg, dist float64) Point {
	ang := dist / EarthRadiusMiles
	brg := radians(bearingDeg)
	lat1, lon1 := radians(p.Lat), radians(p.Lon)
	sinLat2 := math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brg)
	lat2 := math.Asin(clamp(sinLat2, -1, 1))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(ang)*math.Cos(lat1),
		math.Cos(ang)-math.Sin(lat1)*sinLat2,
	)
	// Normalise longitude to [-180, 180).
	lonDeg := math.Mod(lon2*180/math.Pi+540, 360) - 180
	return Point{Lat: lat2 * 180 / math.Pi, Lon: lonDeg}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
