package experiments

import (
	"math/rand"
	"net/netip"

	"eum/internal/geo"
	"eum/internal/world"
)

// geoDB is the geolocation-error figure's Edgescape: a database mapping IP
// prefixes to geographic location (§2.2: "geographic information ... is
// deduced for IPs around the world using various data sources and
// geolocation methods"). Real geolocation is imperfect, so the builder
// injects deterministic error: a fraction of prefixes mislocated by a fixed
// distance in a random direction.
type geoDB map[netip.Prefix]geo.Point

// buildGeoDB records every client block (at its /24 or /48 prefix) and
// every LDNS address (/32 or /128), displacing each with probability
// mislocate by errorMiles, drawn from a source seeded with seed.
func buildGeoDB(w *world.World, seed int64, mislocate, errorMiles float64) geoDB {
	rng := rand.New(rand.NewSource(seed))
	db := make(geoDB, len(w.Blocks)+len(w.LDNSes))
	add := func(p netip.Prefix, loc geo.Point) {
		if mislocate > 0 && rng.Float64() < mislocate {
			loc = geo.Offset(loc, rng.Float64()*360, errorMiles)
		}
		db[p] = loc
	}
	for _, b := range w.Blocks {
		add(b.Prefix, b.Loc)
	}
	for _, l := range w.LDNSes {
		p, err := l.Addr.Prefix(l.Addr.BitLen())
		if err != nil {
			continue
		}
		add(p, l.Loc)
	}
	return db
}

// locate returns the location of the longest recorded prefix covering addr.
func (db geoDB) locate(addr netip.Addr) (geo.Point, bool) {
	addr = addr.Unmap()
	for bits := addr.BitLen(); bits >= 8; bits-- {
		p, err := addr.Prefix(bits)
		if err != nil {
			return geo.Point{}, false
		}
		if loc, ok := db[p]; ok {
			return loc, true
		}
	}
	return geo.Point{}, false
}
