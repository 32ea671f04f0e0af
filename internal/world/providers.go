package world

import "eum/internal/geo"

// Conventional and truncated ECS source prefix lengths. Full forwarding
// reveals the mapping unit (/24 v4, /48 v6); truncation reveals less than
// one IPv4 unit (/20) while the IPv6 default follows RFC 7871's /56
// recommendation.
const (
	ECSFullPrefixV4      uint8 = 24
	ECSFullPrefixV6      uint8 = 48
	ECSTruncatedPrefixV4 uint8 = 20
	ECSTruncatedPrefixV6 uint8 = 56
)

// ProviderSpec describes a public resolver provider: a third-party DNS
// service reached via IP anycast (paper §3.2). Each site answers clients
// routed to it and talks to authoritative servers from a unicast address,
// which is how the CDN geolocates the LDNS.
type ProviderSpec struct {
	Name string
	// Share is the provider's share of public-resolver demand.
	Share float64
	// Sites are the provider's resolver deployments. The paper notes the
	// largest provider had no South American presence at the time, which
	// is why Argentina and Brazil saw the largest client-LDNS distances
	// (Fig 8); the default site lists reproduce that gap.
	Sites []SiteSpec
	// MisrouteProb is the probability anycast routes an origin AS to a
	// non-nearest site (BGP path selection is not geographic; paper cites
	// known anycast limitations [23]). Misrouting is decided per origin
	// AS and exit region, not per client block: whole networks land at
	// the wrong site together.
	MisrouteProb float64
	// SupportsECS reports whether the provider forwards EDNS0
	// client-subnet information, at the full /24 (v4) and /48 (v6): both
	// major providers in the paper do.
	SupportsECS bool
}

// SiteSpec is one resolver deployment site of a public provider.
type SiteSpec struct {
	Name string
	Loc  geo.Point
}

// DefaultProviders returns the two modelled public resolver providers,
// patterned after the major providers in the paper (a Google-Public-DNS-like
// provider and an OpenDNS-like provider), with 2014-era footprints: no
// South American sites, Asia served mainly from Singapore/Tokyo/Taiwan.
func DefaultProviders() []ProviderSpec {
	return []ProviderSpec{
		{
			Name: "globaldns", Share: 0.70, MisrouteProb: 0.15, SupportsECS: true,
			Sites: []SiteSpec{
				{"us-east", geo.Point{Lat: 39.04, Lon: -77.49}},     // Ashburn
				{"us-west", geo.Point{Lat: 37.42, Lon: -122.08}},    // Mountain View
				{"us-central", geo.Point{Lat: 41.26, Lon: -95.94}},  // Council Bluffs
				{"eu-west", geo.Point{Lat: 53.34, Lon: -6.27}},      // Dublin
				{"eu-central", geo.Point{Lat: 50.11, Lon: 8.68}},    // Frankfurt
				{"eu-north", geo.Point{Lat: 53.55, Lon: 9.99}},      // Hamburg
				{"asia-sg", geo.Point{Lat: 1.35, Lon: 103.82}},      // Singapore
				{"asia-tw", geo.Point{Lat: 24.05, Lon: 120.52}},     // Changhua
				{"asia-jp", geo.Point{Lat: 35.68, Lon: 139.65}},     // Tokyo
				{"oceania-au", geo.Point{Lat: -33.87, Lon: 151.21}}, // Sydney
			},
		},
		{
			Name: "openresolve", Share: 0.30, MisrouteProb: 0.12, SupportsECS: true,
			Sites: []SiteSpec{
				{"us-east", geo.Point{Lat: 40.71, Lon: -74.01}},  // New York
				{"us-west", geo.Point{Lat: 34.05, Lon: -118.24}}, // Los Angeles
				{"eu-west", geo.Point{Lat: 51.51, Lon: -0.13}},   // London
				{"eu-central", geo.Point{Lat: 52.37, Lon: 4.90}}, // Amsterdam
				{"asia-sg", geo.Point{Lat: 1.35, Lon: 103.82}},   // Singapore
				{"asia-hk", geo.Point{Lat: 22.32, Lon: 114.17}},  // Hong Kong
			},
		},
	}
}
