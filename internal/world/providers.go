package world

import "eum/internal/geo"

// ECSMode classifies a public provider's EDNS client-subnet policy. The
// 2015 paper's two providers both forwarded full /24 prefixes, but the
// public-resolver era that followed split three ways: some providers
// forward nothing (privacy stance), some truncate the prefix they reveal
// (commonly /20 for IPv4), and some forward the conventional /24 (/48-/56
// for IPv6).
type ECSMode uint8

// ECS policy modes. ECSDefault is the zero value for compatibility with
// pre-existing specs: it resolves to full forwarding when SupportsECS is
// set and none otherwise.
const (
	ECSDefault   ECSMode = iota
	ECSFull              // forward /24 (v4) and /48 (v6)
	ECSTruncated         // forward a privacy-truncated prefix (default /20, /56)
	ECSNone              // never attach ECS
)

// String returns the mode name.
func (m ECSMode) String() string {
	switch m {
	case ECSDefault:
		return "default"
	case ECSFull:
		return "full"
	case ECSTruncated:
		return "truncated"
	case ECSNone:
		return "none"
	}
	return "unknown"
}

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

// ECSPolicy is a provider's client-subnet forwarding behaviour: the mode,
// and (for ECSTruncated) the prefix lengths it truncates to. Zero prefix
// fields take the mode's conventional defaults.
type ECSPolicy struct {
	Mode     ECSMode
	PrefixV4 uint8
	PrefixV6 uint8
}

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
	// client-subnet information (both major providers in the paper do).
	// Kept alongside ECS for compatibility: when ECS.Mode is ECSDefault,
	// SupportsECS selects between full forwarding and none.
	SupportsECS bool
	// ECS refines SupportsECS with the provider's forwarding policy:
	// none, truncated (e.g. /20), or full (/24). The zero value defers
	// to SupportsECS.
	ECS ECSPolicy
}

// ECSPrefixes resolves the provider's policy to the IPv4/IPv6 source
// prefix lengths its sites forward; (0, 0) means the provider sends no
// client-subnet information.
func (p ProviderSpec) ECSPrefixes() (v4, v6 uint8) {
	mode := p.ECS.Mode
	if mode == ECSDefault {
		if p.SupportsECS {
			mode = ECSFull
		} else {
			mode = ECSNone
		}
	}
	switch mode {
	case ECSNone:
		return 0, 0
	case ECSTruncated:
		v4, v6 = ECSTruncatedPrefixV4, ECSTruncatedPrefixV6
	default:
		v4, v6 = ECSFullPrefixV4, ECSFullPrefixV6
	}
	if p.ECS.PrefixV4 > 0 {
		v4 = p.ECS.PrefixV4
	}
	if p.ECS.PrefixV6 > 0 {
		v6 = p.ECS.PrefixV6
	}
	return v4, v6
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
			ECS: ECSPolicy{Mode: ECSFull},
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
			ECS: ECSPolicy{Mode: ECSFull},
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

// ModernProviders returns a public-resolver era provider set for the
// ROADMAP's scenario pack: four providers with the split ECS policies and
// the wider anycast footprints (including South America) of the
// post-paper landscape. One provider truncates ECS to /20, one sends no
// ECS at all — the configurations the /20 grid experiments
// (eumsim -fig ecsgrid / -fig ampgrid) stress.
func ModernProviders() []ProviderSpec {
	sa := []SiteSpec{
		{"sa-br", geo.Point{Lat: -23.55, Lon: -46.63}}, // São Paulo
		{"sa-cl", geo.Point{Lat: -33.45, Lon: -70.67}}, // Santiago
	}
	return []ProviderSpec{
		{
			// Full-/24 forwarder with the broadest footprint.
			Name: "globaldns", Share: 0.55, MisrouteProb: 0.10, SupportsECS: true,
			ECS: ECSPolicy{Mode: ECSFull},
			Sites: append([]SiteSpec{
				{"us-east", geo.Point{Lat: 39.04, Lon: -77.49}},
				{"us-west", geo.Point{Lat: 37.42, Lon: -122.08}},
				{"us-central", geo.Point{Lat: 41.26, Lon: -95.94}},
				{"eu-west", geo.Point{Lat: 53.34, Lon: -6.27}},
				{"eu-central", geo.Point{Lat: 50.11, Lon: 8.68}},
				{"asia-sg", geo.Point{Lat: 1.35, Lon: 103.82}},
				{"asia-jp", geo.Point{Lat: 35.68, Lon: 139.65}},
				{"asia-in", geo.Point{Lat: 19.08, Lon: 72.88}}, // Mumbai
				{"oceania-au", geo.Point{Lat: -33.87, Lon: 151.21}},
			}, sa...),
		},
		{
			// Privacy-truncating forwarder: reveals only /20 (v4) / /56 (v6).
			Name: "quadtrunc", Share: 0.20, MisrouteProb: 0.12, SupportsECS: true,
			ECS: ECSPolicy{Mode: ECSTruncated},
			Sites: []SiteSpec{
				{"us-east", geo.Point{Lat: 40.71, Lon: -74.01}},
				{"us-west", geo.Point{Lat: 34.05, Lon: -118.24}},
				{"eu-west", geo.Point{Lat: 51.51, Lon: -0.13}},
				{"eu-central", geo.Point{Lat: 52.37, Lon: 4.90}},
				{"asia-sg", geo.Point{Lat: 1.35, Lon: 103.82}},
				{"sa-br", geo.Point{Lat: -23.55, Lon: -46.63}},
			},
		},
		{
			// Privacy-absolutist: a wide anycast mesh but no ECS at all.
			Name: "nullsubnet", Share: 0.18, MisrouteProb: 0.08,
			ECS: ECSPolicy{Mode: ECSNone},
			Sites: append([]SiteSpec{
				{"us-east", geo.Point{Lat: 38.90, Lon: -77.04}},
				{"us-west", geo.Point{Lat: 47.61, Lon: -122.33}},
				{"eu-west", geo.Point{Lat: 48.86, Lon: 2.35}},
				{"eu-north", geo.Point{Lat: 59.33, Lon: 18.07}},
				{"asia-jp", geo.Point{Lat: 35.68, Lon: 139.65}},
				{"asia-hk", geo.Point{Lat: 22.32, Lon: 114.17}},
				{"oceania-au", geo.Point{Lat: -33.87, Lon: 151.21}},
			}, sa...),
		},
		{
			// Legacy regional provider still forwarding full prefixes.
			Name: "openresolve", Share: 0.07, MisrouteProb: 0.12, SupportsECS: true,
			Sites: []SiteSpec{
				{"us-east", geo.Point{Lat: 40.71, Lon: -74.01}},
				{"eu-central", geo.Point{Lat: 52.37, Lon: 4.90}},
				{"asia-sg", geo.Point{Lat: 1.35, Lon: 103.82}},
			},
		},
	}
}
