package world

import (
	"slices"
	"sort"
	"testing"

	"eum/internal/geo"
)

// TestPickProviderIndexDegenerate pins the share-accumulation fix: the
// loop must terminate on the last *index*, not on name equality with the
// last provider. With duplicate (or empty) provider names, a
// name-equality check short-circuits on the first iteration and silently
// mis-selects; with shares summing below 1, the last provider must absorb
// the remainder.
func TestPickProviderIndexDegenerate(t *testing.T) {
	dup := []ProviderSpec{
		{Name: "mirror", Share: 0.5},
		{Name: "other", Share: 0.3},
		{Name: "mirror", Share: 0.2},
	}
	empty := []ProviderSpec{
		{Name: "", Share: 0.5},
		{Name: "", Share: 0.5},
	}
	deficit := []ProviderSpec{
		{Name: "a", Share: 0.3},
		{Name: "b", Share: 0.3},
	}
	cases := []struct {
		name      string
		providers []ProviderSpec
		u         float64
		want      int
	}{
		{"dup-first-band", dup, 0.4, 0},
		{"dup-middle-band", dup, 0.6, 1}, // name check would pick index 0
		{"dup-last-band", dup, 0.95, 2},
		{"empty-names-second", empty, 0.7, 1}, // name check would pick index 0
		{"deficit-remainder", deficit, 0.9, 1},
		{"deficit-first", deficit, 0.1, 0},
		{"single", deficit[:1], 0.99, 0},
		{"none", nil, 0.5, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := pickProviderIndex(c.u, c.providers); got != c.want {
				t.Errorf("pickProviderIndex(%v) = %d, want %d", c.u, got, c.want)
			}
		})
	}
}

// TestProviderShareDistribution checks the share draw still lands
// providers proportionally on the default set (the fix must not change
// well-formed selection).
func TestProviderShareDistribution(t *testing.T) {
	byProv := map[string]int{}
	total := 0
	for _, b := range testWorld.Blocks {
		if b.LDNS.IsPublic() {
			byProv[b.LDNS.Provider]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no public blocks")
	}
	frac := float64(byProv["globaldns"]) / float64(total)
	if frac < 0.55 || frac > 0.85 {
		t.Errorf("globaldns share = %.2f, want ~0.70", frac)
	}
}

// countryHubs recomputes the hub list generation used for a country spec.
func countryHubs(cs CountrySpec) []CitySpec {
	var hubs []CitySpec
	for _, ci := range cs.Cities {
		if ci.Hub {
			hubs = append(hubs, ci)
		}
	}
	if len(hubs) == 0 {
		hubs = cs.Cities[:1]
	}
	return hubs
}

// TestCatchmentsAreWide checks the quantized BGP-path model's core
// property: site choice is a function of (AS, provider, exit region), so
// a small (single-homed) AS lands every one of its public blocks with a
// given provider at exactly one site, and a large ISP's blocks that share
// an exit region share a site — wide catchments, not per-block noise.
func TestCatchmentsAreWide(t *testing.T) {
	type key struct {
		asn      uint32
		provider string
		cellLat  float64
		cellLon  float64
	}
	sites := map[key]*LDNS{}
	groups := 0
	for _, b := range testWorld.Blocks {
		if !b.LDNS.IsPublic() {
			continue
		}
		k := key{asn: b.AS.ASN, provider: b.LDNS.Provider}
		if b.AS.Large {
			hubs := countryHubs(b.Country.Spec)
			cell := quantizeCell(nearestHub(hubs, b.Loc).Loc)
			k.cellLat, k.cellLon = cell.Lat, cell.Lon
		}
		if prev, ok := sites[k]; ok {
			if prev != b.LDNS {
				t.Fatalf("AS %d (%s, large=%v) split across sites %s and %s within one catchment",
					b.AS.ASN, b.LDNS.Provider, b.AS.Large, prev.Site, b.LDNS.Site)
			}
		} else {
			sites[k] = b.LDNS
			groups++
		}
	}
	if groups == 0 {
		t.Fatal("no public catchment groups")
	}
}

// TestCatchmentMisrouteIsPerNetwork checks misrouting correlates by
// origin network: within a catchment either every block is at the
// region's nearest site or none is. (The whole-catchment invariant above
// already implies it; here we additionally require both populations to
// exist, i.e. some whole networks are systematically unlucky.)
func TestCatchmentMisrouteIsPerNetwork(t *testing.T) {
	nearest, misrouted := 0, 0
	for _, b := range testWorld.Blocks {
		if !b.LDNS.IsPublic() || b.AS.Large {
			continue
		}
		sites := testWorld.publicSites[b.LDNS.Provider]
		best := sites[0]
		for _, s := range sites[1:] {
			if geo.Distance(s.Loc, b.Loc) < geo.Distance(best.Loc, b.Loc) {
				best = s
			}
		}
		if best == b.LDNS {
			nearest++
		} else {
			misrouted++
		}
	}
	if nearest == 0 || misrouted == 0 {
		t.Fatalf("small-AS public blocks: nearest=%d misrouted=%d, want both populations",
			nearest, misrouted)
	}
}

// TestECSPolicyPrefixes pins the policy -> prefix resolution table.
func TestECSPolicyPrefixes(t *testing.T) {
	cases := []struct {
		name   string
		spec   ProviderSpec
		v4, v6 uint8
	}{
		{"default-on", ProviderSpec{SupportsECS: true}, 24, 48},
		{"default-off", ProviderSpec{}, 0, 0},
		{"full", ProviderSpec{ECS: ECSPolicy{Mode: ECSFull}}, 24, 48},
		{"truncated", ProviderSpec{ECS: ECSPolicy{Mode: ECSTruncated}}, 20, 56},
		{"truncated-custom", ProviderSpec{ECS: ECSPolicy{Mode: ECSTruncated, PrefixV4: 16, PrefixV6: 40}}, 16, 40},
		{"none-wins", ProviderSpec{SupportsECS: true, ECS: ECSPolicy{Mode: ECSNone}}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v4, v6 := c.spec.ECSPrefixes()
			if v4 != c.v4 || v6 != c.v6 {
				t.Errorf("ECSPrefixes() = (%d, %d), want (%d, %d)", v4, v6, c.v4, c.v6)
			}
		})
	}
}

// TestModernProvidersWorld generates a world on the public-resolver era
// provider set and checks the per-site ECS policy threading: truncating
// providers stamp /20 (/56) on their sites, no-ECS providers produce
// public sites that do not support ECS at all.
func TestModernProvidersWorld(t *testing.T) {
	var share float64
	for _, p := range ModernProviders() {
		share += p.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("modern provider shares sum to %v", share)
	}
	w := MustGenerate(Config{Seed: 3, NumBlocks: 3000, Providers: ModernProviders()})
	counts := map[string]int{}
	for _, l := range w.LDNSes {
		if !l.IsPublic() {
			if l.SupportsECS || l.ECSPrefixV4 != 0 {
				t.Fatalf("ISP LDNS %v carries public ECS policy", l.Addr)
			}
			continue
		}
		counts[l.Provider]++
		switch l.Provider {
		case "globaldns", "openresolve":
			if !l.SupportsECS || l.ECSPrefixV4 != 24 || l.ECSPrefixV6 != 48 {
				t.Fatalf("%s/%s: full provider site has prefixes (%d, %d)",
					l.Provider, l.Site, l.ECSPrefixV4, l.ECSPrefixV6)
			}
		case "quadtrunc":
			if !l.SupportsECS || l.ECSPrefixV4 != 20 || l.ECSPrefixV6 != 56 {
				t.Fatalf("%s/%s: truncating provider site has prefixes (%d, %d)",
					l.Provider, l.Site, l.ECSPrefixV4, l.ECSPrefixV6)
			}
		case "nullsubnet":
			if l.SupportsECS || l.ECSPrefixV4 != 0 || l.ECSPrefixV6 != 0 {
				t.Fatalf("%s/%s: no-ECS provider site claims ECS support", l.Provider, l.Site)
			}
		default:
			t.Fatalf("unexpected provider %q", l.Provider)
		}
	}
	for _, name := range []string{"globaldns", "quadtrunc", "nullsubnet", "openresolve"} {
		if counts[name] == 0 {
			t.Fatalf("provider %s has no sites in the world", name)
		}
	}
	// Demand flows to no-ECS sites too: the share draw is policy-blind.
	var null float64
	for _, b := range w.Blocks {
		if b.LDNS.IsPublic() && b.LDNS.Provider == "nullsubnet" {
			null += b.Demand
		}
	}
	if null == 0 {
		t.Fatal("no demand routed to the no-ECS provider")
	}
}

// TestECSModeString covers the mode name table.
func TestECSModeString(t *testing.T) {
	want := map[ECSMode]string{
		ECSDefault: "default", ECSFull: "full", ECSTruncated: "truncated", ECSNone: "none",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("mode %d stringifies to %q, want %q", m, m.String(), s)
		}
	}
	if ECSMode(99).String() != "unknown" {
		t.Error("invalid mode should stringify to unknown")
	}
}

// TestSitesFromMatchesSortedScan holds the catchment ranking, made once
// per (provider, exit cell) and kept, to the per-block sort it replaced —
// every site's distance from the exit, ties on site ID — for every
// provider from every catchment cell on the globe, asked twice.
func TestSitesFromMatchesSortedScan(t *testing.T) {
	g := &countryGen{providers: testWorld.Providers, publicSites: testWorld.publicSites}
	for lat := -90.0; lat < 90; lat += catchmentCellDeg {
		for lon := -180.0; lon < 180; lon += catchmentCellDeg {
			exit := quantizeCell(geo.Point{Lat: lat, Lon: lon})
			for prov, spec := range g.providers {
				want := slices.Clone(g.publicSites[spec.Name])
				sort.Slice(want, func(i, j int) bool {
					di, dj := geo.Distance(want[i].Loc, exit), geo.Distance(want[j].Loc, exit)
					if di != dj {
						return di < dj
					}
					return want[i].ID < want[j].ID
				})
				for range 2 {
					if got := g.sitesFrom(prov, exit); !slices.Equal(got, want) {
						t.Fatalf("provider %s from %v: sites ranked %v, the sort says %v", spec.Name, exit, got, want)
					}
				}
			}
		}
	}
}
