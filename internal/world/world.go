// Package world generates a synthetic but structurally realistic model of
// the global Internet's client and name-server population: countries,
// autonomous systems, /24 client IP blocks with demand, ISP-operated local
// DNS servers (LDNS), and anycast public resolver providers.
//
// It substitutes for the paper's NetSession-derived dataset of 3.76 million
// /24 client blocks and 584 thousand LDNSes across 238 countries. The
// generator is seeded and deterministic, and is parameterised per country
// (see Countries) so that the joint distribution of client demand, client
// location, LDNS location and public-resolver adoption reproduces the
// qualitative structure of the paper's §3 measurement analysis.
package world

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sort"

	"eum/internal/geo"
	"eum/internal/netmodel"
	"eum/internal/par"
)

// Config parameterises world generation. The zero value is not useful;
// use DefaultConfig.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// NumBlocks is the approximate total number of /24 client blocks.
	NumBlocks int
	// Providers are the public resolver providers; nil means
	// DefaultProviders.
	Providers []ProviderSpec
	// IPv6Fraction is the fraction of client blocks numbered from IPv6
	// space (/48 blocks) instead of IPv4 /24s. Zero disables IPv6.
	IPv6Fraction float64
}

// DefaultConfig returns a laptop-scale world: 20k client blocks standing in
// for the paper's 3.76M, preserving relative per-country proportions.
func DefaultConfig() Config {
	return Config{Seed: 1, NumBlocks: 20000}
}

// LDNSKind classifies where an LDNS sits relative to its clients.
type LDNSKind uint8

// LDNS placement kinds.
const (
	KindISPMetro    LDNSKind = iota // in the client's metro area
	KindISPRegional                 // at a regional hub city
	KindISPNational                 // at the country's primary hub
	KindISPOffshore                 // outside the country (enterprise/outsourced)
	KindPublic                      // public resolver provider site
)

// String returns the kind name.
func (k LDNSKind) String() string {
	switch k {
	case KindISPMetro:
		return "isp-metro"
	case KindISPRegional:
		return "isp-regional"
	case KindISPNational:
		return "isp-national"
	case KindISPOffshore:
		return "isp-offshore"
	case KindPublic:
		return "public"
	}
	return "unknown"
}

// LDNS is a recursive resolver as seen by the CDN's authoritative servers.
// For public providers each anycast site is a distinct LDNS, since sites
// contact authoritative servers from their own unicast addresses (§3.2).
type LDNS struct {
	ID          uint64
	Addr        netip.Addr
	Loc         geo.Point
	Kind        LDNSKind
	ASN         uint32 // owning network
	Provider    string // public provider name; empty for ISP resolvers
	Site        string // public provider site name
	SupportsECS bool   // forwards EDNS0 client-subnet (per provider policy)

	// ECSPrefixV4 / ECSPrefixV6 are the source prefix lengths this
	// resolver reveals when it forwards client-subnet information, from
	// its provider's ECS policy (full /24, privacy-truncated /20, ...).
	// Zero means the resolver attaches no ECS (SupportsECS false), or —
	// for ISP resolvers in universal-adoption what-ifs — the simulation's
	// conventional default.
	ECSPrefixV4 uint8
	ECSPrefixV6 uint8

	// Demand is the total demand of client blocks using this LDNS,
	// filled in after block assignment.
	Demand float64
	// Blocks lists the client blocks using this LDNS (its client cluster).
	Blocks []*ClientBlock
}

// Endpoint returns the LDNS as a network-model endpoint.
func (l *LDNS) Endpoint() netmodel.Endpoint {
	return netmodel.Endpoint{ID: l.ID, Loc: l.Loc, ASN: l.ASN, Access: netmodel.AccessBackbone}
}

// IsPublic reports whether the LDNS belongs to a public resolver provider.
func (l *LDNS) IsPublic() bool { return l.Kind == KindPublic }

// AS is an autonomous system originating client demand.
type AS struct {
	ASN     uint32
	Country *Country
	// Demand is the AS's share of total global demand.
	Demand float64
	Blocks []*ClientBlock
	// CIDRs are the AS's BGP announcements covering its /24 blocks.
	CIDRs []netip.Prefix
	// Large marks the country's major ISPs, which run their own
	// distributed LDNS infrastructure; small ASes are more likely to
	// outsource DNS (paper §3.2, Fig 10).
	Large bool

	ldns map[string]*LDNS // lazily created ISP LDNS per placement key
}

// Country is a generated country with its blocks and ASes.
type Country struct {
	Spec   CountrySpec
	Demand float64 // normalised share of global demand
	ASes   []*AS
	Blocks []*ClientBlock
}

// Code returns the ISO-style country code.
func (c *Country) Code() string { return c.Spec.Code }

// ClientBlock is a /24 block of client IPs — the finest-grained mapping
// unit of end-user mapping — with its demand and its chosen LDNS.
type ClientBlock struct {
	ID      uint64
	Prefix  netip.Prefix // a /24
	Loc     geo.Point
	Country *Country
	AS      *AS
	City    string
	Access  netmodel.AccessType
	// Demand is the block's share of total global demand.
	Demand float64
	// LDNS is the resolver this block's clients use.
	LDNS *LDNS
}

// Endpoint returns the block as a network-model endpoint.
func (b *ClientBlock) Endpoint() netmodel.Endpoint {
	return netmodel.Endpoint{ID: b.ID, Loc: b.Loc, ASN: b.AS.ASN, Access: b.Access}
}

// ClientLDNSDistance returns the great-circle distance in miles between the
// block and its LDNS.
func (b *ClientBlock) ClientLDNSDistance() float64 {
	return geo.Distance(b.Loc, b.LDNS.Loc)
}

// World is a fully generated synthetic Internet.
type World struct {
	Config    Config
	Countries []*Country
	ASes      []*AS
	Blocks    []*ClientBlock
	LDNSes    []*LDNS
	Providers []ProviderSpec

	publicSites map[string][]*LDNS // provider -> site LDNSes
	nextID      uint64
	nextASN     uint32
	nextV6      uint64 // next /48 network number (first 48 bits)
}

// Generate builds a world from the configuration. Generation is
// deterministic in cfg.Seed, and bit-identical regardless of the par
// worker count: each country is generated on its own worker from a child
// seed (par.ChildSeed(cfg.Seed, countryIndex)) with country-local
// identifier, ASN and address counters, and the results are renumbered
// into the global namespaces serially in country order.
func Generate(cfg Config) (*World, error) {
	if cfg.NumBlocks <= 0 {
		return nil, fmt.Errorf("world: NumBlocks must be positive, got %d", cfg.NumBlocks)
	}
	if cfg.Providers == nil {
		cfg.Providers = DefaultProviders()
	}
	w := &World{
		Config: cfg, Providers: cfg.Providers,
		publicSites: map[string][]*LDNS{},
		nextV6:      0x260000000000, // 2600::/24-style synthetic space
	}

	w.createPublicResolverSites()

	var totalShare float64
	for _, cs := range Countries {
		totalShare += cs.DemandShare
	}

	gens := par.Map(len(Countries), func(i int) *countryGen {
		cs := Countries[i]
		c := &Country{Spec: cs, Demand: cs.DemandShare / totalShare}
		nBlocks := int(math.Round(c.Demand * float64(cfg.NumBlocks)))
		if nBlocks < 8 {
			nBlocks = 8
		}
		g := &countryGen{
			cfg:         cfg,
			providers:   w.Providers,
			publicSites: w.publicSites,
			c:           c,
			rng:         rand.New(rand.NewSource(par.ChildSeed(cfg.Seed, uint64(i)))),
		}
		g.generate(nBlocks)
		return g
	})

	var ipBase uint32 = 0x01000000 // 1.0.0.0
	for _, g := range gens {
		w.adopt(g, &ipBase)
	}

	// BGP aggregation reads the final (renumbered) prefixes; each AS is
	// independent.
	par.ForEach(len(w.ASes), func(i int) {
		as := w.ASes[i]
		as.CIDRs = aggregateCIDRs(as.Blocks)
	})

	w.normaliseDemand()
	w.fillLDNSClusters()
	return w, nil
}

// adopt renumbers one country's locally-generated entities into the global
// namespaces and appends them to the world. It must run serially, in
// country order: the global offsets it hands out are what keep IDs, ASNs
// and addresses unique and deterministic.
func (w *World) adopt(g *countryGen, ipBase *uint32) {
	idBase := w.nextID
	w.nextID += g.nextID
	asnBase := w.nextASN
	w.nextASN += g.nextASN

	// Keep the country's IPv4 allocation on a /20 boundary. Local
	// addressing started at 0 on the same alignment, so every run and
	// boundary decision the worker made is preserved by the shift.
	if *ipBase%(16*256) != 0 {
		*ipBase += 16*256 - *ipBase%(16*256)
	}
	ipOff := *ipBase
	*ipBase += g.ipBase
	v6Off := w.nextV6
	w.nextV6 += g.nextV6

	for _, as := range g.c.ASes {
		as.ASN += asnBase
		w.ASes = append(w.ASes, as)
	}
	for _, b := range g.c.Blocks {
		b.ID += idBase
		if b.Prefix.Addr().Is4() {
			a := b.Prefix.Addr().As4()
			local := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8
			b.Prefix = netip.PrefixFrom(ipFromUint32(local+ipOff), 24)
		} else {
			b.Prefix = netip.PrefixFrom(ipFromV6Net(v6NetOf(b.Prefix.Addr())+v6Off), 48)
		}
		w.Blocks = append(w.Blocks, b)
	}
	for _, l := range g.ldnses {
		l.ID += idBase
		l.ASN += asnBase
		l.Addr = ipFromUint32(0xB4000000 + uint32(len(w.LDNSes))) // 180.0.0.0+
		w.LDNSes = append(w.LDNSes, l)
	}
	w.Countries = append(w.Countries, g.c)
}

// MustGenerate is Generate that panics on error, for tests and examples.
func MustGenerate(cfg Config) *World {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func (w *World) id() uint64 {
	w.nextID++
	return w.nextID
}

// createPublicResolverSites materialises one LDNS per provider site.
func (w *World) createPublicResolverSites() {
	var siteIP uint32 = 0xD0000000 // 208.0.0.0
	for _, p := range w.Providers {
		v4, v6 := p.ECSPrefixes()
		for _, s := range p.Sites {
			l := &LDNS{
				ID:          w.id(),
				Addr:        ipFromUint32(siteIP),
				Loc:         s.Loc,
				Kind:        KindPublic,
				ASN:         64512, // shared provider ASN space
				Provider:    p.Name,
				Site:        s.Name,
				SupportsECS: v4 > 0 || v6 > 0,
				ECSPrefixV4: v4,
				ECSPrefixV6: v6,
			}
			siteIP += 256
			w.LDNSes = append(w.LDNSes, l)
			w.publicSites[p.Name] = append(w.publicSites[p.Name], l)
		}
	}
}

// countryGen generates one country in isolation so countries can run on
// parallel workers. All identifiers are country-local — IDs and ASNs count
// from zero, IPv4 addresses from 0.0.0.0 (on the same /20 alignment as the
// global space), IPv6 /48s from network 0 — and (*World).adopt later shifts
// them into the global namespaces. Only read-only world state is shared:
// the config, the provider specs and the public resolver sites.
type countryGen struct {
	cfg         Config
	providers   []ProviderSpec
	publicSites map[string][]*LDNS

	c    *Country
	rng  *rand.Rand
	hubs []CitySpec // the country's hub cities (BGP exit candidates)
	// catchRanks memoises sitesFrom.
	catchRanks map[catchKey][]*LDNS

	nextID  uint64
	nextASN uint32
	ipBase  uint32  // local IPv4 offset; starts at 0, /20-aligned
	nextV6  uint64  // local /48 count
	ldnses  []*LDNS // ISP LDNSes in creation order
}

func (g *countryGen) id() uint64 {
	g.nextID++
	return g.nextID
}

func (g *countryGen) generate(nBlocks int) {
	c, rng := g.c, g.rng
	// --- Autonomous systems: Zipf-sized, top ~20% are "large" ISPs. ---
	nAS := nBlocks / 50
	if nAS < 4 {
		nAS = 4
	}
	weights := make([]float64, nAS)
	var wSum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		wSum += weights[i]
	}
	for i := 0; i < nAS; i++ {
		g.nextASN++
		as := &AS{
			ASN:     g.nextASN,
			Country: c,
			Large:   i < (nAS+4)/5,
			ldns:    map[string]*LDNS{},
		}
		c.ASes = append(c.ASes, as)
	}

	// Per-AS public resolver adoption: small ASes outsource more, large
	// ISPs run their own DNS. Scale so the demand-weighted country mean
	// matches the spec's adoption target.
	adopt := make([]float64, nAS)
	var weightedAdopt float64
	for i := range adopt {
		boost := 1.0
		switch {
		case i < nAS/4:
			boost = 0.55
		case i >= nAS*3/4:
			boost = 2.8
		case i >= nAS/2:
			boost = 1.6
		}
		adopt[i] = c.Spec.PublicAdoption * boost
		weightedAdopt += adopt[i] * weights[i] / wSum
	}
	if weightedAdopt > 0 {
		scale := c.Spec.PublicAdoption / weightedAdopt
		for i := range adopt {
			adopt[i] = math.Min(adopt[i]*scale, 0.95)
		}
	}

	// --- City sampling tables. ---
	cities := c.Spec.Cities
	var cityWeightSum float64
	for _, ci := range cities {
		cityWeightSum += ci.Weight
	}
	var hubs []CitySpec
	for _, ci := range cities {
		if ci.Hub {
			hubs = append(hubs, ci)
		}
	}
	if len(hubs) == 0 {
		hubs = cities[:1]
	}
	g.hubs = hubs

	// --- Blocks: multinomial over ASes, then per-block attributes.
	// Each AS gets a contiguous run of /24s so BGP CIDR aggregation
	// (§5.1) has real structure to exploit.
	perAS := make([]int, nAS)
	for b := 0; b < nBlocks; b++ {
		perAS[pickWeighted(rng, weights, wSum)]++
	}
	for asIdx, count := range perAS {
		as := c.ASes[asIdx]
		// Align the AS's allocation to a /20 boundary so aggregates can
		// form (real registries allocate aligned ranges).
		if count > 1 && g.ipBase%(16*256) != 0 {
			g.ipBase += 16*256 - g.ipBase%(16*256)
		}
		// Choose each block's city up front and group the allocation by
		// city: ISPs number regions out of contiguous ranges, so /24s
		// adjacent in IP space are usually adjacent geographically —
		// which is what makes coarser /x mapping units compact (Fig 22).
		cityOf := make([]int, count)
		for k := range cityOf {
			cityOf[k] = pickCity(rng, cities, cityWeightSum)
		}
		sort.Ints(cityOf)
		for k := 0; k < count; k++ {
			ci := cityOf[k]
			// Start each regional (per-city) range on a /20 boundary, as
			// registries hand ISPs aligned per-region allocations.
			if k > 0 && cityOf[k] != cityOf[k-1] && g.ipBase%(16*256) != 0 {
				g.ipBase += 16*256 - g.ipBase%(16*256)
			}
			loc := scatter(rng, cities[ci].Loc, 18, 60)

			var prefix netip.Prefix
			if g.cfg.IPv6Fraction > 0 && rng.Float64() < g.cfg.IPv6Fraction {
				// An IPv6 /48 client block (local network number; adopt
				// shifts it into the global 2600::-style space).
				prefix = netip.PrefixFrom(ipFromV6Net(g.nextV6), 48)
				g.nextV6++
			} else {
				prefix = netip.PrefixFrom(ipFromUint32(g.ipBase), 24)
				g.ipBase += 256
			}

			blk := &ClientBlock{
				ID:      g.id(),
				Prefix:  prefix,
				Loc:     loc,
				Country: c,
				AS:      as,
				City:    cities[ci].Name,
				Access:  pickAccess(rng, c.Spec.InfraTier),
				Demand:  samplePareto(rng, 1.5),
			}

			// Resolver choice: public with the AS's adoption
			// probability, otherwise the ISP LDNS per the country
			// placement profile.
			if rng.Float64() < adopt[asIdx] {
				blk.LDNS = g.pickPublicResolver(blk)
			} else {
				blk.LDNS = g.ispLDNS(blk, hubs)
			}

			as.Blocks = append(as.Blocks, blk)
			c.Blocks = append(c.Blocks, blk)
		}
	}

	// --- Per-AS demand. (BGP CIDR aggregation waits for the final
	// renumbered prefixes; see Generate.) ---
	for _, as := range c.ASes {
		for _, blk := range as.Blocks {
			as.Demand += blk.Demand
		}
	}
}

// ispLDNS returns (creating on first use) the ISP LDNS serving blk, placed
// per the country's LDNS profile. Small ASes skew away from metro
// placement: they centralise or offshore their DNS (paper Fig 10).
func (g *countryGen) ispLDNS(blk *ClientBlock, hubs []CitySpec) *LDNS {
	rng := g.rng
	c := blk.Country
	p := c.Spec.Profile
	if !blk.AS.Large {
		shift := p.Metro * 0.5
		p.Metro -= shift
		p.National += shift * 0.6
		p.Offshore += shift * 0.4
	}
	u := rng.Float64() * (p.Metro + p.Regional + p.National + p.Offshore)

	var kind LDNSKind
	var loc geo.Point
	var key string
	switch {
	case u < p.Metro:
		kind = KindISPMetro
		loc = cityCentre(c.Spec.Cities, blk.City)
		key = "m/" + blk.City
	case u < p.Metro+p.Regional:
		kind = KindISPRegional
		hub := nearestHub(hubs, blk.Loc)
		loc = hub.Loc
		key = "r/" + hub.Name
	case u < p.Metro+p.Regional+p.National:
		kind = KindISPNational
		loc = c.Spec.Cities[0].Loc
		key = "n"
	default:
		kind = KindISPOffshore
		loc = c.Spec.OffshoreHub
		key = "o"
	}
	if l, ok := blk.AS.ldns[key]; ok {
		return l
	}
	l := &LDNS{
		ID: g.id(),
		// Addr is assigned from the global 180.0.0.0+ pool when the
		// country is adopted; until then it is a local placeholder.
		Addr: ipFromUint32(uint32(len(g.ldnses))),
		Loc:  scatter(rng, loc, 3, 10),
		Kind: kind,
		ASN:  blk.AS.ASN,
		// ISP resolvers do not forward client-subnet information; the
		// paper's roll-out targets public resolvers precisely because
		// they are the ones supporting ECS (§4).
		SupportsECS: false,
	}
	blk.AS.ldns[key] = l
	g.ldnses = append(g.ldnses, l)
	return l
}

// pickPublicResolver anycast-routes blk to a provider site. The provider
// is drawn by demand share; the site comes from the provider's anycast
// catchment for the block's origin AS (see catchmentSite) — IP anycast
// follows BGP, not geography, so whole networks land at one site rather
// than each block independently picking its nearest.
func (g *countryGen) pickPublicResolver(blk *ClientBlock) *LDNS {
	return g.catchmentSite(blk, pickProviderIndex(g.rng.Float64(), g.providers))
}

// pickProviderIndex resolves a uniform draw u in [0,1) to a provider by
// accumulated share. The last provider absorbs any remainder (shares that
// sum below 1, or a draw landing past the accumulated total). Termination
// is index-based on purpose: a name-equality check against the final
// provider would short-circuit the accumulation whenever provider names
// repeat (or are empty), silently mis-selecting. Returns -1 only for an
// empty provider list.
func pickProviderIndex(u float64, providers []ProviderSpec) int {
	var acc float64
	for i, p := range providers {
		acc += p.Share
		if u <= acc || i == len(providers)-1 {
			return i
		}
	}
	return -1
}

// catchmentCellDeg quantizes BGP exit geography into ~6-degree cells
// (roughly 400 miles at mid latitudes): path selection toward an anycast
// prefix depends on where traffic exits the origin network, not on the
// client's street address, so every client exiting in one cell shares a
// catchment.
const catchmentCellDeg = 6.0

// quantizeCell snaps a point to the centre of its catchment cell.
func quantizeCell(p geo.Point) geo.Point {
	return geo.Point{
		Lat: (math.Floor(p.Lat/catchmentCellDeg) + 0.5) * catchmentCellDeg,
		Lon: (math.Floor(p.Lon/catchmentCellDeg) + 0.5) * catchmentCellDeg,
	}
}

// catchmentSite routes blk to one of the provider's anycast sites via a
// quantized BGP-path model. The origin AS's preferred exit region decides
// the site: large ISPs peer regionally and hot-potato out of the hub
// nearest the client's region, while small ASes single-home behind one
// transit exit hash-chosen per (AS, provider) — so an entire small AS
// lands at one site, and a large ISP lands whole regions at a time. A
// per-(AS, provider, exit-cell) hash draw misroutes some networks to the
// 2nd/3rd-nearest site with the provider's MisrouteProb, reproducing the
// systematically unlucky origin networks of §3.2 as wide catchments
// rather than per-block noise.
func (g *countryGen) catchmentSite(blk *ClientBlock, provIdx int) *LDNS {
	spec := g.providers[provIdx]
	sites := g.publicSites[spec.Name]
	as := blk.AS

	var exitHub CitySpec
	if as.Large {
		exitHub = nearestHub(g.hubs, blk.Loc)
	} else {
		h := catchHash(g.cfg.Seed, g.c.Spec.Code, as.ASN, spec.Name, 0, 0)
		exitHub = g.hubs[int(h%uint64(len(g.hubs)))]
	}
	exit := quantizeCell(exitHub.Loc)

	// Pick among the sites ranked from the exit cell per its path
	// preference.
	ranked := g.sitesFrom(provIdx, exit)
	idx := 0
	if len(sites) > 1 && spec.MisrouteProb > 0 {
		cellLat := int64(math.Floor(exit.Lat / catchmentCellDeg))
		cellLon := int64(math.Floor(exit.Lon / catchmentCellDeg))
		h := catchHash(g.cfg.Seed, g.c.Spec.Code, as.ASN, spec.Name, cellLat, cellLon)
		if float64(h>>11)/(1<<53) < spec.MisrouteProb {
			idx = 1 + int(splitmix64(h)%uint64(min(2, len(sites)-1)))
		}
	}
	return ranked[idx]
}

// catchKey names one ranking of a provider's sites: from one exit cell.
type catchKey struct {
	prov int
	exit geo.Point
}

// sitesFrom returns provider provIdx's sites by distance from exit, ties
// broken on site ID so the order is total. Exits are cell centres of the
// country's few hubs, so each ranking is made once per country and kept.
func (g *countryGen) sitesFrom(provIdx int, exit geo.Point) []*LDNS {
	key := catchKey{provIdx, exit}
	if ranked, ok := g.catchRanks[key]; ok {
		return ranked
	}
	type siteAt struct {
		miles float64
		l     *LDNS
	}
	sites := g.publicSites[g.providers[provIdx].Name]
	byDist := make([]siteAt, len(sites))
	for i, l := range sites {
		byDist[i] = siteAt{geo.Distance(l.Loc, exit), l}
	}
	slices.SortFunc(byDist, func(a, b siteAt) int {
		if c := cmp.Compare(a.miles, b.miles); c != 0 {
			return c
		}
		return cmp.Compare(a.l.ID, b.l.ID)
	})
	ranked := make([]*LDNS, len(byDist))
	for i, s := range byDist {
		ranked[i] = s.l
	}
	if g.catchRanks == nil {
		g.catchRanks = map[catchKey][]*LDNS{}
	}
	g.catchRanks[key] = ranked
	return ranked
}

// catchHash derives a deterministic 64-bit value for a (seed, country,
// AS, provider, exit-cell) tuple: FNV-1a over the tuple bytes, finished
// with a splitmix64 avalanche. Catchment decisions hash instead of
// consuming the generation rng so they are a stable function of the
// network's identity, independent of block generation order.
func catchHash(seed int64, country string, asn uint32, provider string, cellLat, cellLon int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	for i := 0; i < len(country); i++ {
		h ^= uint64(country[i])
		h *= prime64
	}
	mix(uint64(asn))
	for i := 0; i < len(provider); i++ {
		h ^= uint64(provider[i])
		h *= prime64
	}
	mix(uint64(cellLat))
	mix(uint64(cellLon))
	return splitmix64(h)
}

// splitmix64 finishes a hash with strong avalanche behaviour.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// normaliseDemand rescales block demand so each country's total equals its
// share of a global total of 1.
func (w *World) normaliseDemand() {
	for _, c := range w.Countries {
		var sum float64
		for _, b := range c.Blocks {
			sum += b.Demand
		}
		if sum == 0 {
			continue
		}
		scale := c.Demand / sum
		for _, b := range c.Blocks {
			b.Demand *= scale
		}
	}
	for _, as := range w.ASes {
		as.Demand = 0
		for _, b := range as.Blocks {
			as.Demand += b.Demand
		}
	}
}

// fillLDNSClusters populates each LDNS's demand and client-cluster block
// list.
func (w *World) fillLDNSClusters() {
	for _, b := range w.Blocks {
		b.LDNS.Demand += b.Demand
		b.LDNS.Blocks = append(b.LDNS.Blocks, b)
	}
}

// TotalDemand returns the summed demand of all blocks (≈1 by construction).
func (w *World) TotalDemand() float64 {
	var sum float64
	for _, b := range w.Blocks {
		sum += b.Demand
	}
	return sum
}

// PublicDemandFraction returns the fraction of global demand whose clients
// use public resolvers.
func (w *World) PublicDemandFraction() float64 {
	var pub, total float64
	for _, b := range w.Blocks {
		total += b.Demand
		if b.LDNS.IsPublic() {
			pub += b.Demand
		}
	}
	if total == 0 {
		return 0
	}
	return pub / total
}

// BGPCIDRs returns every AS's announced prefixes — the BGP routing table
// used to aggregate mapping units (§5.1).
func (w *World) BGPCIDRs() []netip.Prefix {
	var out []netip.Prefix
	for _, as := range w.ASes {
		out = append(out, as.CIDRs...)
	}
	return out
}

// --- generation helpers ---

func pickWeighted(rng *rand.Rand, weights []float64, sum float64) int {
	u := rng.Float64() * sum
	var acc float64
	for i, w := range weights {
		acc += w
		if u <= acc {
			return i
		}
	}
	return len(weights) - 1
}

func pickCity(rng *rand.Rand, cities []CitySpec, sum float64) int {
	u := rng.Float64() * sum
	var acc float64
	for i, c := range cities {
		acc += c.Weight
		if u <= acc {
			return i
		}
	}
	return len(cities) - 1
}

// scatter displaces p by an exponentially distributed distance (mean
// meanMiles, capped at capMiles) in a uniform direction.
func scatter(rng *rand.Rand, p geo.Point, meanMiles, capMiles float64) geo.Point {
	d := rng.ExpFloat64() * meanMiles
	if d > capMiles {
		d = capMiles
	}
	return geo.Offset(p, rng.Float64()*360, d)
}

// samplePareto draws from a Pareto distribution with the given shape and
// unit scale, capped so no single block dominates a country: the
// heavy-tailed per-block demand behind Fig 21 (the top ~11% of /24 blocks
// carry half the global demand).
func samplePareto(rng *rand.Rand, shape float64) float64 {
	u := rng.Float64()
	if u >= 1 {
		u = 1 - 1e-12
	}
	v := math.Pow(1-u, -1/shape)
	if v > 100 {
		v = 100
	}
	return v
}

// cityCentre returns the location of the named city.
func cityCentre(cities []CitySpec, name string) geo.Point {
	for _, c := range cities {
		if c.Name == name {
			return c.Loc
		}
	}
	return cities[0].Loc
}

// accessMix[tier-1] gives cumulative probabilities over access types.
var accessMix = [3][]struct {
	t netmodel.AccessType
	p float64
}{
	{{netmodel.AccessFiber, 0.40}, {netmodel.AccessCable, 0.30}, {netmodel.AccessDSL, 0.10}, {netmodel.AccessWiFi, 0.08}, {netmodel.Access4G, 0.10}, {netmodel.AccessCellular, 0.02}},
	{{netmodel.AccessFiber, 0.15}, {netmodel.AccessCable, 0.30}, {netmodel.AccessDSL, 0.25}, {netmodel.AccessWiFi, 0.10}, {netmodel.Access4G, 0.15}, {netmodel.AccessCellular, 0.05}},
	{{netmodel.AccessFiber, 0.05}, {netmodel.AccessCable, 0.12}, {netmodel.AccessDSL, 0.20}, {netmodel.AccessWiFi, 0.10}, {netmodel.Access4G, 0.30}, {netmodel.Access3G, 0.15}, {netmodel.AccessCellular, 0.08}},
}

func pickAccess(rng *rand.Rand, tier int) netmodel.AccessType {
	if tier < 1 {
		tier = 1
	}
	if tier > 3 {
		tier = 3
	}
	mix := accessMix[tier-1]
	u := rng.Float64()
	var acc float64
	for _, m := range mix {
		acc += m.p
		if u <= acc {
			return m.t
		}
	}
	return mix[len(mix)-1].t
}

func nearestHub(hubs []CitySpec, p geo.Point) CitySpec {
	best := hubs[0]
	bestD := geo.Distance(best.Loc, p)
	for _, h := range hubs[1:] {
		if d := geo.Distance(h.Loc, p); d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

func ipFromUint32(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// ipFromV6Net expands a 48-bit network number into the address of its /48.
func ipFromV6Net(n uint64) netip.Addr {
	var b [16]byte
	b[0] = byte(n >> 40)
	b[1] = byte(n >> 32)
	b[2] = byte(n >> 24)
	b[3] = byte(n >> 16)
	b[4] = byte(n >> 8)
	b[5] = byte(n)
	return netip.AddrFrom16(b)
}

// v6NetOf extracts the 48-bit network number of a /48 block address.
func v6NetOf(a netip.Addr) uint64 {
	b := a.As16()
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// aggregateCIDRs greedily covers the AS's blocks with maximal aligned
// prefixes per family, emulating BGP announcement aggregation (§5.1:
// 3.76M /24 blocks collapse to ~517K announced CIDRs). IPv4 /24s
// aggregate up to /21; IPv6 /48s up to /45.
func aggregateCIDRs(blocks []*ClientBlock) []netip.Prefix {
	if len(blocks) == 0 {
		return nil
	}
	var nets4, nets6 []uint64
	for _, b := range blocks {
		if b.Prefix.Addr().Is4() {
			a := b.Prefix.Addr().As4()
			v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8
			nets4 = append(nets4, uint64(v>>8))
		} else {
			nets6 = append(nets6, v6NetOf(b.Prefix.Addr()))
		}
	}
	out := aggregateRuns(nets4, 24, func(n uint64, bits int) netip.Prefix {
		return netip.PrefixFrom(ipFromUint32(uint32(n)<<8), bits)
	})
	out = append(out, aggregateRuns(nets6, 48, func(n uint64, bits int) netip.Prefix {
		return netip.PrefixFrom(ipFromV6Net(n), bits)
	})...)
	return out
}

// aggregateRuns covers sorted network numbers (at leafBits granularity)
// with maximal aligned power-of-two aggregates of at most 8 leaves.
func aggregateRuns(nets []uint64, leafBits int, mk func(n uint64, bits int) netip.Prefix) []netip.Prefix {
	if len(nets) == 0 {
		return nil
	}
	sort.Slice(nets, func(i, j int) bool { return nets[i] < nets[j] })
	var out []netip.Prefix
	i := 0
	for i < len(nets) {
		// Length of the contiguous run starting at nets[i].
		j := i
		for j+1 < len(nets) && nets[j+1] == nets[j]+1 {
			j++
		}
		run := j - i + 1
		start := nets[i]
		// Cover [start, start+run) with maximal aligned power-of-two
		// blocks, capped at 8 leaves: real tables announce many prefixes
		// per AS, giving the paper's ~8.5:1 leaf-to-CIDR ratio.
		for run > 0 {
			size := uint64(1)
			for size*2 <= uint64(run) && size*2 <= 8 && start%(size*2) == 0 {
				size *= 2
			}
			bits := leafBits
			for s := size; s > 1; s /= 2 {
				bits--
			}
			out = append(out, mk(start, bits))
			start += size
			run -= int(size)
		}
		i = j + 1
	}
	return out
}
