// Package resolver simulates recursive resolvers (LDNSes) with TTL caching,
// including the EDNS Client Subnet cache behaviour of RFC 7871 §7.3.1 that
// drives the paper's scaling results (§5): an ECS-enabled resolver must
// keep one cache entry per (domain, answer scope prefix) instead of one per
// domain, so enabling end-user mapping multiplies the query load its
// clients induce on the CDN's authoritative servers (Fig 23: the roll-out
// raised public-resolver query rates about eight-fold).
//
// Resolvers here run on an explicit simulated clock: every method takes
// `now`, so millions of simulated queries cost no wall-clock waiting.
package resolver

import (
	"fmt"
	"net/netip"
	"time"
)

// Answer is a resolution outcome.
type Answer struct {
	// Servers are the answer's A records.
	Servers []netip.Addr
	// TTL is the remaining validity.
	TTL time.Duration
	// ScopePrefix is the ECS scope of the answer (0 = not client-specific).
	ScopePrefix uint8
	// FromCache reports whether the resolver answered without contacting
	// the authoritative server.
	FromCache bool
}

// Upstream is the authoritative side the resolver queries on cache misses —
// in this repository, the mapping system or a fixed-answer stand-in (the
// figures' resolver fleet in internal/experiments), or a test stub.
type Upstream interface {
	// Resolve answers a query for domain made by resolver ldns,
	// optionally carrying the client's subnet (invalid prefix = no ECS).
	Resolve(domain string, ldns netip.Addr, clientSubnet netip.Prefix) (Answer, error)
}

// Config parameterises a resolver.
type Config struct {
	// Addr is the resolver's address as seen by authoritative servers.
	Addr netip.Addr
	// ECSEnabled makes the resolver forward client subnets and cache
	// per-scope (what public resolver providers turned on).
	ECSEnabled bool
	// SourcePrefix is the IPv4 prefix length forwarded when ECS is
	// enabled; /24 is the convention (longer is discouraged for privacy,
	// §2.1).
	SourcePrefix uint8
	// SourcePrefix6 is the IPv6 source prefix length; 0 means /56
	// (RFC 7871's recommendation).
	SourcePrefix6 uint8
	// MaxTTL optionally caps cached TTLs (0 = no cap).
	MaxTTL time.Duration
}

// Metrics counts resolver activity.
type Metrics struct {
	// ClientQueries is the number of queries received from clients.
	ClientQueries uint64
	// CacheHits is the number answered from cache.
	CacheHits uint64
	// UpstreamQueries is the number forwarded to authoritative servers.
	UpstreamQueries uint64
}

type cacheEntry struct {
	answer  Answer
	expires time.Time
}

// Resolver is a caching recursive resolver. It is not safe for concurrent
// use; the simulation driver owns each resolver.
type Resolver struct {
	cfg      Config
	upstream Upstream

	// plain caches answers that do not depend on the client subnet.
	plain map[string]cacheEntry
	// scoped caches client-specific answers per (domain, scope prefix).
	scoped map[string]map[netip.Prefix]cacheEntry

	// Metrics counts activity; callers may read or reset it.
	Metrics Metrics
	// PerDomainUpstream optionally counts upstream queries by domain
	// (enable with TrackDomains) for the popularity analysis of Fig 24.
	PerDomainUpstream map[string]uint64
}

// New creates a resolver with the given upstream.
func New(cfg Config, up Upstream) (*Resolver, error) {
	if up == nil {
		return nil, fmt.Errorf("resolver: nil upstream")
	}
	if cfg.ECSEnabled && (cfg.SourcePrefix == 0 || cfg.SourcePrefix > 32) {
		cfg.SourcePrefix = 24
	}
	if cfg.SourcePrefix6 == 0 || cfg.SourcePrefix6 > 128 {
		cfg.SourcePrefix6 = 56
	}
	return &Resolver{
		cfg:      cfg,
		upstream: up,
		plain:    map[string]cacheEntry{},
		scoped:   map[string]map[netip.Prefix]cacheEntry{},
	}, nil
}

// TrackDomains enables per-domain upstream query counting.
func (r *Resolver) TrackDomains() {
	if r.PerDomainUpstream == nil {
		r.PerDomainUpstream = map[string]uint64{}
	}
}

// Addr returns the resolver's address.
func (r *Resolver) Addr() netip.Addr { return r.cfg.Addr }

// ECSEnabled reports whether the resolver forwards client subnets.
func (r *Resolver) ECSEnabled() bool { return r.cfg.ECSEnabled }

// Query resolves domain on behalf of the client at clientAddr at simulated
// time now.
func (r *Resolver) Query(now time.Time, domain string, clientAddr netip.Addr) (Answer, error) {
	r.Metrics.ClientQueries++

	if a, ok := r.lookupCache(now, domain, clientAddr); ok {
		r.Metrics.CacheHits++
		a.FromCache = true
		return a, nil
	}

	// Cache miss: forward upstream, with the client's subnet when ECS is on.
	var subnet netip.Prefix
	if r.cfg.ECSEnabled {
		bits := int(r.cfg.SourcePrefix)
		if clientAddr.Unmap().Is6() {
			bits = int(r.cfg.SourcePrefix6)
		}
		p, err := clientAddr.Unmap().Prefix(bits)
		if err != nil {
			return Answer{}, fmt.Errorf("resolver: client subnet: %w", err)
		}
		subnet = p
	}
	r.Metrics.UpstreamQueries++
	if r.PerDomainUpstream != nil {
		r.PerDomainUpstream[domain]++
	}
	a, err := r.upstream.Resolve(domain, r.cfg.Addr, subnet)
	if err != nil {
		return Answer{}, err
	}
	r.store(now, domain, clientAddr, a)
	a.FromCache = false
	return a, nil
}

// lookupCache finds a valid cached answer for the client: a client-scoped
// entry whose prefix contains the client (longest scope first, RFC 7871
// §7.3.1), else a global entry.
func (r *Resolver) lookupCache(now time.Time, domain string, clientAddr netip.Addr) (Answer, bool) {
	if m := r.scoped[domain]; m != nil {
		var best netip.Prefix
		var bestE cacheEntry
		for p, e := range m {
			if !e.expires.After(now) {
				delete(m, p)
				continue
			}
			if p.Contains(clientAddr.Unmap()) && (!best.IsValid() || p.Bits() > best.Bits()) {
				best, bestE = p, e
			}
		}
		if best.IsValid() {
			a := bestE.answer
			a.TTL = bestE.expires.Sub(now)
			return a, true
		}
	}
	if e, ok := r.plain[domain]; ok {
		if e.expires.After(now) {
			a := e.answer
			a.TTL = e.expires.Sub(now)
			return a, true
		}
		delete(r.plain, domain)
	}
	return Answer{}, false
}

// store files an upstream answer per its ECS scope: scope 0 (or no ECS)
// means the answer is valid for every client and goes in the plain cache;
// a non-zero scope files it under the scoped prefix of the client.
func (r *Resolver) store(now time.Time, domain string, clientAddr netip.Addr, a Answer) {
	ttl := a.TTL
	if r.cfg.MaxTTL > 0 && ttl > r.cfg.MaxTTL {
		ttl = r.cfg.MaxTTL
	}
	e := cacheEntry{answer: a, expires: now.Add(ttl)}
	if a.ScopePrefix == 0 || !r.cfg.ECSEnabled {
		r.plain[domain] = e
		return
	}
	p, err := clientAddr.Unmap().Prefix(int(a.ScopePrefix))
	if err != nil {
		// Malformed scope (beyond the client's address family, RFC 7871
		// §7.3): drop the answer. Filing it in the plain cache would let
		// one client's answer shadow every client of this resolver.
		return
	}
	m := r.scoped[domain]
	if m == nil {
		m = map[netip.Prefix]cacheEntry{}
		r.scoped[domain] = m
	}
	m[p] = e
}

// CacheSize returns the number of live cache entries at time now — the
// memory-side scaling cost of ECS (§5.2: an LDNS may store multiple
// entries per domain, one per client block).
func (r *Resolver) CacheSize(now time.Time) int {
	n := 0
	for _, e := range r.plain {
		if e.expires.After(now) {
			n++
		}
	}
	for _, m := range r.scoped {
		for _, e := range m {
			if e.expires.After(now) {
				n++
			}
		}
	}
	return n
}

// Flush drops the whole cache.
func (r *Resolver) Flush() {
	r.plain = map[string]cacheEntry{}
	r.scoped = map[string]map[netip.Prefix]cacheEntry{}
}
