package resolver

import (
	"errors"
	"net/netip"
	"testing"
	"time"
)

// stubUpstream answers with a fixed TTL and a scope policy, counting
// queries.
type stubUpstream struct {
	ttl     time.Duration
	scope   uint8 // echoed scope; 0 = global answers
	queries int
	// answerFor lets tests vary the answer per subnet.
	answerFor func(subnet netip.Prefix) []netip.Addr
	err       error
}

func (s *stubUpstream) Resolve(domain string, ldns netip.Addr, subnet netip.Prefix) (Answer, error) {
	s.queries++
	if s.err != nil {
		return Answer{}, s.err
	}
	servers := []netip.Addr{netip.MustParseAddr("192.0.2.1")}
	if s.answerFor != nil {
		servers = s.answerFor(subnet)
	}
	scope := s.scope
	if !subnet.IsValid() {
		scope = 0
	}
	return Answer{Servers: servers, TTL: s.ttl, ScopePrefix: scope}, nil
}

var (
	t0      = time.Date(2014, 3, 28, 0, 0, 0, 0, time.UTC)
	client1 = netip.MustParseAddr("10.1.1.5")
	client2 = netip.MustParseAddr("10.1.1.9")   // same /24 as client1
	client3 = netip.MustParseAddr("10.1.2.5")   // different /24
	client4 = netip.MustParseAddr("10.200.9.1") // far /24
)

func newTestResolver(t *testing.T, ecs bool, up Upstream) *Resolver {
	t.Helper()
	r, err := New(Config{Addr: netip.MustParseAddr("198.51.100.1"), ECSEnabled: ecs, SourcePrefix: 24}, up)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewNilUpstream(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil upstream accepted")
	}
}

func TestNonECSCachePerDomain(t *testing.T) {
	up := &stubUpstream{ttl: 20 * time.Second, scope: 24}
	r := newTestResolver(t, false, up)
	// First query misses; all later queries for the domain hit,
	// regardless of client — one resolution per domain per TTL (§5.2).
	for i, c := range []netip.Addr{client1, client2, client3, client4} {
		a, err := r.Query(t0, "foo.net", c)
		if err != nil {
			t.Fatal(err)
		}
		if (i == 0) == a.FromCache {
			t.Errorf("query %d FromCache = %v", i, a.FromCache)
		}
	}
	if up.queries != 1 {
		t.Errorf("upstream queries = %d, want 1", up.queries)
	}
}

func TestECSCachePerBlock(t *testing.T) {
	up := &stubUpstream{ttl: 20 * time.Second, scope: 24}
	r := newTestResolver(t, true, up)
	// client1 and client2 share a /24: one upstream query.
	// client3 and client4 are in other /24s: one more each (§5.2: an
	// LDNS may store multiple entries for the same domain name).
	for _, c := range []netip.Addr{client1, client2, client3, client4} {
		if _, err := r.Query(t0, "foo.net", c); err != nil {
			t.Fatal(err)
		}
	}
	if up.queries != 3 {
		t.Errorf("upstream queries = %d, want 3", up.queries)
	}
	if got := r.CacheSize(t0); got != 3 {
		t.Errorf("cache size = %d, want 3", got)
	}
}

func TestECSScopeWiderThanSource(t *testing.T) {
	// Server answers /16-scoped: clients in different /24s of one /16
	// share the entry (the paper's name servers may answer "for a
	// superset of the client's /x block").
	up := &stubUpstream{ttl: 20 * time.Second, scope: 16}
	r := newTestResolver(t, true, up)
	if _, err := r.Query(t0, "foo.net", client1); err != nil {
		t.Fatal(err)
	}
	a, err := r.Query(t0, "foo.net", client3) // same /16
	if err != nil {
		t.Fatal(err)
	}
	if !a.FromCache {
		t.Error("same-/16 client missed a /16-scoped entry")
	}
	a, err = r.Query(t0, "foo.net", client4) // different /16
	if err != nil {
		t.Fatal(err)
	}
	if a.FromCache {
		t.Error("different-/16 client hit a /16-scoped entry")
	}
	if up.queries != 2 {
		t.Errorf("upstream queries = %d, want 2", up.queries)
	}
}

func TestScopeZeroGlobalEntry(t *testing.T) {
	// Scope 0 answers are valid for all clients even with ECS on
	// (RFC 7871 §7.3.1).
	up := &stubUpstream{ttl: 20 * time.Second, scope: 0}
	r := newTestResolver(t, true, up)
	if _, err := r.Query(t0, "foo.net", client1); err != nil {
		t.Fatal(err)
	}
	a, err := r.Query(t0, "foo.net", client4)
	if err != nil {
		t.Fatal(err)
	}
	if !a.FromCache {
		t.Error("scope-0 entry not shared across clients")
	}
	if up.queries != 1 {
		t.Errorf("upstream queries = %d", up.queries)
	}
}

// TestMalformedScopeNotCached is the regression test for the
// malformed-scope caching bug: an upstream answering with a SCOPE
// PREFIX-LENGTH beyond the client's address family (/40 for an IPv4
// client) used to be filed in the plain cache — one client's answer
// silently served to every other client of the resolver. The answer
// must be dropped: later clients go upstream again and get their own.
func TestMalformedScopeNotCached(t *testing.T) {
	up := &stubUpstream{ttl: 20 * time.Second, scope: 40}
	r := newTestResolver(t, true, up)
	if _, err := r.Query(t0, "foo.net", client1); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheSize(t0); got != 0 {
		t.Errorf("cache size = %d after malformed-scope answer, want 0", got)
	}
	// A far-away client must not inherit the first client's answer.
	a, err := r.Query(t0, "foo.net", client4)
	if err != nil {
		t.Fatal(err)
	}
	if a.FromCache {
		t.Error("malformed-scope answer served from cache to an unrelated client")
	}
	if up.queries != 2 {
		t.Errorf("upstream queries = %d, want 2", up.queries)
	}
}

func TestTTLExpiry(t *testing.T) {
	up := &stubUpstream{ttl: 20 * time.Second, scope: 24}
	r := newTestResolver(t, true, up)
	if _, err := r.Query(t0, "foo.net", client1); err != nil {
		t.Fatal(err)
	}
	// Within TTL: hit; remaining TTL decays.
	a, _ := r.Query(t0.Add(15*time.Second), "foo.net", client1)
	if !a.FromCache || a.TTL != 5*time.Second {
		t.Errorf("hit = %v, ttl = %v", a.FromCache, a.TTL)
	}
	// At exactly TTL: expired.
	a, _ = r.Query(t0.Add(20*time.Second), "foo.net", client1)
	if a.FromCache {
		t.Error("expired entry served")
	}
	if up.queries != 2 {
		t.Errorf("upstream queries = %d", up.queries)
	}
}

func TestMaxTTLCap(t *testing.T) {
	up := &stubUpstream{ttl: time.Hour, scope: 0}
	r, err := New(Config{Addr: netip.MustParseAddr("198.51.100.1"), MaxTTL: 30 * time.Second}, up)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Query(t0, "foo.net", client1); err != nil {
		t.Fatal(err)
	}
	if a, _ := r.Query(t0.Add(29*time.Second), "foo.net", client1); !a.FromCache {
		t.Error("entry evicted before capped TTL")
	}
	if a, _ := r.Query(t0.Add(31*time.Second), "foo.net", client1); a.FromCache {
		t.Error("entry outlived capped TTL")
	}
}

func TestQueryRateMultiplier(t *testing.T) {
	// The §5.2 mechanism in miniature: a popular domain queried every
	// second by clients spread over 8 blocks sees ~8x the upstream
	// queries once ECS is enabled.
	mkClients := func() []netip.Addr {
		var out []netip.Addr
		for i := 0; i < 8; i++ {
			out = append(out, netip.AddrFrom4([4]byte{10, 2, byte(i), 7}))
		}
		return out
	}
	run := func(ecs bool) int {
		up := &stubUpstream{ttl: 20 * time.Second, scope: 24}
		r := newTestResolver(t, ecs, up)
		clients := mkClients()
		for s := 0; s < 120; s++ {
			now := t0.Add(time.Duration(s) * time.Second)
			c := clients[s%len(clients)]
			if _, err := r.Query(now, "popular.net", c); err != nil {
				t.Fatal(err)
			}
		}
		return up.queries
	}
	before, after := run(false), run(true)
	factor := float64(after) / float64(before)
	if factor < 6 || factor > 9 {
		t.Errorf("ECS query factor = %.1f (before %d, after %d), want ~8", factor, before, after)
	}
}

func TestUpstreamErrorPropagates(t *testing.T) {
	wantErr := errors.New("SERVFAIL")
	up := &stubUpstream{err: wantErr}
	r := newTestResolver(t, true, up)
	if _, err := r.Query(t0, "foo.net", client1); !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
}

func TestMetricsAndTracking(t *testing.T) {
	up := &stubUpstream{ttl: 20 * time.Second, scope: 24}
	r := newTestResolver(t, true, up)
	r.TrackDomains()
	_, _ = r.Query(t0, "a.net", client1)
	_, _ = r.Query(t0, "a.net", client1)
	_, _ = r.Query(t0, "b.net", client1)
	m := r.Metrics
	if m.ClientQueries != 3 || m.CacheHits != 1 || m.UpstreamQueries != 2 {
		t.Errorf("metrics = %+v", m)
	}
	if r.PerDomainUpstream["a.net"] != 1 || r.PerDomainUpstream["b.net"] != 1 {
		t.Errorf("per-domain = %v", r.PerDomainUpstream)
	}
}

func TestFlush(t *testing.T) {
	up := &stubUpstream{ttl: time.Minute, scope: 24}
	r := newTestResolver(t, true, up)
	_, _ = r.Query(t0, "a.net", client1)
	if r.CacheSize(t0) != 1 {
		t.Fatal("entry not cached")
	}
	r.Flush()
	if r.CacheSize(t0) != 0 {
		t.Error("Flush left entries")
	}
}

func TestDifferentAnswersPerBlock(t *testing.T) {
	// The cached answer must be the one for the client's own block, not
	// another block's (RFC 7871: "the cached resolution is only valid
	// for the IP block for which it was provided").
	up := &stubUpstream{ttl: time.Minute, scope: 24,
		answerFor: func(subnet netip.Prefix) []netip.Addr {
			if subnet.Contains(client1) {
				return []netip.Addr{netip.MustParseAddr("192.0.2.1")}
			}
			return []netip.Addr{netip.MustParseAddr("192.0.2.2")}
		}}
	r := newTestResolver(t, true, up)
	a1, _ := r.Query(t0, "foo.net", client1)
	a3, _ := r.Query(t0, "foo.net", client3)
	if a1.Servers[0] == a3.Servers[0] {
		t.Error("different blocks got the same cached answer")
	}
	// Repeat queries return each block's own answer.
	b1, _ := r.Query(t0, "foo.net", client2) // same /24 as client1
	if !b1.FromCache || b1.Servers[0] != a1.Servers[0] {
		t.Errorf("same-block client got %v (cache=%v)", b1.Servers, b1.FromCache)
	}
}
