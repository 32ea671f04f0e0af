package resolver

import (
	"hash/fnv"
	"net/netip"
	"slices"
	"testing"
	"time"
)

// modelUpstream is a deterministic authority whose answers a cache may
// legally reuse. The answer for a query is a function of the domain, the
// subnet masked to the scope it returns and the current epoch (now divided
// into periods); the TTL never reaches past the epoch's end, so an answer
// is the authority's answer for as long as it may be cached. The scope
// never exceeds the query's source length, and it is a function of the
// domain and of address bits inside every scope the domain is given:
//
//	kind 0: scope 0, one answer for every client (and for queries
//	        without ECS);
//	kind 1: the source length echoed;
//	kind 2: one fixed scope;
//	kind 3: a scope from 8 bits on chosen by the address's first byte.
type modelUpstream struct {
	now    *time.Time
	period time.Duration
	ttl    time.Duration
	kinds  [4]uint8
	fixed  [4]uint8
}

func (u *modelUpstream) scope(d int, subnet netip.Prefix) int {
	var s int
	switch u.kinds[d] % 4 {
	case 0:
		return 0
	case 1:
		s = subnet.Bits()
	case 2:
		s = int(u.fixed[d])
	case 3:
		s = 8 + int(subnet.Addr().AsSlice()[0]*7+u.fixed[d])%41
	}
	return max(8, min(s, subnet.Bits()))
}

func (u *modelUpstream) Resolve(domain string, _ netip.Addr, subnet netip.Prefix) (Answer, error) {
	d := int(domain[0] - 'a')
	epoch := u.now.Sub(t0) / u.period
	end := t0.Add((epoch + 1) * u.period)
	h := fnv.New64a()
	h.Write([]byte{byte(d), byte(epoch), byte(epoch >> 8)})
	scope := 0
	if subnet.IsValid() {
		scope = u.scope(d, subnet)
	}
	if scope > 0 {
		masked, _ := subnet.Addr().Prefix(scope)
		b, _ := masked.MarshalBinary()
		h.Write(b)
	}
	sum := h.Sum64()
	server := netip.AddrFrom4([4]byte{192, 0, byte(sum >> 8), byte(sum)})
	return Answer{Servers: []netip.Addr{server}, TTL: min(u.ttl, end.Sub(*u.now)), ScopePrefix: uint8(scope)}, nil
}

// FuzzCacheMatchesUpstream is the RFC 7871 §7.3 cache model test: driven
// through random configurations (ECS on or off, IPv4 source /16–/32, IPv6
// source /32–/64, a TTL cap) and random query sequences (time steps,
// domains, IPv4 and IPv6 clients in a few shared subnets), every answer
// the caching resolver gives must be the one a cache-less resolver would
// be told for that client at that moment, with a TTL above 0 and no
// longer than the authority's own.
func FuzzCacheMatchesUpstream(f *testing.F) {
	f.Add([]byte{1, 8, 16, 0, 30, 20, 1, 2, 3, 24, 40, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 0, 0, 3, 10, 60, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 1, 1, 7, 2, 2, 2, 9, 3, 3, 3})
	f.Add([]byte{1, 16, 32, 1, 90, 5, 3, 3, 3, 3, 20, 30, 41, 99, 7, 133, 200, 13, 8, 77, 201, 255, 6, 4, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := Config{
			Addr:          netip.MustParseAddr("198.51.100.1"),
			ECSEnabled:    next()%2 == 1,
			SourcePrefix:  16 + next()%17,
			SourcePrefix6: 32 + next()%33,
			MaxTTL:        time.Duration(next()%8) * 10 * time.Second,
		}
		now := t0
		up := &modelUpstream{
			now:    &now,
			period: time.Duration(10+next()%120) * time.Second,
			ttl:    time.Duration(1+next()%90) * time.Second,
		}
		for d := range up.kinds {
			up.kinds[d], up.fixed[d] = next(), next()
		}
		r, err := New(cfg, up)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 4 {
			step, sel, hi, lo := next(), next(), next(), next()
			now = now.Add(time.Duration(step%32) * time.Second)
			domain := string(rune('a'+sel%4)) + ".example"
			// A few /8s, and few subnets inside them, so clients share
			// scopes; IPv6 clients likewise.
			var client netip.Addr
			if sel&4 == 0 {
				client = netip.AddrFrom4([4]byte{10 + sel>>6, hi & 0x83, hi >> 5, lo})
			} else {
				client = netip.AddrFrom16([16]byte{0x20, 0x01 + sel>>6, 0x0d, 0xb8, hi & 0x81, hi >> 6, 0, lo & 0xc3, 12: lo})
			}

			got, err := r.Query(now, domain, client)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg, up)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(now, domain, client)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Servers, want.Servers) || got.ScopePrefix != want.ScopePrefix {
				t.Fatalf("%v, %s for %v (cached %v): %v scope /%d, a cache-less resolver is told %v scope /%d",
					now.Sub(t0), domain, client, got.FromCache, got.Servers, got.ScopePrefix, want.Servers, want.ScopePrefix)
			}
			if got.TTL <= 0 || got.TTL > want.TTL {
				t.Fatalf("%v, %s for %v (cached %v): TTL %v, the authority's is %v",
					now.Sub(t0), domain, client, got.FromCache, got.TTL, want.TTL)
			}
		}
	})
}
