package authority

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// A dual-stack universe for the wire-vs-MapAt table: a quarter of the
// client blocks are IPv6 /48s.
var (
	diffW = world.MustGenerate(world.Config{Seed: 23, NumBlocks: 1500, IPv6Fraction: 0.25})
	diffP = cdn.MustGenerateUniverse(diffW, cdn.Config{Seed: 23, NumDeployments: 80, ServersPerDeployment: 4})
)

var unknownResolver = netip.MustParseAddr("198.51.100.7")

func ecsQuery(t *testing.T, name string, addr netip.Addr, bits uint8) *dnsmsg.Message {
	t.Helper()
	q := query(name, dnsmsg.TypeA)
	if err := q.SetClientSubnet(addr, bits); err != nil {
		t.Fatal(err)
	}
	return q
}

func answerAddrs(resp *dnsmsg.Message) []netip.Addr {
	var out []netip.Addr
	for _, rr := range resp.Answers {
		if a, ok := rr.Data.(*dnsmsg.A); ok {
			out = append(out, a.Addr)
		}
	}
	return out
}

// overWire sends q the way a resolver would: packed, parsed by the server
// side, answered, packed again and parsed by the client side.
func overWire(t *testing.T, a *Authority, remote netip.Addr, q *dnsmsg.Message) *dnsmsg.Message {
	t.Helper()
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatalf("pack query: %v", err)
	}
	var in, out dnsmsg.Message
	if err := dnsmsg.UnpackInto(&in, wire); err != nil {
		t.Fatalf("unpack query: %v", err)
	}
	if wire, err = a.ServeDNS(netip.AddrPortFrom(remote, 5353), &in).AppendPack(nil); err != nil {
		t.Fatalf("pack response: %v", err)
	}
	if err := dnsmsg.UnpackInto(&out, wire); err != nil {
		t.Fatalf("unpack response: %v", err)
	}
	return &out
}

// serversOf renders a mapping decision's servers the way answerOf renders
// the A records.
func serversOf(d *mapping.Response) string {
	addrs := make([]netip.Addr, len(d.Servers))
	for i, s := range d.Servers {
		addrs[i] = s.Addr
	}
	return fmt.Sprint(addrs)
}

// answer is what a client learns from one response.
type answer struct {
	servers string // the A records, in order
	scope   int    // echoed ECS scope; -1 when the response carries no ECS
	ttl     uint32
}

func answerOf(resp *dnsmsg.Message) answer {
	ans := answer{servers: fmt.Sprint(answerAddrs(resp)), scope: -1}
	if ecs := resp.ClientSubnet(); ecs != nil {
		ans.scope = int(ecs.ScopePrefix)
	}
	if len(resp.Answers) > 0 {
		ans.ttl = resp.Answers[0].TTL
	}
	return ans
}

// familyBlocks returns the first n IPv4 and the first n IPv6 client blocks.
func familyBlocks(t *testing.T, n int) (v4, v6 []*world.ClientBlock) {
	t.Helper()
	for _, b := range diffW.Blocks {
		switch is4 := b.Prefix.Addr().Is4(); {
		case is4 && len(v4) < n:
			v4 = append(v4, b)
		case !is4 && len(v6) < n:
			v6 = append(v6, b)
		}
	}
	if len(v4) < n || len(v6) < n {
		t.Fatalf("universe has %d v4 and %d v6 blocks, want %d of each", len(v4), len(v6), n)
	}
	return v4, v6
}

// sourceBits are the ECS source prefix lengths per family: finer than,
// equal to and coarser than the mapping unit (/24, /48); 0 sends no ECS.
func sourceBits(b *world.ClientBlock) (bits []uint8, unit int) {
	if b.Prefix.Addr().Is4() {
		return []uint8{0, 24, 21, 20}, 24
	}
	return []uint8{0, 56, 48, 40}, 48
}

// TestWireMatchesMapAt is the differential table under the serving path:
// for every policy, address family, ECS source prefix length, resolver and
// degradation rung — and for a system rewound to its epoch-0 boot map — the
// A records that come back over the wire are exactly the servers MapAt
// picks on the same snapshot; a world-free replica's are exactly the ones
// MapAt picks on its publisher's; the echoed scope is min(unit bits, source
// bits) when the subnet decided and 0 when it did not, and the TTL is the
// map's, clamped once degraded.
func TestWireMatchesMapAt(t *testing.T) {
	const staleTTL = 2 * time.Second
	rungs := []struct {
		level DegradeLevel
		age   time.Duration
	}{
		{DegradeFresh, 0},
		{DegradeStale, 150 * time.Millisecond},
		{DegradeFallback, 400 * time.Millisecond},
		{DegradeServfail, time.Second},
	}
	v4, v6 := familyBlocks(t, 3)
	blocks := append(v4, v6...)
	domains := []string{"img.cdn.example.net", "video.cdn.example.net"}

	// check answers over a's wire and holds every answer to what MapAt on
	// oracle's current snapshot picks: a's own system, or for a replica the
	// publisher's.
	check := func(t *testing.T, a *Authority, oracle *mapping.System, level DegradeLevel, clampTTL bool) {
		snap, osnap := a.system.Current(), oracle.Current()
		pol := snap.Policy()
		for _, b := range blocks {
			bits, unit := sourceBits(b)
			for _, src := range bits {
				for _, remote := range []netip.Addr{b.LDNS.Addr, unknownResolver} {
					for _, domain := range domains {
						name := fmt.Sprintf("%v %v/%d via %v %s", pol, b.Prefix.Addr(), src, remote, domain)
						q := query(domain, dnsmsg.TypeA)
						req := mapping.Request{Domain: domain, LDNS: remote, Degraded: level >= DegradeFallback}
						if src > 0 {
							q = ecsQuery(t, domain, b.Prefix.Addr(), src)
							req.ClientSubnet = netip.PrefixFrom(b.Prefix.Addr(), int(src)).Masked()
						}
						resp := overWire(t, a, remote, q)
						if level == DegradeServfail {
							if resp.RCode != dnsmsg.RCodeServerFailure || len(resp.Answers) != 0 {
								t.Errorf("%s: rcode %v with %d answers, want SERVFAIL", name, resp.RCode, len(resp.Answers))
							}
							continue
						}
						if resp.RCode != dnsmsg.RCodeSuccess {
							t.Errorf("%s: rcode %v", name, resp.RCode)
							continue
						}
						want, err := oracle.MapAt(osnap, req)
						if err != nil {
							t.Fatalf("%s: MapAt: %v", name, err)
						}
						got := answerOf(resp)
						if got.servers != serversOf(want) {
							t.Errorf("%s: wire answered %s, MapAt picks %s", name, got.servers, serversOf(want))
						}

						wantScope := -1
						if src > 0 {
							wantScope = 0
							if pol == mapping.EndUser && level < DegradeFallback {
								wantScope = min(unit, int(src))
							}
						}
						if got.scope != wantScope || (src > 0 && got.scope != int(want.ScopePrefix)) {
							t.Errorf("%s: echoed scope %d, want %d (MapAt says %d)", name, got.scope, wantScope, want.ScopePrefix)
						}
						if ecs := resp.ClientSubnet(); ecs != nil &&
							(ecs.SourcePrefix != src || ecs.Prefix() != req.ClientSubnet) {
							t.Errorf("%s: echoed source %v/%d", name, ecs.Address, ecs.SourcePrefix)
						}

						wantTTL := uint32(want.TTL.Seconds())
						if clampTTL && level >= DegradeStale {
							wantTTL = uint32(staleTTL.Seconds())
						}
						if got.ttl != wantTTL {
							t.Errorf("%s: TTL %d, want %d", name, got.ttl, wantTTL)
						}
					}
				}
			}
		}
	}

	cfg := func(pol mapping.Policy) mapping.Config { return mapping.Config{Policy: pol, PingTargets: 200} }
	for _, pol := range []mapping.Policy{mapping.NSBased, mapping.EndUser, mapping.ClientAwareNS} {
		a, err := New("cdn.example.net", mapping.NewSystem(diffW, diffP, netmodel.NewDefault(), cfg(pol)))
		if err != nil {
			t.Fatal(err)
		}
		var age time.Duration
		a.nowNanos = func() int64 { return a.system.PublishedAtNanos() + int64(age) }
		a.SetDegradeConfig(DegradeConfig{
			StaleAfter: 100 * time.Millisecond, FallbackAfter: 300 * time.Millisecond,
			ServfailAfter: 900 * time.Millisecond, StaleTTL: staleTTL,
		})
		for _, r := range rungs {
			age = r.age
			t.Run(fmt.Sprintf("%v/%v", pol, r.level), func(t *testing.T) {
				if got := a.Degradation(); got != r.level {
					t.Fatalf("rung = %v, want %v", got, r.level)
				}
				check(t, a, a.system, r.level, true)
			})
		}

		// A replica, which holds no world: built from the publisher's full
		// image alone, it answers fresh.
		t.Run(fmt.Sprintf("%v/replica", pol), func(t *testing.T) {
			image, err := mapwire.NewCodec(diffP).EncodeFull(a.system.Current())
			if err != nil {
				t.Fatal(err)
			}
			c, sn, err := mapwire.DecodeBoot(bytes.NewReader(image), int64(len(image)))
			if err != nil {
				t.Fatal(err)
			}
			r, err := New("cdn.example.net", mapping.NewReplica(c.Platform(), sn, cfg(pol)))
			if err != nil {
				t.Fatal(err)
			}
			if r.system.Scorer() != nil || r.Degradation() != DegradeFresh {
				t.Fatalf("replica has a scorer, or serves at rung %v", r.Degradation())
			}
			check(t, r, a.system, DegradeFresh, false)
		})

		// A publisher rewound to replica state (BootstrapReplica): epoch 0,
		// the fallback rung with the watchdog unarmed, so no TTL clamp.
		t.Run(fmt.Sprintf("%v/replica-epoch-0", pol), func(t *testing.T) {
			r, err := New("cdn.example.net", mapping.NewSystem(diffW, diffP, netmodel.NewDefault(), cfg(pol)))
			if err != nil {
				t.Fatal(err)
			}
			r.system.BootstrapReplica()
			if e, lvl := r.system.Current().Epoch(), r.Degradation(); e != 0 || lvl != DegradeFallback {
				t.Fatalf("rewound system at epoch %d, rung %v", e, lvl)
			}
			check(t, r, r.system, DegradeFallback, false)
		})
	}
}

// TestSameUnitSameAnswer: two /56 sources inside one /48 unit, and any two
// hosts of one /24, are the same client population to the map — same
// servers, scope clamped to the unit — while a different domain or a
// different unit is its own decision.
func TestSameUnitSameAnswer(t *testing.T) {
	a, err := New("cdn.example.net", mapping.NewSystem(diffW, diffP, netmodel.NewDefault(),
		mapping.Config{Policy: mapping.EndUser, PingTargets: 200}))
	if err != nil {
		t.Fatal(err)
	}
	v4, v6 := familyBlocks(t, 2)
	ask := func(domain string, addr netip.Addr, bits uint8) answer {
		return answerOf(overWire(t, a, unknownResolver, ecsQuery(t, domain, addr, bits)))
	}

	b := v6[0].Prefix.Addr().As16()
	b[6] = 0x80 // a second /56 inside the same /48
	first := ask("img.cdn.example.net", v6[0].Prefix.Addr(), 56)
	second := ask("img.cdn.example.net", netip.AddrFrom16(b), 56)
	if first != second || first.scope != 48 {
		t.Errorf("two /56s of one /48: %+v vs %+v, want equal with scope 48", first, second)
	}
	host := v4[0].Prefix.Addr().As4()
	host[3] = 77
	first = ask("img.cdn.example.net", v4[0].Prefix.Addr(), 32)
	second = ask("img.cdn.example.net", netip.AddrFrom4(host), 32)
	if first != second || first.scope != 24 {
		t.Errorf("two hosts of one /24: %+v vs %+v, want equal with scope 24", first, second)
	}

	// The domain picks the servers inside the deployment (by their
	// rendezvous weights), the unit picks the deployment: each equals MapAt
	// for its own key, so it is enough here that they are decided
	// independently.
	snap := a.system.Current()
	for _, k := range []struct {
		domain string
		blk    *world.ClientBlock
	}{{"img.cdn.example.net", v4[0]}, {"js.cdn.example.net", v4[0]}, {"img.cdn.example.net", v4[1]}} {
		want, err := a.system.MapAt(snap, mapping.Request{Domain: k.domain, LDNS: unknownResolver, ClientSubnet: k.blk.Prefix})
		if err != nil {
			t.Fatal(err)
		}
		if got := ask(k.domain, k.blk.Prefix.Addr(), 24); got.servers != serversOf(want) {
			t.Errorf("%s from %v: wire %s, MapAt %s", k.domain, k.blk.Prefix, got.servers, serversOf(want))
		}
	}
}

// TestInterleavedSourceLengths: a privacy-truncating resolver's coarse
// queries and a full-ECS resolver's queries for the same address space,
// interleaved in either order, never change what either population is told
// — servers or scope. Nothing between the wire and the map remembers the
// previous query.
func TestInterleavedSourceLengths(t *testing.T) {
	v4, v6 := familyBlocks(t, 3)
	sys := mapping.NewSystem(diffW, diffP, netmodel.NewDefault(),
		mapping.Config{Policy: mapping.EndUser, PingTargets: 200})
	for _, tc := range []struct {
		blocks       []*world.ClientBlock
		full, coarse uint8
	}{{v4, 24, 20}, {v4, 24, 21}, {v6, 48, 40}, {v6, 56, 40}} {
		for _, b := range tc.blocks {
			for _, order := range [][]uint8{{tc.full, tc.coarse}, {tc.coarse, tc.full}} {
				// A fresh authority per order: whatever it could remember
				// starts empty.
				a, err := New("cdn.example.net", sys)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[uint8]answer{}
				for round := 0; round < 3; round++ {
					for _, bits := range order {
						got := answerOf(overWire(t, a, unknownResolver, ecsQuery(t, "img.cdn.example.net", b.Prefix.Addr(), bits)))
						if want := min(int(bits), b.Prefix.Bits()); got.scope != want {
							t.Errorf("%v/%d in order %v: scope %d, want %d", b.Prefix.Addr(), bits, order, got.scope, want)
						}
						if prev, ok := seen[bits]; ok && prev != got {
							t.Errorf("%v/%d in order %v, round %d: answer changed from %+v to %+v",
								b.Prefix.Addr(), bits, order, round, prev, got)
						}
						seen[bits] = got
					}
				}
			}
		}
	}
}

// TestPolicyFlipChangesAnswer: the policy is part of the installed map, so
// the query after a flip is answered under the new policy and the query
// after the flip back under the old one again.
func TestPolicyFlipChangesAnswer(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)
	blk := testW.Blocks[100]
	ask := func() answer {
		return answerOf(overWire(t, a, resolverAddr.Addr(), ecsQuery(t, "img.cdn.example.net", blk.Prefix.Addr(), 24)))
	}
	eu := ask()
	if eu.scope != 24 {
		t.Fatalf("EU answer scope = %d, want 24", eu.scope)
	}
	a.system.SetPolicy(mapping.NSBased)
	ns := ask()
	want, err := a.system.MapAt(nil, mapping.Request{Domain: "img.cdn.example.net", LDNS: resolverAddr.Addr(), ClientSubnet: blk.Prefix})
	if err != nil {
		t.Fatal(err)
	}
	if ns.scope != 0 || ns.servers != serversOf(want) {
		t.Errorf("after the flip to NS: %+v, want scope 0 and MapAt's %s", ns, serversOf(want))
	}
	a.system.SetPolicy(mapping.EndUser)
	if back := ask(); back != eu {
		t.Errorf("after the flip back: %+v, want the first EU answer %+v", back, eu)
	}
}
