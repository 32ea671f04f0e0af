package bench

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"

	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/telemetry"
	"eum/internal/world"
)

// serveDNSAllocBudget is what one mapping answer costs from decode to
// wire: nothing. The query is decoded into the message the server reuses,
// the decision is returned by value with its servers in stack scratch, and
// the reply, its A records and its echoed ECS option live in storage the
// query owns.
const serveDNSAllocBudget = 0

// guardQuery is one query of the guard stream: its wire form and the
// resolver it arrives from.
type guardQuery struct {
	wire   []byte
	remote netip.AddrPort
}

// newGuardAuthority is the authority both serving guards answer through:
// a small end-user-mapped world and platform, the authority's telemetry
// registered so the observability plane rides along.
func newGuardAuthority(t *testing.T) (*world.World, *authority.Authority) {
	t.Helper()
	w := world.MustGenerate(world.Config{Seed: 5, NumBlocks: 2000})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 5, NumDeployments: 120})
	sys := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapping.Config{
		Policy: mapping.EndUser, PingTargets: 200,
	})
	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	auth.RegisterMetrics(telemetry.NewRegistry())
	return w, auth
}

// guardStream draws n queries from a fixed seed, the mix a name server
// answers: Zipf-popular names out of ten thousand content domains, clients
// drawn in proportion to their block's demand, asking from their block's
// resolver with an ECS /24 (60 %), a truncated /20 (25 %) or no ECS (15 %).
func guardStream(t *testing.T, w *world.World, n int) []guardQuery {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 34))
	domains := rand.NewZipf(rng, 1.1, 1, 9_999)
	cum := make([]float64, len(w.Blocks))
	total := 0.0
	for i, b := range w.Blocks {
		total += b.Demand
		cum[i] = total
	}
	out := make([]guardQuery, n)
	for i := range out {
		blk := w.Blocks[min(len(w.Blocks)-1, sort(cum, rng.Float64()*total))]
		q := dnsmsg.NewQuery(uint16(i), dnsmsg.Name(fmt.Sprintf("d%d.cdn.example.net", domains.Uint64())), dnsmsg.TypeA)
		switch r := rng.IntN(100); {
		case r < 60:
			_ = q.SetClientSubnet(blk.Prefix.Addr(), 24)
		case r < 85:
			_ = q.SetClientSubnet(blk.Prefix.Addr(), 20)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = guardQuery{wire, netip.AddrPortFrom(blk.LDNS.Addr, 53)}
	}
	return out
}

// sort returns the index of the first cumulative weight above x.
func sort(cum []float64, x float64) int {
	i, _ := slices.BinarySearch(cum, x)
	return i
}

// TestServeDNSAllocGuard pins a mapping answer, decode to wire, at its
// allocation budget of exactly zero: every query of a fixed stream is
// unpacked into one reused message, served and packed into one reused
// buffer. A change that adds even one allocation per answer fails here
// instead of filling the heap the collector then has to make room for.
func TestServeDNSAllocGuard(t *testing.T) {
	w, auth := newGuardAuthority(t)
	stream := guardStream(t, w, 1000)

	var msg dnsmsg.Message
	out := make([]byte, 0, 4096)
	next := 0
	cycle := func() {
		q := stream[next%len(stream)]
		next++
		if err := dnsmsg.UnpackInto(&msg, q.wire); err != nil {
			t.Fatal(err)
		}
		resp := auth.ServeDNS(q.remote, &msg)
		if resp == nil || resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
			t.Fatalf("query %d: no mapping answer", next-1)
		}
		var err error
		if out, err = dnsserver.TruncateAppend(out[:0], resp, 4096); err != nil {
			t.Fatal(err)
		}
	}
	// A first pass grows the storage every query reuses to the stream's
	// largest name and answer.
	for range stream {
		cycle()
	}
	if allocs := testing.AllocsPerRun(len(stream), cycle); allocs > serveDNSAllocBudget {
		t.Errorf("UnpackInto → ServeDNS → TruncateAppend = %.2f allocs per answer, budget %d", allocs, serveDNSAllocBudget)
	}
}
