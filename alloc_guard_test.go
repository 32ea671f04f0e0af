package bench

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
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
// resolver it arrives from. A query whose name was sent in randomised case
// also carries lower, the same query with its name lower-cased.
type guardQuery struct {
	wire   []byte
	remote netip.AddrPort
	lower  []byte
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
// A third of the names are sent in randomised case, as resolvers that use
// DNS 0x20 send them.
func guardStream(t *testing.T, w *world.World, n int) []guardQuery {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 34))
	caseRNG := rand.New(rand.NewPCG(0x20, 37))
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
		name := fmt.Sprintf("d%d.cdn.example.net", domains.Uint64())
		q := dnsmsg.NewQuery(uint16(i), dnsmsg.Name(name), dnsmsg.TypeA)
		switch r := rng.IntN(100); {
		case r < 60:
			_ = q.SetClientSubnet(blk.Prefix.Addr(), 24)
		case r < 85:
			_ = q.SetClientSubnet(blk.Prefix.Addr(), 20)
		}
		out[i].remote = netip.AddrPortFrom(blk.LDNS.Addr, 53)
		if caseRNG.IntN(3) == 0 {
			out[i].lower = pack(t, q)
			q.Questions[0].Name = dnsmsg.Name(randomCase(caseRNG, name))
		}
		out[i].wire = pack(t, q)
	}
	return out
}

// randomCase upper-cases each letter of name with probability one half,
// and its first letter always.
func randomCase(rng *rand.Rand, name string) string {
	b := []byte(name)
	for i, c := range b {
		if 'a' <= c && c <= 'z' && (i == 0 || rng.IntN(2) == 0) {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

func pack(t *testing.T, q *dnsmsg.Message) []byte {
	t.Helper()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// answerOf serves one query's wire form and decodes the packed reply: the
// question it echoes and the addresses it answers with.
func answerOf(t *testing.T, auth *authority.Authority, remote netip.AddrPort, wire []byte) (dnsmsg.Name, []netip.Addr) {
	t.Helper()
	q, err := dnsmsg.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(pack(t, auth.ServeDNS(remote, q)))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	for _, rr := range resp.Answers {
		if a, ok := rr.Data.(*dnsmsg.A); ok {
			addrs = append(addrs, a.Addr)
		}
	}
	return resp.Questions[0].Name, addrs
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
// The stream's names in randomised case count too, and first each of them
// must get the servers its lower-case twin gets, with its question echoed
// as sent.
func TestServeDNSAllocGuard(t *testing.T) {
	w, auth := newGuardAuthority(t)
	stream := guardStream(t, w, 1000)

	mixed := 0
	for _, q := range stream {
		if q.lower == nil {
			continue
		}
		mixed++
		sent, err := dnsmsg.Unpack(q.wire)
		if err != nil {
			t.Fatal(err)
		}
		echoed, addrs := answerOf(t, auth, q.remote, q.wire)
		if _, want := answerOf(t, auth, q.remote, q.lower); echoed != sent.Questions[0].Name || len(addrs) == 0 || !slices.Equal(addrs, want) {
			t.Fatalf("%s was echoed as %s with servers %v; in lower case it gets %v", sent.Questions[0].Name, echoed, addrs, want)
		}
	}
	if mixed < len(stream)/4 {
		t.Fatalf("%d of %d guard queries in randomised case", mixed, len(stream))
	}
	foo := func(name string) *dnsmsg.Message {
		q := dnsmsg.NewQuery(1, "", dnsmsg.TypeA)
		q.Questions[0].Name = dnsmsg.Name(name)
		_ = q.SetClientSubnet(w.Blocks[0].Prefix.Addr(), 24)
		return q
	}
	remote := netip.AddrPortFrom(w.Blocks[0].LDNS.Addr, 53)
	upper, upperAddrs := answerOf(t, auth, remote, pack(t, foo("Foo.CDN.example.net")))
	lower, lowerAddrs := answerOf(t, auth, remote, pack(t, foo("foo.cdn.example.net")))
	if upper != "Foo.CDN.example.net" || lower != "foo.cdn.example.net" || len(upperAddrs) == 0 || !slices.Equal(upperAddrs, lowerAddrs) {
		t.Fatalf("%s got %v, %s got %v", upper, upperAddrs, lower, lowerAddrs)
	}

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
	// largest name and answer. It runs on the one P the counted pass runs
	// on: the packer's compressor pool is per P, and a pass warmed on
	// another made one allocation about one run in ten.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range stream {
		cycle()
	}
	// Under -race sync.Pool drops items at random, so a pooled buffer is
	// sometimes remade; there the guard is the rounded mean per answer.
	// Otherwise it counts every allocation of a whole pass, so one on a
	// share of the queries (the 0x20 third, say) cannot round down to 0.
	if raceEnabled {
		if allocs := testing.AllocsPerRun(len(stream), cycle); allocs > serveDNSAllocBudget {
			t.Errorf("UnpackInto → ServeDNS → TruncateAppend = %.2f allocs per answer, budget %d", allocs, serveDNSAllocBudget)
		}
		return
	}
	if allocs := mallocs(func() {
		for range stream {
			cycle()
		}
	}); allocs > uint64(serveDNSAllocBudget*len(stream)) {
		t.Errorf("UnpackInto → ServeDNS → TruncateAppend made %d allocations over %d answers, budget %d per answer", allocs, len(stream), serveDNSAllocBudget)
	}
}
