package gen

import (
	"math"
	"net/netip"
	"testing"
)

const zone = "cdn.example.net"

// testBlocks is n /24s with demand proportional to 1/(i+1).
func testBlocks(n int) []Block {
	blocks := make([]Block, n)
	for i := range blocks {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		blocks[i] = Block{Prefix: netip.PrefixFrom(addr, 24), Demand: 1 / float64(i+1)}
	}
	return blocks
}

func TestSameSeedSameStream(t *testing.T) {
	mix := Mix{Domains: 50, ZipfS: 1, ECSShare: 0.8, ByDemand: true, TruncShare: 0.25}
	a := NewSource(mix, testBlocks(500), zone)
	b := NewSource(mix, testBlocks(500), zone)
	if a.FNV(7, 5000) != b.FNV(7, 5000) {
		t.Error("one seed gave two streams")
	}
	if a.FNV(7, 5000) == a.FNV(8, 5000) {
		t.Error("two seeds gave one stream")
	}
	if s0, s1 := a.Stream(7, 0).Next(), a.Stream(7, 1).Next(); s0 == s1 {
		t.Error("two sockets of one seed start with the same query (possible, but at odds of one in thousands)")
	}
}

func TestDrawsFollowTheMix(t *testing.T) {
	const n = 400_000
	blocks := testBlocks(200)
	mix := Mix{Domains: 20, ZipfS: 1, ECSShare: 0.8, ByDemand: true, TruncShare: 0.25}
	st := NewSource(mix, blocks, zone).Stream(1, 0)
	index := make(map[netip.Prefix]int)
	total := 0.0
	for i, b := range blocks {
		index[b.Prefix] = i
		total += b.Demand
	}
	var ecs, trunc int
	perBlock := make([]int, len(blocks))
	perDomain := make([]int, mix.Domains)
	for i := 0; i < n; i++ {
		q := st.Next()
		perDomain[q.Domain]++
		switch {
		case !q.Subnet.IsValid():
		case q.Subnet.Bits() == 20:
			ecs++
			trunc++
			if q.Subnet != q.Subnet.Masked() {
				t.Fatalf("truncated subnet %v has bits beyond its length", q.Subnet)
			}
		default:
			ecs++
			perBlock[index[q.Subnet]]++
		}
	}
	within := func(what string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol*want {
			t.Errorf("%s = %.4f, want %.4f within %.0f%%", what, got, want, 100*tol)
		}
	}
	within("ECS share", float64(ecs)/n, 0.8, 0.01)
	within("truncated share of ECS", float64(trunc)/float64(ecs), 0.25, 0.02)
	full := float64(ecs - trunc)
	for _, i := range []int{0, 1, 9, 99} {
		within("share of block "+blocks[i].Prefix.String(), float64(perBlock[i])/full, blocks[i].Demand/total, 0.10)
	}
	// Zipf(1): domain k is drawn 1/(k+1) as often as domain 0.
	within("domain 1 / domain 0", float64(perDomain[1])/float64(perDomain[0]), 0.5, 0.03)
	within("domain 9 / domain 0", float64(perDomain[9])/float64(perDomain[0]), 0.1, 0.06)

	uniform := NewSource(Mix{Domains: 4, ECSShare: 1}, blocks, zone).Stream(1, 0)
	first := 0
	for i := 0; i < n; i++ {
		if uniform.Next().Subnet == blocks[0].Prefix {
			first++
		}
	}
	within("uniform share of block 0", float64(first)/n, 1.0/float64(len(blocks)), 0.10)
}

func TestPacketLayout(t *testing.T) {
	s := NewSource(Mix{Domains: 2000}, testBlocks(1), zone)
	if got := Name(42, zone); got != "e0042.b.cdn.example.net" {
		t.Fatalf("Name = %q", got)
	}
	plain := s.AppendPacket(nil, Query{Domain: 1234})
	// header, e1234.b.cdn.example.net., A IN, OPT with empty RDATA
	want := 12 + len("\x05e1234\x01b\x03cdn\x07example\x03net\x00") + 4 + 11
	if len(plain) != want {
		t.Fatalf("plain query is %d bytes, want %d", len(plain), want)
	}
	if string(plain[12:18]) != "\x05e1234" {
		t.Errorf("first label = %q", plain[12:18])
	}
	sub := netip.MustParsePrefix("203.0.112.0/20")
	ecs := s.AppendPacket(nil, Query{Domain: 1234, Subnet: sub})
	opt := ecs[len(plain)-2:] // from RDLEN on
	wantOpt := []byte{0, 11, 0, 8, 0, 7, 0, 1, 20, 0, 203, 0, 112}
	if string(opt) != string(wantOpt) {
		t.Errorf("ECS option bytes = %v, want %v", opt, wantOpt)
	}
	if len(ecs) > MaxPacket {
		t.Errorf("packet of %d bytes exceeds MaxPacket", len(ecs))
	}
}
