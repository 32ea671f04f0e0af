package dnsserver

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"eum/internal/dnsmsg"
)

func TestRateLimiterBurstThenRefuse(t *testing.T) {
	r := newRateLimiter(10, 5, 0) // 10/s, burst 5
	addr := netip.MustParseAddr("203.0.113.9")
	now := int64(1e12)

	allowed := 0
	for i := 0; i < 20; i++ {
		if r.allow(addr, now) {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("burst allowed %d, want 5", allowed)
	}

	// One interval later exactly one more response conforms.
	now += int64(time.Second / 10)
	if !r.allow(addr, now) {
		t.Fatal("refill not granted after one interval")
	}
	if r.allow(addr, now) {
		t.Fatal("second response granted within one interval")
	}
}

func TestRateLimiterPrefixGranularity(t *testing.T) {
	r := newRateLimiter(10, 2, 0)
	now := int64(1e12)

	// Two addresses in the same /24 share an allowance.
	a := netip.MustParseAddr("203.0.113.1")
	b := netip.MustParseAddr("203.0.113.200")
	if !r.allow(a, now) || !r.allow(b, now) {
		t.Fatal("burst of 2 not granted to the /24")
	}
	if r.allow(a, now) || r.allow(b, now) {
		t.Fatal("shared /24 exceeded its allowance")
	}

	// A different /24 has its own untouched bucket.
	if !r.allow(netip.MustParseAddr("198.51.100.1"), now) {
		t.Fatal("distinct /24 rate-limited by a stranger's traffic")
	}
}

// TestRateLimiterExtremeRateStillLimits is the regression test for the
// interval-truncation bug: a rate at or above 1e9 responses/second used to
// compute a zero nanosecond interval, which made every query conform — the
// limiter silently disabled itself exactly when someone configured an
// aggressive rate. The interval is now clamped to 1ns, so even an absurd
// rate still bounds the burst.
func TestRateLimiterExtremeRateStillLimits(t *testing.T) {
	r := newRateLimiter(2e9, 8, 0)
	if r.interval < 1 {
		t.Fatalf("interval = %d, want >= 1ns", r.interval)
	}
	addr := netip.MustParseAddr("203.0.113.9")
	now := int64(1e12)
	allowed := 0
	for i := 0; i < 100; i++ {
		if r.allow(addr, now) {
			allowed++
		}
	}
	if allowed == 100 {
		t.Fatal("limiter disabled at rate >= 1e9 (all 100 queries conformed)")
	}
	if allowed != 8 {
		t.Fatalf("allowed %d at one instant, want the burst of 8", allowed)
	}
}

// TestRateLimiterZeroBurstAllowsFirst is the regression test for the
// zero-burst bug: burst 0 used to compute a zero allowance, rejecting
// every query including the very first. Burst is now clamped to 1.
func TestRateLimiterZeroBurstAllowsFirst(t *testing.T) {
	r := newRateLimiter(10, 0, 0)
	addr := netip.MustParseAddr("198.51.100.7")
	now := int64(1e12)
	if !r.allow(addr, now) {
		t.Fatal("burst 0 rejected the first query (allowance clamped to zero)")
	}
	if r.allow(addr, now) {
		t.Fatal("clamped burst of 1 granted a second response at the same instant")
	}
}

func TestRateLimiterSlipCadence(t *testing.T) {
	r := newRateLimiter(10, 1, 2)
	slips := 0
	for i := 0; i < 10; i++ {
		if r.shouldSlip() {
			slips++
		}
	}
	if slips != 5 {
		t.Fatalf("slips = %d over 10 limited queries with slip 2, want 5", slips)
	}
	off := newRateLimiter(10, 1, -1)
	for i := 0; i < 10; i++ {
		if off.shouldSlip() {
			t.Fatal("negative slip still slipped")
		}
	}
}

// TestRRLOverWire floods a server from one source address and checks that
// responses are limited, with the occasional TC=1 slip escaping.
func TestRRLOverWire(t *testing.T) {
	h := HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		return q.Reply()
	})
	s := startConfigServer(t, h, Config{
		RRLRate: 5, RRLBurst: 3, RRLSlip: 2,
	})

	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(11, "rrl.example.net", dnsmsg.TypeA).Pack()
	for i := 0; i < 64; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && s.Metrics.Queries.Load() < 64 {
		time.Sleep(5 * time.Millisecond)
	}
	limited := s.Metrics.RateLimited.Load()
	if limited == 0 {
		t.Fatalf("no rate limiting across 64 queries from one source (queries=%d)",
			s.Metrics.Queries.Load())
	}
	if s.Metrics.Slips.Load() == 0 {
		t.Fatalf("no slip responses among %d limited queries", limited)
	}

	// Drain responses: every slip must be a truncated empty answer.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 512)
	sawSlip := false
	for {
		n, err := conn.Read(buf)
		if err != nil {
			break
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Truncated {
			sawSlip = true
			if len(resp.Answers) != 0 {
				t.Fatal("slip response carried answers")
			}
		}
	}
	if !sawSlip {
		t.Fatal("no TC=1 slip observed on the wire")
	}
}
