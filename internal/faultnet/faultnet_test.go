package faultnet

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
)

func TestDeterministicDecisions(t *testing.T) {
	fates := func(seed uint64) []sendPlan {
		in := NewInjector(Config{
			Seed: seed, DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2,
			TruncateProb: 0.1, Latency: time.Millisecond, Jitter: time.Millisecond,
		})
		out := make([]sendPlan, 200)
		for i := range out {
			out[i] = in.planSend()
		}
		return out
	}
	a, b := fates(99), fates(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := fates(100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestDropRateApproximatesConfig(t *testing.T) {
	in := NewInjector(Config{Seed: 3, DropProb: 0.25})
	drops := 0
	n := 10000
	for i := 0; i < n; i++ {
		if in.planSend().drop {
			drops++
		}
	}
	got := float64(drops) / float64(n)
	if got < 0.22 || got > 0.28 {
		t.Fatalf("drop rate = %.3f, want ~0.25", got)
	}
}

func TestPacketConnInjectsDrops(t *testing.T) {
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Config{Seed: 5, DropProb: 0.5})
	pc := in.WrapPacketConn(inner)
	defer pc.Close()

	sender, err := net.Dial("udp", inner.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	const sent = 200
	for i := 0; i < sent; i++ {
		if _, err := sender.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	buf := make([]byte, 16)
	for {
		_ = pc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, _, err := pc.ReadFrom(buf); err != nil {
			break
		}
		received++
	}
	if received == 0 || received >= sent {
		t.Fatalf("received %d of %d under 50%% loss", received, sent)
	}
	if in.Stats.Dropped.Load() == 0 {
		t.Fatal("no drops counted")
	}
	if got := received + int(in.Stats.Dropped.Load()); got != sent {
		t.Fatalf("received %d + dropped %d != sent %d", received, in.Stats.Dropped.Load(), sent)
	}
}

// TestEndToEndThroughFaults runs the real UDP server and client across a
// moderately lossy injected path: retries with backoff must still land
// every lookup.
func TestEndToEndThroughFaults(t *testing.T) {
	h := dnsserver.HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		r := q.Reply()
		r.Answers = append(r.Answers, dnsmsg.RR{
			Name: q.Questions[0].Name, Class: dnsmsg.ClassINET, TTL: 30,
			Data: &dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.1")},
		})
		return r
	})

	in := NewInjector(Config{
		Seed: 11, DropProb: 0.15, DupProb: 0.05, ReorderProb: 0.1,
		Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
	})
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dnsserver.NewConn(in.WrapPacketConn(inner), h, dnsserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })

	c := &dnsclient.Client{
		Timeout: 150 * time.Millisecond, Retries: 6,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Seed:   11,
		Dialer: in.NewDialer(),
	}
	for i := 0; i < 20; i++ {
		resp, err := c.Lookup(context.Background(), inner.LocalAddr().String(),
			"fault.example.net", dnsmsg.TypeA, netip.Prefix{})
		if err != nil {
			t.Fatalf("lookup %d failed through 15%% loss: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("lookup %d: answers = %d", i, len(resp.Answers))
		}
	}
	if in.Stats.Dropped.Load() == 0 {
		t.Fatal("fault path saw no drops — injector not in the loop?")
	}
}
