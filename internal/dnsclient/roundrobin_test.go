package dnsclient_test

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/faultnet"
)

// echoHandler answers every A question with a fixed address, so the test
// can tell live servers from dead ones purely by whether an answer
// arrives.
func echoHandler() dnsserver.Handler {
	return dnsserver.HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		resp := q.Reply()
		resp.Authoritative = true
		resp.Answers = append(resp.Answers, dnsmsg.RR{
			Name: q.Questions[0].Name, Class: dnsmsg.ClassINET, TTL: 20,
			Data: &dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.1")},
		})
		return resp
	})
}

// TestRoundRobinFailover kills the primary of a two-server rotation with
// a faultnet partition: every lookup must still succeed via the
// secondary, the primary must be marked down (and skipped), and after
// the heal plus cooloff the rotation must fold it back in.
func TestRoundRobinFailover(t *testing.T) {
	// Primary listens through a partitionable injector; secondary is a
	// plain healthy server.
	inj := faultnet.NewInjector(faultnet.Config{Seed: 3})
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	primary, err := dnsserver.NewConn(inj.WrapPacketConn(inner), echoHandler(), dnsserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = primary.Serve() }()
	defer primary.Close()
	secondary, err := dnsserver.Listen("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = secondary.Serve() }()
	defer secondary.Close()

	const cooloff = 100 * time.Millisecond
	rr, err := dnsclient.NewRoundRobin(
		&dnsclient.Client{Timeout: 100 * time.Millisecond, Seed: 3},
		dnsclient.RoundRobinConfig{FailThreshold: 2, Cooloff: cooloff},
		inner.LocalAddr().String(), secondary.Addr().String(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lookup := func() error {
		resp, err := rr.Lookup(ctx, "www.example.net", dnsmsg.TypeA, netip.Prefix{})
		if err != nil {
			return err
		}
		if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
			t.Fatalf("bad answer: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
		}
		return nil
	}

	// Healthy rotation spreads load over both servers.
	for i := 0; i < 4; i++ {
		if err := lookup(); err != nil {
			t.Fatalf("healthy lookup %d: %v", i, err)
		}
	}
	for _, st := range rr.Stats() {
		if st.Exchanges == 0 {
			t.Fatalf("server %s saw no traffic in a healthy rotation", st.Server)
		}
	}

	// Kill the primary. Every lookup must still succeed, and after
	// FailThreshold consecutive failures the primary is skipped outright.
	inj.SetPartitioned(true)
	for i := 0; i < 8; i++ {
		if err := lookup(); err != nil {
			t.Fatalf("lookup %d with dead primary: %v", i, err)
		}
	}
	stats := rr.Stats()
	if stats[0].Healthy {
		t.Error("primary still marked healthy while partitioned")
	}
	if stats[0].Failures == 0 {
		t.Error("primary failures never counted")
	}
	if stats[0].Skips == 0 {
		t.Error("down primary was never skipped")
	}

	// Heal. After the cooloff expires the rotation retries the primary
	// and folds it back in.
	inj.SetPartitioned(false)
	time.Sleep(cooloff + 10*time.Millisecond)
	before := rr.Stats()[0].Exchanges
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := lookup(); err != nil {
			t.Fatalf("lookup after heal: %v", err)
		}
		st := rr.Stats()[0]
		if st.Healthy && st.Exchanges > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never recovered: %+v", st)
		}
	}
}

func TestRoundRobinNeedsServers(t *testing.T) {
	if _, err := dnsclient.NewRoundRobin(&dnsclient.Client{}, dnsclient.RoundRobinConfig{}); err == nil {
		t.Fatal("empty server list accepted")
	}
}

// TestRoundRobinAllDown asserts the terminal error shape: with every
// server dead the rotation tries each one (second pass ignores health)
// and reports a single wrapped failure.
func TestRoundRobinAllDown(t *testing.T) {
	rr, err := dnsclient.NewRoundRobin(
		&dnsclient.Client{Timeout: 50 * time.Millisecond, Seed: 5},
		dnsclient.RoundRobinConfig{},
		"127.0.0.1:1", "127.0.0.1:2",
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Lookup(context.Background(), "www.example.net", dnsmsg.TypeA, netip.Prefix{}); err == nil {
		t.Fatal("lookup against dead servers succeeded")
	}
}
