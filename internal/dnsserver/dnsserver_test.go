package dnsserver

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/faultnet"
)

// echoHandler answers every A query with a fixed address and records the
// remote addresses it saw.
type echoHandler struct {
	mu      sync.Mutex
	remotes []netip.AddrPort
}

func (h *echoHandler) ServeDNS(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	h.mu.Lock()
	h.remotes = append(h.remotes, remote)
	h.mu.Unlock()
	r := q.Reply()
	r.Authoritative = true
	if len(q.Questions) == 1 && q.Questions[0].Type == dnsmsg.TypeA {
		r.Answers = append(r.Answers, dnsmsg.RR{
			Name: q.Questions[0].Name, Class: dnsmsg.ClassINET, TTL: 30,
			Data: &dnsmsg.A{Addr: netip.MustParseAddr("192.0.2.53")},
		})
	}
	return r
}

func startServer(t *testing.T, h Handler) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestServeAndExchange(t *testing.T) {
	h := &echoHandler{}
	s := startServer(t, h)
	c := &dnsclient.Client{Timeout: time.Second}
	resp, err := c.Lookup(context.Background(), s.Addr().String(), "a.example.net", dnsmsg.TypeA, netip.Prefix{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	a := resp.Answers[0].Data.(*dnsmsg.A)
	if a.Addr != netip.MustParseAddr("192.0.2.53") {
		t.Errorf("answer = %v", a.Addr)
	}
	if got := s.Metrics.Queries.Load(); got != 1 {
		t.Errorf("queries metric = %d", got)
	}
	// The server counts a response after the write returns, which can be
	// after the client has read it.
	deadline := time.Now().Add(time.Second)
	for s.Metrics.Responses.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics.Responses.Load(); got != 1 {
		t.Errorf("responses metric = %d", got)
	}
}

func TestECSCarriedOverWire(t *testing.T) {
	var gotECS *dnsmsg.ClientSubnet
	var mu sync.Mutex
	h := HandlerFunc(func(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		mu.Lock()
		gotECS = q.ClientSubnet()
		mu.Unlock()
		return q.Reply()
	})
	s := startServer(t, h)
	c := &dnsclient.Client{Timeout: time.Second}
	_, err := c.Lookup(context.Background(), s.Addr().String(), "b.example.net", dnsmsg.TypeA,
		netip.MustParsePrefix("203.0.113.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotECS == nil {
		t.Fatal("server did not receive ECS option")
	}
	if gotECS.SourcePrefix != 24 || gotECS.Address != netip.MustParseAddr("203.0.113.0") {
		t.Errorf("ecs = %+v", gotECS)
	}
}

func TestConcurrentQueries(t *testing.T) {
	h := &echoHandler{}
	s := startServer(t, h)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &dnsclient.Client{Timeout: 2 * time.Second}
			name := dnsmsg.Name("conc.example.net")
			if _, err := c.Lookup(context.Background(), s.Addr().String(), name, dnsmsg.TypeA, netip.Prefix{}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics.Queries.Load(); got != 32 {
		t.Errorf("queries = %d, want 32", got)
	}
}

func TestMalformedDatagramCounted(t *testing.T) {
	h := &echoHandler{}
	s := startServer(t, h)
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics.Malformed.Load() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("malformed datagram not counted")
}

// TestOversizedDatagramMalformed sends a valid query padded to 5 000
// bytes — longer than any answer the server sends, so longer than any
// query it parses — over the loopback socket (the batched path on Linux)
// and through a faultnet-wrapped conn (the single-datagram path): it is
// counted Malformed unparsed, and the next query is still answered.
func TestOversizedDatagramMalformed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wrapped bool
	}{{"loopback", false}, {"faultnet", true}} {
		t.Run(tc.name, func(t *testing.T) {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if tc.wrapped {
				pc = faultnet.NewInjector(faultnet.Config{}).WrapPacketConn(pc)
			}
			s, err := NewConn(pc, &echoHandler{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = s.Serve() }()
			t.Cleanup(func() { _ = s.Close() })
			conn, err := net.Dial("udp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			wire, _ := dnsmsg.NewQuery(1, "big.example.net", dnsmsg.TypeA).Pack()
			big := make([]byte, 5000)
			copy(big, wire)
			if _, err := conn.Write(big); err != nil {
				t.Fatal(err)
			}
			if resp := exchange(t, conn, 2, "next.example.net"); resp.ID != 2 {
				t.Fatalf("answer to the next query has ID %d, want 2", resp.ID)
			}
			if m, q := s.Metrics.Malformed.Load(), s.Metrics.Queries.Load(); m != 1 || q != 1 {
				t.Errorf("Malformed = %d, Queries = %d; want 1 and 1", m, q)
			}
		})
	}
}

func TestDroppedQueries(t *testing.T) {
	h := HandlerFunc(func(netip.AddrPort, *dnsmsg.Message) *dnsmsg.Message { return nil })
	s := startServer(t, h)
	c := &dnsclient.Client{Timeout: 200 * time.Millisecond, Retries: 0}
	_, err := c.Lookup(context.Background(), s.Addr().String(), "drop.example.net", dnsmsg.TypeA, netip.Prefix{})
	if err == nil {
		t.Error("dropped query returned a response")
	}
	if got := s.Metrics.Dropped.Load(); got != 1 {
		t.Errorf("dropped = %d", got)
	}
}

func TestResponsesIgnoredAsQueries(t *testing.T) {
	h := &echoHandler{}
	s := startServer(t, h)
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	m := dnsmsg.NewQuery(9, "loop.example.net", dnsmsg.TypeA)
	m.Response = true // a response arriving at a server: spoof/loop risk
	wire, _ := m.Pack()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics.Malformed.Load() == 1 {
			if s.Metrics.Queries.Load() != 0 {
				t.Error("response datagram counted as query")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("response datagram not rejected")
}

func TestListenNilHandler(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := startServer(t, &echoHandler{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
}

func TestClientRetries(t *testing.T) {
	// Handler drops the first query and answers the second: the client's
	// retry must succeed.
	var n int
	var mu sync.Mutex
	h := HandlerFunc(func(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 1 {
			return nil
		}
		return q.Reply()
	})
	s := startServer(t, h)
	c := &dnsclient.Client{Timeout: 150 * time.Millisecond, Retries: 2}
	if _, err := c.Lookup(context.Background(), s.Addr().String(), "retry.example.net", dnsmsg.TypeA, netip.Prefix{}); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
}

func TestClientContextCancel(t *testing.T) {
	h := HandlerFunc(func(netip.AddrPort, *dnsmsg.Message) *dnsmsg.Message { return nil })
	s := startServer(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &dnsclient.Client{Timeout: 5 * time.Second, Retries: 5}
	start := time.Now()
	_, err := c.Lookup(ctx, s.Addr().String(), "ctx.example.net", dnsmsg.TypeA, netip.Prefix{})
	if err == nil {
		t.Fatal("cancelled lookup succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("context cancellation not honoured promptly")
	}
}
