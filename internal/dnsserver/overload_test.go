package dnsserver

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"eum/internal/dnsmsg"
)

// gatedHandler blocks every query on release, so tests can hold a shard
// inside a batch deterministically.
type gatedHandler struct {
	release chan struct{}
}

func (h *gatedHandler) ServeDNS(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	<-h.release
	return q.Reply()
}

// startConfigServer is startServer with an explicit Config.
func startConfigServer(t *testing.T, h Handler, cfg Config) *Server {
	t.Helper()
	s, err := ListenConfig("127.0.0.1:0", h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestServeDeadlineDropsStaleQueries queues six queries before Serve
// starts, so one recvmmsg receives them all, and makes the first answer
// outlast the deadline: the five behind it are DeadlineDrops and get no
// answer.
func TestServeDeadlineDropsStaleQueries(t *testing.T) {
	if !batched {
		t.Skip("the deadline cannot fire on the single-datagram path")
	}
	const deadline = 20 * time.Millisecond
	h := HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		if q.ID == 0 {
			time.Sleep(3 * deadline)
		}
		return q.Reply()
	})
	s, err := ListenConfig("127.0.0.1:0", h, Config{ListenerShards: 1, ServeDeadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := range 6 {
		wire, _ := dnsmsg.NewQuery(uint16(id), "late.example.net", dnsmsg.TypeA).Pack()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	go func() { _ = s.Serve() }()

	buf := make([]byte, 512)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("the slow first query got no answer: %v", err)
	}
	if resp, err := dnsmsg.Unpack(buf[:n]); err != nil || resp.ID != 0 {
		t.Fatalf("first answer = %v, %v; want ID 0", resp, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		resp, _ := dnsmsg.Unpack(buf[:n])
		t.Fatalf("a query queued behind the deadline was answered: %v", resp)
	}
	if got := s.Metrics.DeadlineDrops.Load(); got != 5 {
		t.Errorf("DeadlineDrops = %d, want 5", got)
	}
	if got := s.Metrics.Queries.Load(); got != 1 {
		t.Errorf("Queries = %d, want 1 (dropped datagrams are not parsed)", got)
	}
}

func TestHandlerPanicAnsweredServfail(t *testing.T) {
	first := true
	h := HandlerFunc(func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
		if first {
			first = false
			panic("handler bug")
		}
		return q.Reply()
	})
	s := startServer(t, h)

	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ask := func(id uint16) *dnsmsg.Message {
		t.Helper()
		wire, _ := dnsmsg.NewQuery(id, "panic.example.net", dnsmsg.TypeA).Pack()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 512)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("query %d: no response: %v", id, err)
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := ask(1); resp.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("panicking query: rcode = %v, want SERVFAIL", resp.RCode)
	}
	if resp := ask(2); resp.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("query after panic: rcode = %v (serve loop wedged?)", resp.RCode)
	}
	if got := s.Metrics.HandlerPanics.Load(); got != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", got)
	}
}

func TestHandlerPanicTCP(t *testing.T) {
	h := HandlerFunc(func(netip.AddrPort, *dnsmsg.Message) *dnsmsg.Message {
		panic("tcp handler bug")
	})
	s, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(3, "panic.example.net", dnsmsg.TypeA).Pack()
	if err := WriteTCPMessage(conn, wire); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadTCPMessage(conn)
	if err != nil {
		t.Fatalf("no response after handler panic: %v", err)
	}
	resp, err := dnsmsg.Unpack(msg)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("rcode = %v, want SERVFAIL", resp.RCode)
	}
	if got := s.Metrics.HandlerPanics.Load(); got != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", got)
	}
}
