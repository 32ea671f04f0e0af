package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
)

// bigHandler answers with n A records, enough to overflow small UDP sizes.
type bigHandler struct{ n int }

func (h *bigHandler) ServeDNS(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	r := q.Reply()
	r.Authoritative = true
	for i := 0; i < h.n; i++ {
		r.Answers = append(r.Answers, dnsmsg.RR{
			Name: q.Questions[0].Name, Class: dnsmsg.ClassINET, TTL: 30,
			Data: &dnsmsg.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	return r
}

func startTCP(t *testing.T, h Handler) *TCPServer {
	t.Helper()
	s, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// startBoth runs UDP and TCP servers on the same port.
func startBoth(t *testing.T, h Handler) (udp *Server, tcp *TCPServer, addr string) {
	t.Helper()
	udp = startServer(t, h)
	port := udp.Addr().(*net.UDPAddr).Port
	tcp, err := ListenTCP(fmt.Sprintf("127.0.0.1:%d", port), h)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = tcp.Serve() }()
	t.Cleanup(func() { _ = tcp.Close() })
	return udp, tcp, udp.Addr().String()
}

func TestTCPServeBasic(t *testing.T) {
	s := startTCP(t, &bigHandler{n: 2})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnsmsg.NewQuery(7, "tcp.example.net", dnsmsg.TypeA)
	wire, _ := q.Pack()
	if err := WriteTCPMessage(conn, wire); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadTCPMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 2 || resp.ID != 7 {
		t.Errorf("resp: %d answers, id %d", len(resp.Answers), resp.ID)
	}
	if s.Metrics.Queries.Load() != 1 || s.Metrics.Responses.Load() != 1 {
		t.Error("metrics not updated")
	}
}

func TestTCPMultipleQueriesPerConnection(t *testing.T) {
	s := startTCP(t, &bigHandler{n: 1})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := uint16(1); i <= 3; i++ {
		q := dnsmsg.NewQuery(i, "multi.example.net", dnsmsg.TypeA)
		wire, _ := q.Pack()
		if err := WriteTCPMessage(conn, wire); err != nil {
			t.Fatal(err)
		}
		msg, err := ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		resp, _ := dnsmsg.Unpack(msg)
		if resp.ID != i {
			t.Fatalf("query %d answered with id %d", i, resp.ID)
		}
	}
}

func TestUDPTruncatesOversizedResponse(t *testing.T) {
	// 100 A records ≈ 1.6KB+, beyond a 512-byte non-EDNS limit.
	h := &bigHandler{n: 100}
	s := startServer(t, h)
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnsmsg.NewQuery(9, "big.example.net", dnsmsg.TypeA)
	q.EDNS = false // classic 512-byte client
	wire, _ := q.Pack()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n > 512 {
		t.Errorf("response %d bytes exceeds 512", n)
	}
	resp, err := dnsmsg.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("oversized response not marked TC")
	}
	if len(resp.Answers) != 0 {
		t.Error("truncated response still carries answers")
	}
}

func TestUDPRespectsEDNSSize(t *testing.T) {
	// 40 A records fit in 1232 bytes; an EDNS client gets them untruncated.
	h := &bigHandler{n: 40}
	s := startServer(t, h)
	c := &dnsclient.Client{Timeout: time.Second, DisableTCPFallback: true}
	resp, err := c.Lookup(context.Background(), s.Addr().String(), "edns.example.net", dnsmsg.TypeA, netip.Prefix{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 40 {
		t.Errorf("tc=%v answers=%d", resp.Truncated, len(resp.Answers))
	}
}

func TestClientTCPFallback(t *testing.T) {
	// 200 A records overflow even the EDNS 1232-byte size; the client
	// must retry over TCP and get the full answer.
	h := &bigHandler{n: 200}
	_, _, addr := startBoth(t, h)
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	resp, err := c.Lookup(context.Background(), addr, "fallback.example.net", dnsmsg.TypeA, netip.Prefix{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("TCP fallback response still truncated")
	}
	if len(resp.Answers) != 200 {
		t.Errorf("answers = %d, want 200", len(resp.Answers))
	}
}

func TestClientTCPFallbackDisabled(t *testing.T) {
	h := &bigHandler{n: 200}
	_, _, addr := startBoth(t, h)
	c := &dnsclient.Client{Timeout: 2 * time.Second, DisableTCPFallback: true}
	resp, err := c.Lookup(context.Background(), addr, "notcp.example.net", dnsmsg.TypeA, netip.Prefix{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("expected truncated response with fallback disabled")
	}
}

func TestClientTCPFallbackServerDown(t *testing.T) {
	// UDP answers truncated but no TCP listener: the client returns the
	// truncated UDP response but flags it with ErrTCPFallbackFailed so the
	// caller knows the answer is partial, and counts the event.
	h := &bigHandler{n: 200}
	s := startServer(t, h)
	c := &dnsclient.Client{Timeout: 500 * time.Millisecond}
	resp, err := c.Lookup(context.Background(), s.Addr().String(), "half.example.net", dnsmsg.TypeA, netip.Prefix{})
	if !errors.Is(err, dnsclient.ErrTCPFallbackFailed) {
		t.Fatalf("err = %v, want ErrTCPFallbackFailed", err)
	}
	if resp == nil || !resp.Truncated {
		t.Fatal("truncated UDP response not returned alongside the error")
	}
	if got := c.Stats.TCPFallbackFailures.Load(); got != 1 {
		t.Errorf("TCPFallbackFailures = %d, want 1", got)
	}
}

func TestTCPMalformedFrame(t *testing.T) {
	s := startTCP(t, &bigHandler{n: 1})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Length says 5 bytes, then garbage: server must drop the connection.
	if err := WriteTCPMessage(conn, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := ReadTCPMessage(conn); err == nil {
		t.Error("expected connection close after malformed message")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Metrics.Malformed.Load() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("malformed TCP message not counted")
}

func TestTCPMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte("hello dns")
	if err := WriteTCPMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCPMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("round trip = %q", got)
	}
	// Zero-length frame rejected.
	buf.Reset()
	buf.Write([]byte{0, 0})
	if _, err := ReadTCPMessage(&buf); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversized write rejected.
	if err := WriteTCPMessage(&buf, make([]byte, 70000)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestTruncateFor(t *testing.T) {
	h := &bigHandler{n: 50}
	resp := h.ServeDNS(netip.MustParseAddrPort("127.0.0.1:1"),
		dnsmsg.NewQuery(3, "t.example.net", dnsmsg.TypeA))
	full, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Large enough: untouched.
	wire, err := TruncateFor(resp, len(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(full) {
		t.Error("unnecessary truncation")
	}
	// Too small: TC set, sections dropped.
	wire, err = TruncateFor(resp, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > 100 {
		t.Errorf("truncated form %d bytes > 100", len(wire))
	}
	m, _ := dnsmsg.Unpack(wire)
	if !m.Truncated || len(m.Answers) != 0 {
		t.Error("truncation did not produce TC + empty sections")
	}
	// Original response must be untouched.
	if resp.Truncated || len(resp.Answers) != 50 {
		t.Error("TruncateFor mutated the original response")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	s := startTCP(t, &bigHandler{n: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCloseIdleConnection: a client that connects and sends nothing
// must not hold Close for the idle read timeout.
func TestTCPCloseIdleConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := ListenTCP("127.0.0.1:0", &bigHandler{n: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server start reading

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with one idle connection", d)
	}
	if got := waitGoroutines(baseline); got > baseline+2 {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, got)
	}
}

// TestTCPCloseStalledWriter: a client that pipelines queries for ~60 KB
// answers and never reads stalls the server's write once the socket
// buffers fill. Close must still return promptly and leak nothing.
func TestTCPCloseStalledWriter(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := ListenTCP("127.0.0.1:0", &bigHandler{n: 3700})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(1, "stall.example.net", dnsmsg.TypeA).Pack()
	for i := 0; i < 200; i++ {
		if err := WriteTCPMessage(conn, wire); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server stops making progress: its write is blocked.
	for last := uint64(0); ; {
		time.Sleep(100 * time.Millisecond)
		n := s.Metrics.Responses.Load()
		if n > 0 && n == last {
			t.Logf("server stalled after %d of 200 answers", n)
			break
		}
		last = n
	}

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v behind a client that stopped reading", d)
	}
	if got := waitGoroutines(baseline); got > baseline+2 {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, got)
	}
}
