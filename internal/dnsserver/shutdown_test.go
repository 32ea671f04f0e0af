package dnsserver

import (
	"net"
	"runtime"
	"testing"
	"time"

	"eum/internal/dnsmsg"
)

// waitGoroutines polls until the goroutine count drops back to at most
// baseline (plus slack for runtime helpers), reporting the final count.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= baseline+2 {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestGracefulShutdown: queries in flight when Close is called still get
// their responses, late packets are discarded cleanly, and no serve-loop
// goroutines survive.
func TestGracefulShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()

	h := &gatedHandler{release: make(chan struct{})}
	s, err := ListenConfig("127.0.0.1:0", h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()

	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Park one query inside the handler.
	wire, _ := dnsmsg.NewQuery(5, "inflight.example.net", dnsmsg.TypeA).Pack()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics.Queries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	// Close concurrently; it must wait for the parked handler.
	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// Release the handler: its response must still reach the client.
	close(h.release)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("in-flight query lost its response: %v", err)
	}
	if resp, err := dnsmsg.Unpack(buf[:n]); err != nil || resp.ID != 5 {
		t.Fatalf("bad drained response: %v %v", resp, err)
	}

	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}

	// A late packet against the closed server must be harmless.
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	if got := waitGoroutines(baseline); got > baseline+2 {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, got)
	}
}

// TestCloseDuringBatchSendsItsAnswers queues four queries before Serve so
// one recvmmsg takes them all, holds the first in the handler and closes
// the server: Close waits, and every answer of the batch still goes out.
func TestCloseDuringBatchSendsItsAnswers(t *testing.T) {
	if !batched {
		t.Skip("a batch holds one datagram on the single-datagram path")
	}
	h := &gatedHandler{release: make(chan struct{})}
	s, err := ListenConfig("127.0.0.1:0", h, Config{ListenerShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const queries = 4
	for id := range queries {
		wire, _ := dnsmsg.NewQuery(uint16(id), "batch.example.net", dnsmsg.TypeA).Pack()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics.Queries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a batch was being answered")
	case <-time.After(50 * time.Millisecond):
	}
	close(h.release)

	seen := make(map[uint16]bool)
	buf := make([]byte, 512)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for len(seen) < queries {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("batch lost answers on Close: got IDs %v: %v", seen, err)
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		seen[resp.ID] = true
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-serveDone
	if got := s.ShardStats()[0]; got.Wakeups != 1 || got.BatchedPackets != queries {
		t.Errorf("wakeups = %d, packets = %d; want the %d queries in one batch",
			got.Wakeups, got.BatchedPackets, queries)
	}
}
