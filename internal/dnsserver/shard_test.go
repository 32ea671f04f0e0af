package dnsserver

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"eum/internal/dnsmsg"
)

// exchange sends one A query for name with the given ID over conn and
// returns the unpacked response (fatal on timeout).
func exchange(t *testing.T, conn net.Conn, id uint16, name string) *dnsmsg.Message {
	t.Helper()
	wire, err := dnsmsg.NewQuery(id, dnsmsg.Name(name), dnsmsg.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no response for %s (id %d): %v", name, id, err)
	}
	resp, err := dnsmsg.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestListenReusePortSharded binds multiple SO_REUSEPORT shards on one
// address, serves queries through them, and shuts down without leaking
// goroutines or leaving a shard socket open.
func TestListenReusePortSharded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("SO_REUSEPORT sharding is linux-only")
	}
	baseline := runtime.NumGoroutine()

	h := &echoHandler{}
	s, err := ListenConfig("127.0.0.1:0", h, Config{ListenerShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	// Every shard must share the same address: the kernel spreads flows.
	for i := 0; i < s.Shards(); i++ {
		if s.ShardAddr(i).String() != s.Addr().String() {
			t.Errorf("shard %d addr = %v, want %v", i, s.ShardAddr(i), s.Addr())
		}
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()

	// Many distinct 4-tuples so the kernel's hash exercises several shards.
	const queries = 40
	for i := 0; i < queries; i++ {
		conn, err := net.Dial("udp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		resp := exchange(t, conn, uint16(i), fmt.Sprintf("q%d.example.net", i))
		conn.Close()
		if resp.ID != uint16(i) || len(resp.Answers) != 1 {
			t.Fatalf("query %d: bad response %v", i, resp)
		}
	}
	if got := s.Metrics.Queries.Load(); got != queries {
		t.Errorf("aggregate Queries = %d, want %d", got, queries)
	}
	var perShard uint64
	for _, st := range s.ShardStats() {
		perShard += st.Queries
	}
	if perShard != queries {
		t.Errorf("per-shard Queries sum = %d, want %d", perShard, queries)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if got := waitGoroutines(baseline); got > baseline+2 {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, got)
	}
}

// TestBatchedIOServes runs the recvmmsg/sendmmsg path end to end: every
// query is answered and the wakeup counters prove the batch loop (not the
// portable fallback) was doing the work.
func TestBatchedIOServes(t *testing.T) {
	if !batched {
		t.Skip("no recvmmsg/sendmmsg on this platform")
	}
	h := &echoHandler{}
	s, err := ListenConfig("127.0.0.1:0", h, Config{ListenerShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()
	defer s.Close()

	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const queries = 50
	for i := 0; i < queries; i++ {
		resp := exchange(t, conn, uint16(i), fmt.Sprintf("b%d.example.net", i))
		if resp.ID != uint16(i) || len(resp.Answers) != 1 {
			t.Fatalf("query %d: bad response %v", i, resp)
		}
	}

	// A shard counts a response once sendmmsg has returned, which may be
	// after the client already holds it: read the counters once the
	// shards have stopped.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-serveDone
	st := s.ShardStats()[0]
	if st.Queries != queries || st.Responses != queries {
		t.Errorf("shard stats = %+v, want %d queries/responses", st, queries)
	}
	if st.Wakeups == 0 || st.BatchedPackets != queries {
		t.Errorf("wakeups = %d batched = %d, want nonzero wakeups and %d packets",
			st.Wakeups, st.BatchedPackets, queries)
	}
	if st.BatchedPackets < st.Wakeups {
		t.Errorf("batched %d < wakeups %d: counter inversion", st.BatchedPackets, st.Wakeups)
	}
}

// TestBatchShutdownWakes closes a server whose shards are parked in
// recvmmsg with nothing arriving; Close's read deadline must wake them.
func TestBatchShutdownWakes(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("batched I/O is linux-only")
	}
	baseline := runtime.NumGoroutine()
	s, err := ListenConfig("127.0.0.1:0", HandlerFunc(
		func(_ netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message { return q.Reply() },
	), Config{ListenerShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()
	time.Sleep(20 * time.Millisecond) // let the shards park in recvmmsg

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung: a shard never woke from recvmmsg")
	}
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if got := waitGoroutines(baseline); got > baseline+2 {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, got)
	}
}

// TestShardIndependenceRaceHammer proves shards share nothing that
// matters: a flood that exhausts shard 0's RRL budget for a source prefix
// must not rate-limit the same prefix on shards 1..3. Uses NewConns
// (separately bound sockets) so each shard is directly addressable — the
// kernel's REUSEPORT hash is not steerable from a test. Run under -race
// this doubles as the cross-shard data-race check.
func TestShardIndependenceRaceHammer(t *testing.T) {
	const shards = 4
	conns := make([]net.PacketConn, shards)
	for i := range conns {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = pc
	}
	s, err := NewConns(conns, &echoHandler{}, Config{
		RRLRate: 50, RRLBurst: 8, RRLSlip: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()
	defer s.Close()

	// Flood shard 0 from one socket: 500 back-to-back queries against a
	// 50/s budget with burst 8 must trip the limiter hard.
	flood, err := net.Dial("udp", s.ShardAddr(0).String())
	if err != nil {
		t.Fatal(err)
	}
	defer flood.Close()
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		wire, _ := dnsmsg.NewQuery(9, "flood.example.net", dnsmsg.TypeA).Pack()
		for i := 0; i < 500; i++ {
			_, _ = flood.Write(wire)
		}
	}()

	// Concurrently, each other shard gets a few well-spaced queries from
	// the same source prefix (127.0.0.0/24). Independent limiter tables
	// mean every one must be answered.
	var wg sync.WaitGroup
	errs := make(chan error, shards)
	for shard := 1; shard < shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.ShardAddr(shard).String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < 4; i++ {
				wire, _ := dnsmsg.NewQuery(uint16(shard*100+i),
					dnsmsg.Name(fmt.Sprintf("s%d-%d.example.net", shard, i)), dnsmsg.TypeA).Pack()
				if _, err := conn.Write(wire); err != nil {
					errs <- err
					return
				}
				_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				buf := make([]byte, 4096)
				n, err := conn.Read(buf)
				if err != nil {
					errs <- fmt.Errorf("shard %d query %d starved: cross-shard rate-limit leak? %v", shard, i, err)
					return
				}
				resp, err := dnsmsg.Unpack(buf[:n])
				if err != nil || resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
					errs <- fmt.Errorf("shard %d query %d: bad response %v %v", shard, i, resp, err)
					return
				}
				time.Sleep(30 * time.Millisecond)
			}
		}(shard)
	}
	wg.Wait()
	floodWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Responses are counted after the send returns: read them once the
	// shards have stopped.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-serveDone
	stats := s.ShardStats()
	if stats[0].RateLimited == 0 {
		t.Error("flooded shard 0 never rate-limited: RRL not active")
	}
	for shard := 1; shard < shards; shard++ {
		if stats[shard].RateLimited != 0 {
			t.Errorf("shard %d rate-limited %d queries: limiter state leaked across shards",
				shard, stats[shard].RateLimited)
		}
		if stats[shard].Responses != 4 {
			t.Errorf("shard %d responses = %d, want 4", shard, stats[shard].Responses)
		}
	}
	if s.Metrics.RateLimited.Load() != stats[0].RateLimited {
		t.Errorf("aggregate RateLimited %d != shard 0's %d",
			s.Metrics.RateLimited.Load(), stats[0].RateLimited)
	}
}

// TestShardedGracefulShutdown extends the goroutine-leak check to a
// multi-shard server with a query parked in a handler on one shard.
func TestShardedGracefulShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()

	conns := make([]net.PacketConn, 3)
	for i := range conns {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = pc
	}
	h := &gatedHandler{release: make(chan struct{})}
	s, err := NewConns(conns, h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve() }()

	// Park one query in shard 2's handler.
	conn, err := net.Dial("udp", s.ShardAddr(2).String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, _ := dnsmsg.NewQuery(77, "park.example.net", dnsmsg.TypeA).Pack()
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

	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was in flight on shard 2")
	case <-time.After(50 * time.Millisecond):
	}

	close(h.release)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("parked query lost its response: %v", err)
	}
	if resp, err := dnsmsg.Unpack(buf[:n]); err != nil || resp.ID != 77 {
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
	if got := waitGoroutines(baseline); got > baseline+2 {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, got)
	}
}
