package bench

import (
	"bytes"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
)

// TestServeLoopCounts pins what a live server costs per query, in counts
// that repeat exactly on a machine whose clock does not: a loopback server
// in the default configuration answering the guard stream through the
// authority, and a single-threaded raw-UDP client with preallocated
// buffers, warmed up before anything is counted.
//
//   - Goroutines: exactly one per listener shard while Serve runs.
//   - Allocations: none per query, counted process-wide from the client's
//     first send to its last receive, so receive, unpack, the mapping
//     answer, pack and send are all in the count. Under -race, where
//     sync.Pool drops items at random, the bound is relative instead: no
//     more than unpacking, the handler and packing cost on their own,
//     counted over the same stream outside the server.
//   - Syscalls: every query is delivered by a counted receive
//     (BatchedPackets == Queries), and no receive returns empty-handed
//     (Wakeups <= Queries).
func TestServeLoopCounts(t *testing.T) {
	w, auth := newGuardAuthority(t)
	const queries = 2000
	stream := guardStream(t, w, queries)

	srv, err := dnsserver.ListenConfig("127.0.0.1:0", auth, dnsserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-serveDone; err != nil {
			t.Error(err)
		}
	}()
	conn, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	// What the datagrams cost outside the loop, from the same source.
	var msg dnsmsg.Message
	out := make([]byte, 0, 4096)
	remote := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	outside := mallocs(func() {
		for _, q := range stream {
			if err := dnsmsg.UnpackInto(&msg, q.wire); err != nil {
				t.Fatal(err)
			}
			if out, err = dnsserver.TruncateAppend(out[:0], auth.ServeDNS(remote, &msg), 4096); err != nil {
				t.Fatal(err)
			}
		}
	})

	in := make([]byte, 4096)
	ask := func() {
		for _, q := range stream {
			if _, err := conn.Write(q.wire); err != nil {
				t.Fatal(err)
			}
			m, err := conn.Read(in)
			if err != nil {
				t.Fatal(err)
			}
			if m < 12 || in[0] != q.wire[0] || in[1] != q.wire[1] {
				t.Fatal("short or mismatched response")
			}
		}
	}
	ask() // warm-up: first-use growth of buffers and runtime structures

	if got, want := serverGoroutines(), srv.Shards(); got != want {
		t.Errorf("Serve runs %d goroutines for %d shards, want one per shard", got, want)
	}

	queries0, packets0, wakeups0 := counts(srv)
	served := mallocs(ask)
	n, packets, wakeups := counts(srv)
	n, packets, wakeups = n-queries0, packets-packets0, wakeups-wakeups0

	t.Logf("%d queries: %d allocs in all through the server, %d outside it; %d packets over %d wakeups",
		queries, served, outside, packets, wakeups)
	if raceEnabled {
		// The pools' random drops make the two windows differ by up to
		// about a hundred; one allocation per batch or per query would be
		// 2 000.
		if extra := int64(served) - int64(outside); extra > queries/4 {
			t.Errorf("the serve loop allocates %.2f times per query beyond unpack + ServeDNS + pack",
				float64(extra)/queries)
		}
	} else if served > queries/100 {
		// The count is 0 on an idle machine. The runtime's own allocations
		// can land in a window that spans real sockets, so a few are let
		// by; one per query, or per wakeup, would be 2 000.
		t.Errorf("a live server allocates %.3f times per query, want 0", float64(served)/queries)
	}
	if n != queries || packets != n || wakeups > n {
		t.Errorf("queries %d, packets %d, wakeups %d: want %d queries, each delivered by a counted receive, and no more wakeups than queries",
			n, packets, wakeups, queries)
	}
}

// serverGoroutines counts the goroutines with a dnsserver frame on their
// stack.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("eum/internal/dnsserver.")) {
			n++
		}
	}
	return n
}

// mallocs counts the heap allocations f makes, process-wide, with the
// collector held off (SetGCPercent also waits out a cycle in progress): a
// collection completing inside f empties the pools and makes the runtime
// allocate on its own account: two 24-byte objects, seen in a pass of
// top-level referrals that otherwise made none.
func mallocs(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// counts sums the server's query total and its shards' receive counters.
func counts(srv *dnsserver.Server) (queries, packets, wakeups uint64) {
	for _, st := range srv.ShardStats() {
		queries += st.Queries
		packets += st.BatchedPackets
		wakeups += st.Wakeups
	}
	return queries, packets, wakeups
}
