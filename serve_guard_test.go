package bench

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// TestServeLoopCounts pins what the UDP serve loop itself costs, in counts
// that repeat exactly on a machine whose clock does not: a live loopback
// server in the default configuration answering through the authority, and
// a single-threaded raw-UDP client with preallocated buffers, warmed up
// before anything is counted.
//
//   - Goroutines: exactly one per listener shard while Serve runs.
//   - Allocations: none per query beyond what unpacking, the handler and
//     packing cost on their own, counted over as many runs of the same
//     datagram outside the server (AllocsPerRun would round that cost down,
//     and under -race, where sync.Pool drops items at random, the fraction
//     it drops is what varies).
//   - Syscalls: every query is delivered by a counted receive
//     (BatchedPackets == Queries), and no receive returns empty-handed
//     (Wakeups <= Queries).
func TestServeLoopCounts(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 5, NumBlocks: 2000})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 5, NumDeployments: 120})
	sys := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapping.Config{
		Policy: mapping.EndUser, PingTargets: 200,
	})
	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	q := dnsmsg.NewQuery(7, "img.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(w.Blocks[0].Prefix.Addr(), 24)
	query, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}

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

	const queries = 2000
	// What the datagrams cost outside the loop, from the same source.
	var msg dnsmsg.Message
	out := make([]byte, 0, 4096)
	remote := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	outside := mallocs(func() {
		for range queries {
			if err := dnsmsg.UnpackInto(&msg, query); err != nil {
				t.Fatal(err)
			}
			if out, err = dnsserver.TruncateAppend(out[:0], auth.ServeDNS(remote, &msg), 4096); err != nil {
				t.Fatal(err)
			}
		}
	})

	in := make([]byte, 4096)
	ask := func(n int) {
		for range n {
			if _, err := conn.Write(query); err != nil {
				t.Fatal(err)
			}
			m, err := conn.Read(in)
			if err != nil {
				t.Fatal(err)
			}
			if m < 12 || in[0] != query[0] || in[1] != query[1] {
				t.Fatal("short or mismatched response")
			}
		}
	}
	ask(200) // warm-up: first-use growth of buffers and runtime structures

	if got, want := serverGoroutines(), srv.Shards(); got != want {
		t.Errorf("Serve runs %d goroutines for %d shards, want one per shard", got, want)
	}

	queries0, packets0, wakeups0 := counts(srv)
	served := mallocs(func() { ask(queries) })
	n, packets, wakeups := counts(srv)
	n, packets, wakeups = n-queries0, packets-packets0, wakeups-wakeups0

	extra := int64(served) - int64(outside)
	t.Logf("%d queries: %.2f allocs each outside the loop, %d more in the server in all; %d packets over %d wakeups",
		queries, float64(outside)/queries, extra, packets, wakeups)
	// A few runtime allocations land in either window, and under -race the
	// pools' random drops make the two windows differ by up to about a
	// hundred; one allocation per batch or per query would be 2 000.
	if extra > queries/4 {
		t.Errorf("the serve loop allocates %.2f times per query beyond unpack + ServeDNS + pack",
			float64(extra)/queries)
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

// mallocs counts the heap allocations f makes, process-wide.
func mallocs(f func()) uint64 {
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
