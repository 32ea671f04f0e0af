// Package dnsserver implements a UDP authoritative DNS server host: a
// serve loop over one or more UDP sockets that parses queries with dnsmsg,
// hands them to a Handler, and writes responses, with per-server metrics.
//
// It is the transport layer for the mapping system's authoritative name
// servers (§2.2 component 3): handlers implement the mapping behaviour,
// this package owns sockets, concurrency and message hygiene.
//
// The serve plane is sharded shared-nothing: the server runs N listener
// shards, each owning its own UDP socket (bound with SO_REUSEPORT on Linux
// so the kernel fans flows out across the sockets by 4-tuple hash). A
// shard is one goroutine running to completion: receive a batch, answer
// each datagram inline, send the answers. Everything that goroutine
// touches — receive slots, response buffers, the query scratch message,
// the response-rate-limiter table — belongs to its shard; the only shared
// state is the monotone aggregate counters in Metrics. The I/O is chosen
// by the conn, not configured: recvmmsg/sendmmsg on a Linux amd64/arm64
// *net.UDPConn (see batch_linux.go), one ReadFrom/WriteTo per datagram on
// anything else. Overload lands in the kernel socket buffer, which drops
// what the loop does not get to.
package dnsserver

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"eum/internal/dnsmsg"
	"eum/internal/telemetry"
)

// Handler answers DNS queries. Implementations must be safe for concurrent
// use. Returning nil drops the query (no response), which a handler may use
// for malformed or abusive traffic.
//
// The query message is only valid for the duration of the call: the server
// recycles it once ServeDNS returns. Handlers that need query state beyond
// the call must copy it (the response returned may freely reference the
// query's strings, which are immutable).
type Handler interface {
	ServeDNS(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	return f(remote, q)
}

// Metrics counts server activity, aggregated across all shards. All fields
// are updated atomically and may be read at any time. These counters are
// the one piece of cross-shard shared state: they are monotone counters
// whose cache-line contention cannot produce wrong answers, only a few
// nanoseconds of false sharing — per-shard operational state lives in
// ShardStats instead.
type Metrics struct {
	// Queries is the number of well-formed queries received.
	Queries atomic.Uint64
	// Responses is the number of responses sent.
	Responses atomic.Uint64
	// Malformed is the number of datagrams that failed to parse or were
	// longer than maxAdvertisedUDPSize.
	Malformed atomic.Uint64
	// Dropped is the number of queries the handler chose not to answer.
	Dropped atomic.Uint64
	// DeadlineDrops is the number of received datagrams discarded because
	// the answers ahead of them in their batch ran past the serve deadline.
	DeadlineDrops atomic.Uint64
	// RateLimited is the number of queries suppressed by response-rate
	// limiting (see Config.RRLRate).
	RateLimited atomic.Uint64
	// Slips is the subset of RateLimited answered with a minimal TC=1
	// response so legitimate clients can retry over TCP.
	Slips atomic.Uint64
	// HandlerPanics is the number of handler panics recovered by the serve
	// loop (each answered with SERVFAIL).
	HandlerPanics atomic.Uint64
}

// ShardMetrics counts one shard's activity. Each shard updates only its
// own instance, so these atomics never bounce between cores.
type ShardMetrics struct {
	// Queries is the number of well-formed queries this shard received.
	Queries atomic.Uint64
	// Responses is the number of responses this shard sent.
	Responses atomic.Uint64
	// RateLimited is the number of queries this shard's RRL suppressed.
	RateLimited atomic.Uint64
	// Wakeups counts receive syscall returns that delivered >= 1 packet.
	Wakeups atomic.Uint64
	// BatchedPackets counts packets delivered across those wakeups, so
	// BatchedPackets/Wakeups is the measured packets-per-syscall ratio
	// (1.0 on the single-datagram path, up to batchSize with recvmmsg
	// under load).
	BatchedPackets atomic.Uint64
}

// ShardStats is a point-in-time copy of one shard's counters.
type ShardStats struct {
	Shard          int
	Queries        uint64
	Responses      uint64
	RateLimited    uint64
	Wakeups        uint64
	BatchedPackets uint64
}

// maxAdvertisedUDPSize caps the EDNS UDP payload size the server honours.
// RFC 6891 §6.2.5 recommends 4096 octets as the upper bound of what is
// reliably deliverable; clients advertising more are clamped rather than
// trusted, bounding response buffers and fragmentation exposure. It also
// bounds what the server parses: no legitimate query comes near it.
const maxAdvertisedUDPSize = 4096

// slotSize is a receive slot's length: one byte more than the largest
// datagram the server parses, so a longer one shows as a full slot and is
// counted Malformed instead of being parsed truncated.
const slotSize = maxAdvertisedUDPSize + 1

// batchSize is how many datagrams one wakeup of the batched path receives
// and sends: 32 measured 7.96 packets per recvmmsg under load.
const batchSize = 32

// Config tunes the server. The zero value selects the defaults.
type Config struct {
	// ListenerShards is the number of shared-nothing listener shards.
	// ListenConfig binds each shard its own SO_REUSEPORT socket so the
	// kernel spreads flows across them. Default: GOMAXPROCS on Linux
	// (where SO_REUSEPORT exists), 1 elsewhere. Values > 1 require Linux
	// when sockets are bound by this package; NewConns accepts any number
	// of caller-supplied conns on any platform.
	ListenerShards int
	// ServeDeadline bounds how long a received datagram may wait behind
	// the answers ahead of it in its batch: the receive is stamped once,
	// and a datagram reached after the deadline has passed is dropped
	// (DeadlineDrops), on the theory that the resolver has already retried
	// or failed over. It cannot fire on the single-datagram path, where
	// every datagram is first in its batch. Zero disables the deadline.
	ServeDeadline time.Duration
	// RRLRate enables response-rate limiting when positive: each source
	// prefix (IPv4 /24, IPv6 /56) is allowed this many responses per
	// second, smoothed by a token-bucket (GCRA) with RRLBurst tolerance.
	// Rate-limited queries are dropped except every RRLSlip-th one, which
	// gets a minimal TC=1 response so legitimate clients behind the prefix
	// can fall back to TCP (the standard RRL "slip" escape hatch).
	// Each shard runs its own limiter table: the kernel pins a flow to one
	// shard, so a source prefix is still accounted coherently, and shards
	// never contend on limiter cache lines.
	RRLRate float64
	// RRLBurst is the burst allowance in responses. Default 8.
	RRLBurst int
	// RRLSlip answers every n-th rate-limited query with TC=1; 0 uses the
	// default of 2, negative disables slipping entirely.
	RRLSlip int
}

func (c Config) withDefaults() Config {
	if c.ListenerShards <= 0 {
		c.ListenerShards = defaultListenerShards()
	}
	if c.RRLBurst <= 0 {
		c.RRLBurst = 8
	}
	if c.RRLSlip == 0 {
		c.RRLSlip = 2
	}
	return c
}

// slot is one datagram's place in a shard: the query received into in[:n]
// from raddr, and the answer packed into out (empty: no answer). out
// starts nil and keeps whatever capacity the answers packed into it grew.
type slot struct {
	in    [slotSize]byte
	n     int
	raddr netip.AddrPort
	out   []byte
}

// shard is one shared-nothing serving unit: a socket, its slots, its query
// scratch, its RRL table and its counters, all owned by the one goroutine
// that runs serve.
type shard struct {
	id  int
	srv *Server

	conn net.PacketConn
	// udpConn is conn when it is a *net.UDPConn, enabling the
	// allocation-free ReadFromUDPAddrPort/WriteToUDPAddrPort pair.
	udpConn *net.UDPConn
	// batch is the recvmmsg/sendmmsg state, nil on the single-datagram
	// path.
	batch *batchIO

	// rrl is this shard's response-rate limiter, nil unless Config.RRLRate
	// is positive. Per shard by design: the kernel's REUSEPORT hash pins a
	// flow to one shard, so accounting stays coherent without sharing.
	rrl *rateLimiter

	// slots holds batchSize slots on the batched path, one otherwise.
	slots []slot
	// query is the message every datagram is unpacked into.
	query dnsmsg.Message

	// Stats counts this shard's activity.
	Stats ShardMetrics
}

// Server is a UDP DNS server over one or more listener shards.
type Server struct {
	handler Handler
	cfg     Config
	shards  []*shard
	// latency, when non-nil, records per-query handler latency. Set by
	// RegisterMetrics before Serve.
	latency *telemetry.Histogram

	// Metrics exposes live counters aggregated across shards.
	Metrics Metrics

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // the running Serve call; Close waits on it
}

// Listen binds a UDP socket on addr (e.g. "127.0.0.1:0") and returns a
// server with the default configuration, ready to Serve. The handler must
// not be nil.
func Listen(addr string, h Handler) (*Server, error) {
	return ListenConfig(addr, h, Config{})
}

// ListenConfig is Listen with an explicit configuration. With
// ListenerShards > 1 it binds one SO_REUSEPORT socket per shard on the
// same address, so the kernel fans incoming flows out across the shards;
// that path requires Linux.
func ListenConfig(addr string, h Handler, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	conns := make([]net.PacketConn, 0, cfg.ListenerShards)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < cfg.ListenerShards; i++ {
		var conn net.PacketConn
		var err error
		if cfg.ListenerShards == 1 {
			conn, err = net.ListenPacket("udp", addr)
		} else {
			conn, err = listenReusePort(addr)
		}
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dnsserver: shard %d: %w", i, err)
		}
		if i == 0 {
			// Shard 0 may have resolved port 0 to a concrete port; the
			// remaining shards must bind that same port to join the
			// REUSEPORT group.
			addr = conn.LocalAddr().String()
		}
		conns = append(conns, conn)
	}
	s, err := newConns(conns, h, cfg)
	if err != nil {
		closeAll()
		return nil, err
	}
	return s, nil
}

// NewConn builds a single-shard server over an already-open packet
// connection — the entry point for tests that interpose a fault-injecting
// transport (see internal/faultnet) between the server and the wire. The
// server owns the connection from here on; Close closes it.
func NewConn(conn net.PacketConn, h Handler, cfg Config) (*Server, error) {
	return NewConns([]net.PacketConn{conn}, h, cfg)
}

// NewConns builds a server with one shard per supplied connection. Unlike
// the SO_REUSEPORT path the conns need not share an address: tests bind
// distinct loopback ports so individual shards stay addressable, and chaos
// harnesses wrap each conn in its own fault injector. The server owns the
// connections from here on; Close closes them all.
func NewConns(conns []net.PacketConn, h Handler, cfg Config) (*Server, error) {
	if len(conns) == 0 {
		return nil, errors.New("dnsserver: no conns")
	}
	for _, c := range conns {
		if c == nil {
			return nil, errors.New("dnsserver: nil conn")
		}
	}
	cfg.ListenerShards = len(conns)
	return newConns(conns, h, cfg.withDefaults())
}

// newConns wires the shards. cfg must already have defaults applied and
// cfg.ListenerShards == len(conns).
func newConns(conns []net.PacketConn, h Handler, cfg Config) (*Server, error) {
	if h == nil {
		return nil, errors.New("dnsserver: nil handler")
	}
	s := &Server{handler: h, cfg: cfg}
	s.shards = make([]*shard, len(conns))
	for i, conn := range conns {
		sh := &shard{id: i, srv: s, conn: conn}
		sh.udpConn, _ = conn.(*net.UDPConn)
		if cfg.RRLRate > 0 {
			sh.rrl = newRateLimiter(cfg.RRLRate, cfg.RRLBurst, cfg.RRLSlip)
		}
		n := 1
		if batched && sh.udpConn != nil {
			n = batchSize
		}
		sh.slots = make([]slot, n)
		if n > 1 {
			b, err := newBatchIO(sh.udpConn, sh.slots)
			if err != nil {
				return nil, err
			}
			sh.batch = b
		}
		s.shards[i] = sh
	}
	return s, nil
}

// Addr returns shard 0's bound address, for clients to dial. With
// SO_REUSEPORT sharding every shard shares this address.
func (s *Server) Addr() net.Addr { return s.shards[0].conn.LocalAddr() }

// Shards returns the number of listener shards.
func (s *Server) Shards() int { return len(s.shards) }

// ShardAddr returns the bound address of one shard — distinct per shard
// when the server was built with NewConns over separately-bound sockets.
func (s *Server) ShardAddr(i int) net.Addr { return s.shards[i].conn.LocalAddr() }

// ShardStats snapshots every shard's counters.
func (s *Server) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Shard:          i,
			Queries:        sh.Stats.Queries.Load(),
			Responses:      sh.Stats.Responses.Load(),
			RateLimited:    sh.Stats.RateLimited.Load(),
			Wakeups:        sh.Stats.Wakeups.Load(),
			BatchedPackets: sh.Stats.BatchedPackets.Load(),
		}
	}
	return out
}

// Serve runs every shard's loop — shard 0 on the calling goroutine, each
// other shard on one of its own — until the server is closed. Serve
// returns nil after Close.
func (s *Server) Serve() error {
	// Close waits on wg, so it does not return until every shard has sent
	// the answers of the batch it held and exited.
	s.wg.Add(1)
	defer s.wg.Done()
	errs := make([]error, len(s.shards))
	var others sync.WaitGroup
	for i, sh := range s.shards[1:] {
		others.Add(1)
		go func() {
			defer others.Done()
			errs[i+1] = sh.serve()
		}()
	}
	errs[0] = s.shards[0].serve()
	others.Wait()
	return errors.Join(errs...)
}

// serve is one shard's loop: receive a batch, answer each datagram inline
// into its slot, send the answers, until a receive fails — normally
// because Close set a read deadline, which it returns nil for.
func (sh *shard) serve() error {
	deadline := int64(sh.srv.cfg.ServeDeadline)
	for {
		n, err := sh.recv()
		if err != nil {
			if sh.srv.isClosed() {
				return nil
			}
			return fmt.Errorf("dnsserver: read: %w", err)
		}
		if n == 0 {
			continue
		}
		sh.Stats.Wakeups.Add(1)
		sh.Stats.BatchedPackets.Add(uint64(n))
		var received int64
		if deadline > 0 {
			received = time.Now().UnixNano()
		}
		for i := range sh.slots[:n] {
			sl := &sh.slots[i]
			sl.out = sl.out[:0]
			if deadline > 0 && time.Now().UnixNano()-received > deadline {
				// A slow answer ahead of this datagram used up its time:
				// the resolver has retried or failed over by now.
				sh.srv.Metrics.DeadlineDrops.Add(1)
				continue
			}
			sh.answer(sl)
		}
		if sent := sh.send(n); sent > 0 {
			sh.srv.Metrics.Responses.Add(uint64(sent))
			sh.Stats.Responses.Add(uint64(sent))
		}
	}
}

// recv fills slots[:n] with the next datagrams: a batch on the batched
// path, one otherwise. n == 0 with a nil error means nothing usable
// arrived and the caller just receives again.
func (sh *shard) recv() (int, error) {
	if sh.batch != nil {
		return sh.batch.recvBatch()
	}
	sl := &sh.slots[0]
	var err error
	if sh.udpConn != nil {
		sl.n, sl.raddr, err = sh.udpConn.ReadFromUDPAddrPort(sl.in[:])
	} else {
		var remote net.Addr
		sl.n, remote, err = sh.conn.ReadFrom(sl.in[:])
		if err == nil {
			sl.raddr, _ = remoteAddrPort(remote)
		}
	}
	if err != nil || !sl.raddr.IsValid() {
		return 0, err
	}
	return 1, nil
}

// send sends the answers held in slots[:n] and reports how many went out.
func (sh *shard) send(n int) int {
	if sh.batch != nil {
		return sh.batch.sendBatch(n)
	}
	sl := &sh.slots[0]
	if len(sl.out) == 0 {
		return 0
	}
	var err error
	if sh.udpConn != nil {
		_, err = sh.udpConn.WriteToUDPAddrPort(sl.out, sl.raddr)
	} else {
		_, err = sh.conn.WriteTo(sl.out, net.UDPAddrFromAddrPort(sl.raddr))
	}
	if err != nil {
		return 0
	}
	return 1
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// answer parses the slot's datagram, serves it and packs the response
// into sl.out, leaving sl.out empty when the query gets no answer.
func (sh *shard) answer(sl *slot) {
	s := sh.srv
	query := &sh.query
	if sl.n > maxAdvertisedUDPSize || dnsmsg.UnpackInto(query, sl.in[:sl.n]) != nil || query.Response {
		s.Metrics.Malformed.Add(1)
		return
	}
	s.Metrics.Queries.Add(1)
	sh.Stats.Queries.Add(1)
	var resp *dnsmsg.Message
	if sh.rrl != nil && !sh.rrl.allow(sl.raddr.Addr(), time.Now().UnixNano()) {
		s.Metrics.RateLimited.Add(1)
		sh.Stats.RateLimited.Add(1)
		if !sh.rrl.shouldSlip() {
			return
		}
		// Slip: a minimal TC=1 response with no records steers a
		// legitimate client behind the offending prefix to retry over TCP,
		// where the handshake verifies its source address.
		s.Metrics.Slips.Add(1)
		resp = query.Reply()
		resp.Truncated = true
	} else {
		var startNs int64
		if s.latency != nil {
			startNs = time.Now().UnixNano()
		}
		resp = safeServe(s.handler, &s.Metrics, sl.raddr, query)
		if s.latency != nil {
			s.latency.ObserveNanos(time.Now().UnixNano() - startNs)
		}
		if resp == nil {
			s.Metrics.Dropped.Add(1)
			return
		}
	}
	wire, err := TruncateAppend(sl.out[:0], resp, udpPayloadSize(query))
	if err != nil {
		// A handler bug; answer SERVFAIL so the client doesn't hang.
		servfail := query.Reply()
		servfail.RCode = dnsmsg.RCodeServerFailure
		if wire, err = servfail.AppendPack(sl.out[:0]); err != nil {
			s.Metrics.Dropped.Add(1)
			return
		}
	}
	sl.out = wire
}

// udpPayloadSize is how large an answer to query may be: the client's
// advertised UDP payload size (512 octets for non-EDNS queries, RFC 1035),
// clamped to maxAdvertisedUDPSize per RFC 6891 §6.2.5 rather than trusting
// arbitrary advertised sizes. Larger answers are truncated with TC=1 so
// the client retries over TCP.
func udpPayloadSize(query *dnsmsg.Message) int {
	if !query.EDNS {
		return 512
	}
	return min(max(int(query.UDPSize), 512), maxAdvertisedUDPSize)
}

// safeServe invokes the handler, converting a panic into a SERVFAIL
// response: one misbehaving query must not take down the serve loop. UDP
// shards and the TCP server both call it.
func safeServe(h Handler, m *Metrics, raddr netip.AddrPort, query *dnsmsg.Message) (resp *dnsmsg.Message) {
	defer func() {
		if p := recover(); p != nil {
			m.HandlerPanics.Add(1)
			r := query.Reply()
			r.RCode = dnsmsg.RCodeServerFailure
			resp = r
		}
	}()
	return h.ServeDNS(raddr, query)
}

// Close shuts the server down gracefully: a read deadline in the past wakes
// every shard parked in a receive — recvmmsg included, which RawConn.Read
// runs under the same deadline — without tearing the socket down, so a
// shard busy with a batch answers and sends all of it before its next
// receive fails and it exits. Only then are the sockets closed. Datagrams
// arriving meanwhile stay in the kernel buffers and die with the sockets.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		_ = sh.conn.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func remoteAddrPort(a net.Addr) (netip.AddrPort, bool) {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.AddrPort(), true
	}
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.AddrPort{}, false
	}
	return ap, true
}
