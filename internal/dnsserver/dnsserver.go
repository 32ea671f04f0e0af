// Package dnsserver implements a UDP authoritative DNS server host: a
// serve loop over one or more UDP sockets that parses queries with dnsmsg,
// hands them to a Handler, and writes responses, with per-server metrics.
//
// It is the transport layer for the mapping system's authoritative name
// servers (§2.2 component 3): handlers implement the mapping behaviour,
// this package owns sockets, concurrency and message hygiene.
//
// The serve plane is built for the paper's query rates (§5: millions of
// queries per second platform-wide) and is sharded shared-nothing: the
// server runs N listener shards, each owning its own UDP socket (bound
// with SO_REUSEPORT on Linux so the kernel fans flows out across the
// sockets by 4-tuple hash), its own buffer pools, bounded work queue,
// worker goroutines and response-rate-limiter table. No mutable state is
// shared between shards on the hot path — only the monotone aggregate
// counters in Metrics, which tolerate contention by construction. On
// Linux a shard can additionally drain and flush up to Config.BatchSize
// datagrams per syscall via recvmmsg/sendmmsg (see batch_linux.go), with
// a portable single-packet fallback everywhere else.
package dnsserver

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
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
	// Malformed is the number of datagrams that failed to parse.
	Malformed atomic.Uint64
	// Dropped is the number of queries the handler chose not to answer.
	Dropped atomic.Uint64
	// Shed is the number of datagrams rejected at enqueue because the
	// pending-work queue was full (ShedDrop and ShedRefuse policies).
	Shed atomic.Uint64
	// DeadlineDrops is the number of queued queries discarded because they
	// aged past the serve deadline before a worker picked them up.
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
	// Shed is the number of datagrams this shard rejected at enqueue.
	Shed atomic.Uint64
	// RateLimited is the number of queries this shard's RRL suppressed.
	RateLimited atomic.Uint64
	// Wakeups counts receive syscall returns that delivered >= 1 packet.
	Wakeups atomic.Uint64
	// BatchedPackets counts packets delivered across those wakeups, so
	// BatchedPackets/Wakeups is the measured packets-per-syscall ratio
	// (1.0 on the portable single-packet path, up to BatchSize with
	// recvmmsg under load).
	BatchedPackets atomic.Uint64
}

// ShardStats is a point-in-time copy of one shard's counters.
type ShardStats struct {
	Shard          int
	Queries        uint64
	Responses      uint64
	Shed           uint64
	RateLimited    uint64
	Wakeups        uint64
	BatchedPackets uint64
	// QueueLen is the instantaneous depth of the shard's work queue.
	QueueLen int
}

// ShedPolicy selects what happens to a datagram that arrives while the
// pending-work queue is full — the server's explicit overload posture.
type ShedPolicy int

const (
	// ShedBlock: readers block until a worker frees a slot. Backpressure
	// lands in the kernel socket buffer, which drops datagrams silently
	// once it fills. This is the legacy default.
	ShedBlock ShedPolicy = iota
	// ShedDrop: the datagram is discarded immediately and counted, keeping
	// readers draining the socket so the kernel buffer holds fresh traffic
	// instead of a stale backlog.
	ShedDrop
	// ShedRefuse: as ShedDrop, but well-formed queries get a minimal
	// REFUSED response so resolvers fail over to another authority at once
	// instead of timing out.
	ShedRefuse
)

// String names the policy (the inverse of ParseShedPolicy).
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedDrop:
		return "drop"
	case ShedRefuse:
		return "refuse"
	}
	return fmt.Sprintf("ShedPolicy(%d)", int(p))
}

// ParseShedPolicy maps a config/flag string to a ShedPolicy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "", "block":
		return ShedBlock, nil
	case "drop":
		return ShedDrop, nil
	case "refuse":
		return ShedRefuse, nil
	}
	return 0, fmt.Errorf("dnsserver: unknown shed policy %q (want block, drop or refuse)", s)
}

// maxAdvertisedUDPSize caps the EDNS UDP payload size the server honours.
// RFC 6891 §6.2.5 recommends 4096 octets as the upper bound of what is
// reliably deliverable; clients advertising more are clamped rather than
// trusted, bounding response buffers and fragmentation exposure.
const maxAdvertisedUDPSize = 4096

// maxPacketSize is the read buffer size: the largest UDP datagram.
const maxPacketSize = 65535

// maxBatchSize bounds Config.BatchSize: beyond 64 datagrams per syscall
// the syscall amortisation has flattened while the per-shard slot memory
// (BatchSize full-size read buffers pinned per reader) keeps growing.
const maxBatchSize = 64

// Config tunes the server's concurrency model. The zero value selects the
// pooled defaults. Reader/worker/queue knobs are per shard.
type Config struct {
	// ListenerShards is the number of shared-nothing listener shards.
	// ListenConfig binds each shard its own SO_REUSEPORT socket so the
	// kernel spreads flows across them. Default: GOMAXPROCS on Linux
	// (where SO_REUSEPORT exists), 1 elsewhere. Values > 1 require Linux
	// when sockets are bound by this package; NewConns accepts any number
	// of caller-supplied conns on any platform.
	ListenerShards int
	// BatchSize is the number of datagrams a shard may drain or flush per
	// syscall using recvmmsg/sendmmsg. 1 (the default) selects the
	// portable single-packet path. Values > 1 require Linux on amd64 or
	// arm64 and a real UDP socket; injected non-UDP conns (faultnet
	// wrappers) silently fall back to the single-packet path.
	BatchSize int
	// Readers is the number of goroutines blocked reading each shard's
	// socket. More than one keeps the socket drained while packets are
	// being dispatched. Default 2 for a single unbatched shard (the
	// legacy layout); 1 per shard otherwise — a sharded or batched plane
	// gets its parallelism from shards, not stacked readers.
	Readers int
	// Workers is the number of handler goroutines draining each shard's
	// packet queue. Mapping decisions are CPU-bound, so the default is
	// GOMAXPROCS divided across the shards (at least 1).
	Workers int
	// QueueDepth bounds each shard's pending-packet channel. When the
	// queue is full, readers block — backpressure lands in the kernel
	// socket buffer, which sheds load by dropping datagrams (the correct
	// behaviour for DNS over UDP). Default 4x Workers.
	QueueDepth int
	// OnOverload selects what happens to datagrams arriving while the
	// queue is full. Default ShedBlock (kernel-buffer backpressure).
	OnOverload ShedPolicy
	// ServeDeadline bounds how long a query may wait in the queue before a
	// worker starts on it; overdue queries are dropped (DeadlineDrops), on
	// the theory that the resolver has already retried or failed over and
	// a late answer only wastes a worker. Zero disables the deadline.
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
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.BatchSize > maxBatchSize {
		c.BatchSize = maxBatchSize
	}
	if c.Readers <= 0 {
		if c.ListenerShards > 1 || c.BatchSize > 1 {
			c.Readers = 1
		} else {
			c.Readers = 2
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / c.ListenerShards
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RRLBurst <= 0 {
		c.RRLBurst = 8
	}
	if c.RRLSlip == 0 {
		c.RRLSlip = 2
	}
	return c
}

// packet is one received datagram travelling from a reader to a worker.
// buf is a pooled full-size buffer (passed by pointer so re-pooling it
// does not re-box the slice header); the datagram occupies (*buf)[:n].
// enq is the enqueue instant (unix nanoseconds), stamped only when a serve
// deadline is configured.
type packet struct {
	buf   *[]byte
	n     int
	raddr netip.AddrPort
	enq   int64
}

// outPacket is one response datagram travelling from a worker to a shard's
// batching writer. buf is a pooled wire buffer owned by the writer from
// enqueue until it is re-pooled after the send.
type outPacket struct {
	buf   *[]byte
	raddr netip.AddrPort
}

// shard is one shared-nothing serving unit: a socket, its pools, its work
// queue, its RRL table and its counters. Nothing in here is touched by any
// other shard.
type shard struct {
	id  int
	srv *Server

	conn net.PacketConn
	// udpConn is conn when it is a *net.UDPConn, enabling the
	// allocation-free ReadFromUDPAddrPort/WriteToUDPAddrPort pair and the
	// batched recvmmsg/sendmmsg path.
	udpConn *net.UDPConn

	// rrl is this shard's response-rate limiter, nil unless Config.RRLRate
	// is positive. Per shard by design: the kernel's REUSEPORT hash pins a
	// flow to one shard, so accounting stays coherent without sharing.
	rrl *rateLimiter

	// queue is the bounded reader->worker channel, created at construction
	// so its depth can be exported as a gauge before Serve runs.
	queue chan packet
	// out is the worker->writer channel for batched sends, nil when the
	// shard is on the synchronous single-packet write path.
	out chan outPacket
	// batch is the platform recvmmsg/sendmmsg state, nil when unbatched.
	batch *batchIO

	bufPool  sync.Pool // *[]byte, len maxPacketSize
	packPool sync.Pool // *[]byte, len 0: response wire buffers
	msgPool  sync.Pool // *dnsmsg.Message: recycled query messages

	// Stats counts this shard's activity.
	Stats ShardMetrics
}

// Server is a UDP DNS server over one or more listener shards.
type Server struct {
	handler Handler
	cfg     Config
	shards  []*shard
	// latency, when non-nil, records per-query handler latency (unpack
	// through response write). Set by RegisterMetrics before Serve.
	latency *telemetry.Histogram

	// Metrics exposes live counters aggregated across shards.
	Metrics Metrics

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // the running Serve call; Close waits on it
}

// Listen binds a UDP socket on addr (e.g. "127.0.0.1:0") and returns a
// server with default pooled concurrency, ready to Serve. The handler must
// not be nil.
func Listen(addr string, h Handler) (*Server, error) {
	return ListenConfig(addr, h, Config{})
}

// ListenConfig is Listen with an explicit concurrency configuration. With
// ListenerShards > 1 it binds one SO_REUSEPORT socket per shard on the
// same address, so the kernel fans incoming flows out across the shards;
// that path requires Linux.
func ListenConfig(addr string, h Handler, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.ListenerShards == 1 {
		conn, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("dnsserver: %w", err)
		}
		s, err := newConns([]net.PacketConn{conn}, h, cfg)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return s, nil
	}
	conns := make([]net.PacketConn, 0, cfg.ListenerShards)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < cfg.ListenerShards; i++ {
		conn, err := listenReusePort(addr)
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
	if conn == nil {
		return nil, errors.New("dnsserver: nil conn")
	}
	cfg.ListenerShards = 1
	return newConns([]net.PacketConn{conn}, h, cfg.withDefaults())
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
		sh.queue = make(chan packet, cfg.QueueDepth)
		sh.bufPool.New = func() any {
			b := make([]byte, maxPacketSize)
			return &b
		}
		sh.packPool.New = func() any {
			b := make([]byte, 0, maxAdvertisedUDPSize)
			return &b
		}
		sh.msgPool.New = func() any { return &dnsmsg.Message{} }
		if cfg.BatchSize > 1 && sh.udpConn != nil {
			b, err := newBatchIO(sh.udpConn, cfg.BatchSize)
			if err != nil {
				return nil, err
			}
			sh.batch = b
			// Sized so every worker can park a response and the writer a
			// full batch without the workers stalling on a healthy writer.
			sh.out = make(chan outPacket, cfg.BatchSize+cfg.Workers)
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
			Shed:           sh.Stats.Shed.Load(),
			RateLimited:    sh.Stats.RateLimited.Load(),
			Wakeups:        sh.Stats.Wakeups.Load(),
			BatchedPackets: sh.Stats.BatchedPackets.Load(),
			QueueLen:       len(sh.queue),
		}
	}
	return out
}

// Serve runs every shard's serve loop until the server is closed,
// dispatching queries to each shard's worker pool. Serve returns nil after
// Close.
func (s *Server) Serve() error {
	// Close waits on wg, so it does not return until queued packets have
	// drained and every worker on every shard has exited.
	s.wg.Add(1)
	defer s.wg.Done()
	errs := make(chan error, len(s.shards))
	var shards sync.WaitGroup
	for _, sh := range s.shards {
		shards.Add(1)
		go func(sh *shard) {
			defer shards.Done()
			errs <- sh.serve()
		}(sh)
	}
	shards.Wait()
	var firstErr error
	for range s.shards {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// serve is one shard's pooled serve loop: readers feed the bounded queue,
// workers drain it, and (in batch mode) a writer goroutine flushes
// responses with sendmmsg.
func (sh *shard) serve() error {
	cfg := sh.srv.cfg

	var workers sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for pkt := range sh.queue {
				if pkt.enq != 0 && time.Now().UnixNano()-pkt.enq > int64(cfg.ServeDeadline) {
					// The query aged out in the queue: the resolver has
					// retried or failed over by now, so a late answer only
					// wastes the worker.
					sh.srv.Metrics.DeadlineDrops.Add(1)
				} else {
					sh.handlePacket(pkt.raddr, (*pkt.buf)[:pkt.n])
				}
				sh.bufPool.Put(pkt.buf)
			}
		}()
	}

	var writer sync.WaitGroup
	if sh.out != nil {
		writer.Add(1)
		go func() {
			defer writer.Done()
			sh.writeLoop()
		}()
	}

	var readers sync.WaitGroup
	errs := make(chan error, cfg.Readers)
	for i := 0; i < cfg.Readers; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			if sh.batch != nil {
				errs <- sh.readLoopBatch()
			} else {
				errs <- sh.readLoop()
			}
		}()
	}
	readers.Wait()
	close(sh.queue)
	workers.Wait()
	if sh.out != nil {
		close(sh.out)
		writer.Wait()
	}

	var firstErr error
	for i := 0; i < cfg.Readers; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// readLoop pulls datagrams off the socket into pooled buffers until the
// socket errors (normally: is closed). It returns nil on clean shutdown.
func (sh *shard) readLoop() error {
	for {
		bp := sh.bufPool.Get().(*[]byte)
		n, raddr, err := sh.readFrom(*bp)
		if err != nil {
			sh.bufPool.Put(bp)
			if sh.srv.isClosed() {
				return nil
			}
			return fmt.Errorf("dnsserver: read: %w", err)
		}
		if !raddr.IsValid() {
			sh.bufPool.Put(bp)
			continue
		}
		sh.Stats.Wakeups.Add(1)
		sh.Stats.BatchedPackets.Add(1)
		sh.enqueue(bp, n, raddr)
	}
}

// readLoopBatch is readLoop over recvmmsg: each wakeup drains up to
// BatchSize datagrams in one syscall. Each reader goroutine owns its own
// slot set, so multiple batch readers never share scatter/gather state.
func (sh *shard) readLoopBatch() error {
	slots := newSlots(sh.srv.cfg.BatchSize)
	for {
		n, err := sh.batch.recvBatch(sh, slots)
		if err != nil {
			if sh.srv.isClosed() {
				return nil
			}
			return fmt.Errorf("dnsserver: recvmmsg: %w", err)
		}
		if n > 0 {
			sh.Stats.Wakeups.Add(1)
			sh.Stats.BatchedPackets.Add(uint64(n))
		}
	}
}

// enqueue hands one received datagram to the shard's workers, applying the
// configured overload posture when the queue is full. It owns bp and
// either forwards it or re-pools it.
func (sh *shard) enqueue(bp *[]byte, n int, raddr netip.AddrPort) {
	cfg := sh.srv.cfg
	pkt := packet{buf: bp, n: n, raddr: raddr}
	if cfg.ServeDeadline > 0 {
		pkt.enq = time.Now().UnixNano()
	}
	if cfg.OnOverload == ShedBlock {
		sh.queue <- pkt
		return
	}
	select {
	case sh.queue <- pkt:
	default:
		// Queue full: shed here, explicitly and counted, instead of
		// letting the backlog smear into the kernel buffer. The reader
		// goes straight back to the socket, so it keeps draining fresh
		// traffic.
		sh.srv.Metrics.Shed.Add(1)
		sh.Stats.Shed.Add(1)
		if cfg.OnOverload == ShedRefuse {
			sh.refuse(raddr, (*bp)[:n])
		}
		sh.bufPool.Put(bp)
	}
}

// writeLoop is the batch writer: it blocks for one response, then
// opportunistically drains more without blocking, and flushes the batch
// with one sendmmsg. Under load batches fill toward BatchSize; idle, each
// response leaves immediately — batching never adds latency.
func (sh *shard) writeLoop() {
	pend := make([]outPacket, 0, sh.srv.cfg.BatchSize)
	for {
		p, ok := <-sh.out
		if !ok {
			return
		}
		pend = append(pend[:0], p)
	drain:
		for len(pend) < cap(pend) {
			select {
			case p, ok := <-sh.out:
				if !ok {
					break drain
				}
				pend = append(pend, p)
			default:
				break drain
			}
		}
		sent := sh.batch.sendBatch(pend)
		sh.srv.Metrics.Responses.Add(uint64(sent))
		sh.Stats.Responses.Add(uint64(sent))
		for i := range pend {
			*pend[i].buf = (*pend[i].buf)[:0] // keep growth for reuse
			sh.packPool.Put(pend[i].buf)
			pend[i].buf = nil
		}
	}
}

// refuse answers a shed datagram with a minimal REFUSED response, so the
// resolver fails over to another authority immediately instead of burning
// its timeout. Runs on the shed path only; allocations are acceptable.
func (sh *shard) refuse(raddr netip.AddrPort, pkt []byte) {
	query := sh.msgPool.Get().(*dnsmsg.Message)
	defer sh.msgPool.Put(query)
	if err := dnsmsg.UnpackInto(query, pkt); err != nil || query.Response {
		return
	}
	resp := query.Reply()
	resp.RCode = dnsmsg.RCodeRefused
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	if sh.writeTo(wire, raddr) == nil {
		sh.srv.Metrics.Responses.Add(1)
		sh.Stats.Responses.Add(1)
	}
}

// readFrom reads one datagram, preferring the AddrPort-returning UDP path
// that avoids a net.Addr allocation per packet.
func (sh *shard) readFrom(buf []byte) (int, netip.AddrPort, error) {
	if sh.udpConn != nil {
		return sh.udpConn.ReadFromUDPAddrPort(buf)
	}
	n, remote, err := sh.conn.ReadFrom(buf)
	if err != nil {
		return 0, netip.AddrPort{}, err
	}
	raddr, _ := remoteAddrPort(remote)
	return n, raddr, nil
}

// writeTo sends one response datagram synchronously.
func (sh *shard) writeTo(wire []byte, raddr netip.AddrPort) error {
	if sh.udpConn != nil {
		_, err := sh.udpConn.WriteToUDPAddrPort(wire, raddr)
		return err
	}
	_, err := sh.conn.WriteTo(wire, net.UDPAddrFromAddrPort(raddr))
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (sh *shard) handlePacket(raddr netip.AddrPort, pkt []byte) {
	s := sh.srv
	query := sh.msgPool.Get().(*dnsmsg.Message)
	defer sh.msgPool.Put(query)
	if err := dnsmsg.UnpackInto(query, pkt); err != nil || query.Response {
		s.Metrics.Malformed.Add(1)
		return
	}
	s.Metrics.Queries.Add(1)
	sh.Stats.Queries.Add(1)
	if sh.rrl != nil && !sh.rrl.allow(raddr.Addr(), time.Now().UnixNano()) {
		s.Metrics.RateLimited.Add(1)
		sh.Stats.RateLimited.Add(1)
		if sh.rrl.shouldSlip() {
			sh.slip(raddr, query)
		}
		return
	}
	var startNs int64
	if s.latency != nil {
		startNs = time.Now().UnixNano()
	}
	resp := safeServe(s.handler, &s.Metrics, raddr, query)
	if s.latency != nil {
		s.latency.ObserveNanos(time.Now().UnixNano() - startNs)
	}
	if resp == nil {
		s.Metrics.Dropped.Add(1)
		return
	}
	// Respect the client's advertised UDP payload size (512 octets for
	// non-EDNS queries, RFC 1035), clamped to maxAdvertisedUDPSize per
	// RFC 6891 §6.2.5 rather than trusting arbitrary advertised sizes:
	// oversized answers are truncated with TC=1 so the client retries
	// over TCP.
	maxSize := 512
	if query.EDNS {
		maxSize = int(query.UDPSize)
		if maxSize < 512 {
			maxSize = 512
		}
		if maxSize > maxAdvertisedUDPSize {
			maxSize = maxAdvertisedUDPSize
		}
	}
	wp := sh.packPool.Get().(*[]byte)
	wire, err := TruncateAppend((*wp)[:0], resp, maxSize)
	if err != nil {
		// A handler bug; answer SERVFAIL so the client doesn't hang.
		servfail := query.Reply()
		servfail.RCode = dnsmsg.RCodeServerFailure
		if wire, err = servfail.AppendPack((*wp)[:0]); err != nil {
			s.Metrics.Dropped.Add(1)
			*wp = (*wp)[:0]
			sh.packPool.Put(wp)
			return
		}
	}
	if sh.out != nil {
		// Batched path: hand buffer ownership to the writer, which
		// re-pools it after the sendmmsg flush.
		*wp = wire
		sh.out <- outPacket{buf: wp, raddr: raddr}
		return
	}
	*wp = wire[:0] // keep any growth for the next response
	if err := sh.writeTo(wire, raddr); err == nil {
		s.Metrics.Responses.Add(1)
		sh.Stats.Responses.Add(1)
	}
	sh.packPool.Put(wp)
}

// slip answers a rate-limited query with a minimal TC=1 response: no
// records, just the truncation bit, steering a legitimate client behind
// the offending prefix to retry over TCP (where its source address is
// verified by the handshake). Runs on the limited path only.
func (sh *shard) slip(raddr netip.AddrPort, query *dnsmsg.Message) {
	resp := query.Reply()
	resp.Truncated = true
	wire, err := resp.Pack()
	if err != nil {
		return
	}
	if sh.writeTo(wire, raddr) == nil {
		sh.srv.Metrics.Slips.Add(1)
		sh.srv.Metrics.Responses.Add(1)
		sh.Stats.Responses.Add(1)
	}
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

// Close shuts the server down gracefully: every shard's readers are woken
// and stop accepting new datagrams, queued and in-flight queries drain
// through the workers (their responses still go out), and only then are
// the sockets closed. Late datagrams arriving during the drain stay in the
// kernel buffers and die with the sockets.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// A read deadline in the past wakes every reader blocked on its socket
	// — including readers parked in recvmmsg via RawConn.Read, which
	// honours deadlines — without tearing down the socket, so workers can
	// still write responses for queries already accepted.
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
