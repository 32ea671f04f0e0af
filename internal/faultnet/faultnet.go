// Package faultnet wraps net transports with deterministic, seedable
// fault injection: packet drops, duplication, reordering, latency, and
// truncation. It exists so the DNS stack's resilience machinery — client
// retries and backoff, server deadlines and rate limiting, TCP fallback — can
// be exercised over a hostile wire inside ordinary Go tests, with failures
// reproducible from the seed.
//
// WrapPacketConn interposes on a server's net.PacketConn; Dialer hands a
// dnsclient fault-injected client connections. Both draw from one seeded
// splitmix64 stream, so a given (seed, traffic) pair makes the same
// drop/duplicate/delay decisions every run. Concurrency still interleaves
// goroutines differently run to run, but per-packet outcomes are a pure
// function of decision order, which keeps aggregate behaviour (loss rate,
// reorder rate) stable enough to assert against.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eum/internal/telemetry"
)

// Config sets fault probabilities and delays. Zero values inject nothing.
type Config struct {
	// Seed keys the decision stream; runs with equal seeds and equal
	// decision sequences behave identically.
	Seed uint64
	// DropProb is the probability a packet (either direction) vanishes.
	DropProb float64
	// DupProb is the probability a sent packet is delivered twice.
	DupProb float64
	// ReorderProb is the probability a sent packet is held back by
	// ReorderDelay, letting later packets overtake it.
	ReorderProb float64
	// ReorderDelay is how long held-back packets wait (default 2ms).
	ReorderDelay time.Duration
	// Latency delays every sent packet; Jitter adds a uniform random
	// extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// TruncateProb is the probability a packet is cut to TruncateBytes
	// (default 128) — modelling path-MTU mangling, which DNS must answer
	// with retries or TCP, never with a misparsed message.
	TruncateProb float64
	// TruncateBytes is the byte budget of a truncated packet.
	TruncateBytes int
}

func (c Config) withDefaults() Config {
	if c.ReorderDelay <= 0 {
		c.ReorderDelay = 2 * time.Millisecond
	}
	if c.TruncateBytes <= 0 {
		c.TruncateBytes = 128
	}
	return c
}

// Stats counts injected faults; read at any time.
type Stats struct {
	// Forwarded counts packets delivered unharmed (delays still count as
	// forwarded).
	Forwarded atomic.Uint64
	// Dropped counts packets deliberately lost.
	Dropped atomic.Uint64
	// Duplicated counts packets delivered twice.
	Duplicated atomic.Uint64
	// Delayed counts packets held for reordering or latency.
	Delayed atomic.Uint64
	// Truncated counts packets cut short.
	Truncated atomic.Uint64
	// PartitionDropped counts packets and dials refused while the
	// injector was partitioned (see Injector.SetPartitioned).
	PartitionDropped atomic.Uint64
}

// Register wires the fault counters into reg, prefixed (e.g. "faultnet"
// yields "faultnet_dropped_total"), so chaos harnesses can expose injected
// faults next to the serving-plane metrics they perturb.
func (s *Stats) Register(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"_forwarded_total",
		"Packets delivered unharmed.", s.Forwarded.Load)
	reg.Counter(prefix+"_dropped_total",
		"Packets deliberately lost.", s.Dropped.Load)
	reg.Counter(prefix+"_duplicated_total",
		"Packets delivered twice.", s.Duplicated.Load)
	reg.Counter(prefix+"_delayed_total",
		"Packets held for reordering or latency.", s.Delayed.Load)
	reg.Counter(prefix+"_truncated_total",
		"Packets cut short.", s.Truncated.Load)
	reg.Counter(prefix+"_partition_dropped_total",
		"Packets and dials refused while partitioned.", s.PartitionDropped.Load)
}

// rng is a locked splitmix64 stream shared by all wrappers of one config,
// so the fault sequence is one deterministic stream per seed.
type rng struct {
	mu sync.Mutex
	z  uint64
}

func (r *rng) next() uint64 {
	r.mu.Lock()
	r.z += 0x9e3779b97f4a7c15
	z := r.z
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns true with probability p.
func (r *rng) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(r.next()>>11)/float64(1<<53) < p
}

// uniform returns a uniform duration in [0, d).
func (r *rng) uniform(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(float64(r.next()>>11) / float64(1<<53) * float64(d))
}

// Injector owns the shared decision stream and stats for a family of
// wrapped connections (typically one per test).
type Injector struct {
	cfg Config
	rng rng
	// partitioned, while set, makes every wrapped transport drop all
	// traffic and every dial fail (see SetPartitioned).
	partitioned atomic.Bool
	// Stats counts this injector's faults across all its connections.
	Stats Stats
}

// NewInjector builds an injector for cfg.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg.withDefaults(), rng: rng{z: cfg.Seed}}
}

// sendPlan is the fate the injector assigns an outgoing packet.
type sendPlan struct {
	drop     bool
	dup      bool
	truncate int // 0 = intact, else byte budget
	delay    time.Duration
}

func (in *Injector) planSend() sendPlan {
	var p sendPlan
	c := &in.cfg
	if in.rng.roll(c.DropProb) {
		p.drop = true
		return p
	}
	if in.rng.roll(c.TruncateProb) {
		p.truncate = c.TruncateBytes
	}
	p.delay = c.Latency + in.rng.uniform(c.Jitter)
	if in.rng.roll(c.ReorderProb) {
		p.delay += c.ReorderDelay
	}
	p.dup = in.rng.roll(c.DupProb)
	return p
}

// WrapPacketConn interposes the injector on a packet connection (the
// server side of the UDP stack).
func (in *Injector) WrapPacketConn(inner net.PacketConn) *PacketConn {
	return &PacketConn{inner: inner, in: in}
}

// PacketConn is a fault-injecting net.PacketConn.
type PacketConn struct {
	inner  net.PacketConn
	in     *Injector
	closed atomic.Bool
}

// ReadFrom delivers the next surviving inbound packet.
func (c *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.inner.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}
		if c.in.partitioned.Load() {
			c.in.Stats.PartitionDropped.Add(1)
			holdWhilePartitioned()
			continue
		}
		if c.in.rng.roll(c.in.cfg.DropProb) {
			c.in.Stats.Dropped.Add(1)
			continue
		}
		if c.in.rng.roll(c.in.cfg.TruncateProb) && n > c.in.cfg.TruncateBytes {
			n = c.in.cfg.TruncateBytes
			c.in.Stats.Truncated.Add(1)
		}
		c.in.Stats.Forwarded.Add(1)
		return n, addr, nil
	}
}

// WriteTo sends p subject to the injector's plan. Faults are invisible to
// the caller: a dropped packet still reports success, exactly like a real
// lossy network.
func (c *PacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.in.partitionDropSend() {
		return len(p), nil
	}
	plan := c.in.planSend()
	if plan.drop {
		c.in.Stats.Dropped.Add(1)
		return len(p), nil
	}
	wire := p
	if plan.truncate > 0 && len(wire) > plan.truncate {
		wire = wire[:plan.truncate]
		c.in.Stats.Truncated.Add(1)
	}
	writes := 1
	if plan.dup {
		writes = 2
		c.in.Stats.Duplicated.Add(1)
	}
	if plan.delay > 0 {
		held := make([]byte, len(wire))
		copy(held, wire)
		c.in.Stats.Delayed.Add(1)
		for i := 0; i < writes; i++ {
			time.AfterFunc(plan.delay, func() {
				if !c.closed.Load() {
					_, _ = c.inner.WriteTo(held, addr)
				}
			})
		}
		c.in.Stats.Forwarded.Add(1)
		return len(p), nil
	}
	for i := 0; i < writes; i++ {
		if _, err := c.inner.WriteTo(wire, addr); err != nil {
			return 0, err
		}
	}
	c.in.Stats.Forwarded.Add(1)
	return len(p), nil
}

// Close closes the inner connection; packets still held for delay die
// with it.
func (c *PacketConn) Close() error {
	c.closed.Store(true)
	return c.inner.Close()
}

func (c *PacketConn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *PacketConn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *PacketConn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *PacketConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
