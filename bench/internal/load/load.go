// Package load is the closed-loop UDP load generator: each socket keeps a
// fixed window of queries outstanding and sends the next one only when a
// reply (or its timeout) frees a slot, the way a recursive resolver waits
// for its answer. A slow server therefore receives less load; the window
// never exceeds what one socket buffer holds, so nothing is lost to
// overflow and every query sent is accounted for.
//
// A socket's goroutine never sleeps waiting for a reply: it polls its
// socket. Over loopback the server's send is what wakes a sleeping
// receiver, and on a small VM that wake-up (an inter-processor interrupt
// out of a halted virtual CPU) costs the sender several microseconds — a
// cost of the test rig, charged to the server, that came and went with how
// often the generator happened to be asleep. A generator that is always
// awake keeps it out of the server's CPU time and out of the round trip.
package load

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"

	"eum/bench/internal/gen"
)

// Timeout is how long a query may stay unanswered before it counts as
// failed and its window slot is reused.
const Timeout = time.Second

// Config is one load phase.
type Config struct {
	// Server is the UDP address to query.
	Server string
	// Source makes the packets; socket i sends Source.Stream(Seed, i).
	Source *gen.Source
	Seed   int64
	// Sockets is the number of UDP sockets, one goroutine each.
	Sockets int
	// Window is the number of queries each socket keeps outstanding.
	Window int
	// Duration is how long to keep the windows full.
	Duration time.Duration
	// Owned is the set of addresses a correct answer's A records come
	// from. Nil accepts any NOERROR reply (the null server's).
	Owned map[netip.Addr]struct{}
}

// Sample is one answered query, in eight bytes so that a phase's few
// million of them can be preallocated.
type Sample struct {
	// AtMicros is when the reply arrived, in microseconds since the
	// phase began.
	AtMicros uint32
	// Nanos is the round trip in nanoseconds (a query is written off at
	// Timeout, long before 32 bits run out).
	Nanos uint32
}

// At returns the reply's arrival time since the phase began.
func (s Sample) At() time.Duration { return time.Duration(s.AtMicros) * time.Microsecond }

// samplesPerSecond sizes the preallocated sample buffer: above any rate one
// socket reaches on loopback, so recording never reallocates mid-phase.
const samplesPerSecond = 160_000

// Recording is everything a phase observed.
type Recording struct {
	// Start is when the phase began; Sample.AtMicros counts from it.
	Start time.Time
	// Samples holds every correct reply, socket by socket (not in time order).
	Samples []Sample
	// Attempted counts queries sent; Failed those that timed out, came
	// back with an error code, or carried no address the platform owns.
	Attempted, Failed, Timeouts uint64
	// Idle is the time the sockets spent polling with nothing to read,
	// summed over sockets: the generator's headroom.
	Idle time.Duration
}

// Run drives one phase to completion. It returns an error only when the
// sockets cannot be used at all; lost or wrong replies are counted.
func Run(cfg Config) (*Recording, error) {
	raddr, err := net.ResolveUDPAddr("udp", cfg.Server)
	if err != nil {
		return nil, err
	}
	socks := make([]*socket, cfg.Sockets)
	for i := range socks {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		raw, err := c.SyscallConn()
		if err != nil {
			return nil, err
		}
		socks[i] = &socket{
			conn: c, raw: raw, cfg: &cfg, stream: cfg.Source.Stream(cfg.Seed, i),
			samples: make([]Sample, 0, int(cfg.Duration.Seconds()*samplesPerSecond)),
		}
	}
	rec := &Recording{Start: time.Now()}
	var wg sync.WaitGroup
	for _, s := range socks {
		wg.Add(1)
		go func(s *socket) {
			defer wg.Done()
			s.err = s.run(rec.Start)
		}(s)
	}
	wg.Wait()
	for _, s := range socks {
		if s.err != nil {
			return nil, s.err
		}
		rec.Samples = append(rec.Samples, s.samples...)
		rec.Attempted += s.attempted
		rec.Failed += s.failed
		rec.Timeouts += s.timeouts
		rec.Idle += s.idle
	}
	return rec, nil
}

// socket is one closed loop. sentAt[id] is when the outstanding query with
// that DNS ID was sent (0 = no such query). IDs are handed out in sequence
// and wrap in about half a second at loopback rates, sooner than a lost
// query is written off, so send passes over an ID that is still live.
type socket struct {
	conn   *net.UDPConn
	raw    syscall.RawConn
	cfg    *Config
	stream *gen.Stream

	sentAt      [1 << 16]time.Duration
	nextID      uint16
	outstanding int

	addrs                       []netip.Addr // CheckReply's scratch
	samples                     []Sample
	attempted, failed, timeouts uint64
	idle                        time.Duration
	waited                      bool          // the last poll found the socket empty at first
	waitFrom                    time.Duration // and began waiting then
	err                         error
}

func (s *socket) run(start time.Time) error {
	out := make([]byte, 0, gen.MaxPacket)
	in := make([]byte, 4096)
	stop := s.cfg.Duration
	send := func(now time.Duration) error {
		out = s.cfg.Source.AppendPacket(out[:0], s.stream.Next())
		// At most Window of the 65536 IDs are live, so this ends.
		for s.sentAt[s.nextID] != 0 {
			s.nextID++
		}
		id := s.nextID
		s.nextID++
		out[0], out[1] = byte(id>>8), byte(id)
		// +1 keeps a send at offset zero distinguishable from "free".
		s.sentAt[id] = now + 1
		s.outstanding++
		s.attempted++
		_, err := s.conn.Write(out)
		return err
	}
	for i := 0; i < s.cfg.Window; i++ {
		if err := send(time.Since(start)); err != nil {
			return err
		}
	}
	now := time.Since(start)
	nextScan := now + Timeout/10
	for s.outstanding > 0 {
		if now > stop+2*Timeout {
			// Every query is answered or written off within Timeout of
			// the last send; a bug in the accounting must not hang the run.
			return fmt.Errorf("load: %d queries still outstanding %v after the phase ended", s.outstanding, now-stop)
		}
		if now >= nextScan {
			if err := s.expire(now, stop, send); err != nil {
				return err
			}
			nextScan = now + Timeout/10
		}
		n, err := s.poll(in, start)
		now = time.Since(start)
		if err != nil {
			return err
		}
		if s.waited {
			s.idle += now - s.waitFrom
		}
		if n < 0 {
			continue // the socket stayed empty for a whole poll
		}
		if n < 12 {
			continue
		}
		id := uint16(in[0])<<8 | uint16(in[1])
		sent := s.sentAt[id]
		if sent == 0 {
			continue // a reply to a query already written off
		}
		s.sentAt[id] = 0
		s.outstanding--
		if CheckReply(in[:n], s.cfg.Owned, &s.addrs) {
			s.samples = append(s.samples, Sample{
				AtMicros: uint32(now / time.Microsecond),
				Nanos:    uint32(now - sent + 1),
			})
		} else {
			s.failed++
		}
		if now < stop {
			if err := send(now); err != nil {
				return err
			}
		}
	}
	return nil
}

// pollSpins bounds one poll: a few hundred microseconds of non-blocking
// reads, after which the caller looks at the clock.
const pollSpins = 512

// poll reads one datagram without ever parking the goroutine. It returns
// n = -1 when pollSpins reads found the socket empty. When the first read
// did, it sets s.waited and notes in s.waitFrom when the wait began.
func (s *socket) poll(buf []byte, start time.Time) (n int, err error) {
	s.waited = false
	rerr := s.raw.Read(func(fd uintptr) bool {
		for i := 0; i < pollSpins; i++ {
			n, err = syscall.Read(int(fd), buf)
			if err != syscall.EAGAIN && err != syscall.EINTR {
				return true
			}
			if !s.waited {
				s.waited, s.waitFrom = true, time.Since(start)
			}
		}
		n, err = -1, nil
		return true // "done" either way: never hand the wait to the poller
	})
	if rerr != nil {
		return 0, rerr
	}
	return n, err
}

// expire writes off every query outstanding for longer than Timeout and,
// while the phase lasts, refills the window. It scans every slot, so the
// loop calls it ten times a second, not per query.
func (s *socket) expire(now, stop time.Duration, send func(time.Duration) error) error {
	for id := range s.sentAt {
		if sent := s.sentAt[id]; sent != 0 && now-sent >= Timeout-time.Millisecond {
			s.sentAt[id] = 0
			s.outstanding--
			s.failed++
			s.timeouts++
			if now < stop {
				if err := send(now); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CheckReply reports whether pkt is a NOERROR response whose answer section
// holds at least one A record with an address in owned (any answer count,
// including none, when owned is nil).
//
// scratch is reused for the parsed addresses so the per-reply path does not
// allocate.
func CheckReply(pkt []byte, owned map[netip.Addr]struct{}, scratch *[]netip.Addr) bool {
	addrs, ok := Answers(pkt, (*scratch)[:0])
	*scratch = addrs
	if !ok {
		return false
	}
	if owned == nil {
		return true
	}
	for _, a := range addrs {
		if _, ok := owned[a]; ok {
			return true
		}
	}
	return false
}

// Answers parses a DNS response just far enough to append its A records'
// addresses to dst. ok is false for a packet that is not a NOERROR
// response or is malformed.
func Answers(pkt []byte, dst []netip.Addr) (addrs []netip.Addr, ok bool) {
	if len(pkt) < 12 || pkt[2]&0x80 == 0 || pkt[3]&0x0f != 0 {
		return dst, false
	}
	qd := int(pkt[4])<<8 | int(pkt[5])
	an := int(pkt[6])<<8 | int(pkt[7])
	off := 12
	for i := 0; i < qd; i++ {
		if off = skipName(pkt, off); off < 0 || off+4 > len(pkt) {
			return dst, false
		}
		off += 4
	}
	for i := 0; i < an; i++ {
		if off = skipName(pkt, off); off < 0 || off+10 > len(pkt) {
			return dst, false
		}
		typ := int(pkt[off])<<8 | int(pkt[off+1])
		rdlen := int(pkt[off+8])<<8 | int(pkt[off+9])
		off += 10
		if off+rdlen > len(pkt) {
			return dst, false
		}
		if typ == 1 && rdlen == 4 {
			dst = append(dst, netip.AddrFrom4([4]byte(pkt[off:off+4])))
		}
		off += rdlen
	}
	return dst, true
}

// skipName returns the offset just past the name at off, or -1.
func skipName(pkt []byte, off int) int {
	for off < len(pkt) {
		switch l := int(pkt[off]); {
		case l == 0:
			return off + 1
		case l&0xc0 == 0xc0:
			return off + 2
		default:
			off += 1 + l
		}
	}
	return -1
}
