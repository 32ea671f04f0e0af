package dnsserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"eum/internal/dnsmsg"
)

// maxTCPMessage bounds accepted TCP message sizes.
const maxTCPMessage = 65535

// tcpReadTimeout bounds how long a TCP connection may sit idle between
// queries before the server closes it.
const tcpReadTimeout = 10 * time.Second

// tcpWriteTimeout bounds how long one response may take to write: a client
// that stops reading loses its connection instead of pinning a goroutine.
const tcpWriteTimeout = 10 * time.Second

// TCPServer serves DNS over TCP (RFC 1035 §4.2.2 two-byte length framing).
// Authoritative servers need it for responses that exceed the client's UDP
// payload size: the UDP path answers with TC=1 and the client retries over
// TCP.
type TCPServer struct {
	ln      net.Listener
	handler Handler

	// Metrics exposes live counters (shared semantics with Server).
	Metrics Metrics

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // live connections, for Close to wake
	wg     sync.WaitGroup
}

// ListenTCP binds a TCP listener on addr.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	if h == nil {
		return nil, errors.New("dnsserver: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	return &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until Close. Each connection may carry
// multiple queries in sequence.
func (s *TCPServer) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("dnsserver: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// extend arms conn's deadline d from now, unless Close has begun: then the
// past deadline Close set stays and extend reports false.
func (s *TCPServer) extend(conn net.Conn, d time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	_ = conn.SetDeadline(time.Now().Add(d))
	return true
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	raddr, ok := remoteAddrPort(conn.RemoteAddr())
	if !ok {
		return
	}
	for {
		if !s.extend(conn, tcpReadTimeout) {
			return
		}
		msg, err := ReadTCPMessage(conn)
		if err != nil {
			return
		}
		query, err := dnsmsg.Unpack(msg)
		if err != nil || query.Response {
			s.Metrics.Malformed.Add(1)
			return
		}
		s.Metrics.Queries.Add(1)
		resp := safeServe(s.handler, &s.Metrics, raddr, query)
		if resp == nil {
			s.Metrics.Dropped.Add(1)
			return
		}
		wire, err := resp.Pack()
		if err != nil || !s.extend(conn, tcpWriteTimeout) {
			return
		}
		if err := WriteTCPMessage(conn, wire); err != nil {
			return
		}
		s.Metrics.Responses.Add(1)
	}
}

// Close stops the listener, sets a past deadline on every live connection
// — waking one idle in a read or stalled in a write behind a client that
// stopped reading — and waits for their goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		_ = conn.SetDeadline(time.Now())
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// ReadTCPMessage reads one length-prefixed DNS message.
func ReadTCPMessage(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(lenBuf[:]))
	if n == 0 {
		return nil, errors.New("dnsserver: zero-length TCP message")
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// WriteTCPMessage writes one length-prefixed DNS message.
func WriteTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > maxTCPMessage {
		return fmt.Errorf("dnsserver: message of %d bytes exceeds TCP limit", len(msg))
	}
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(msg)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// TruncateFor shrinks resp to fit within size bytes when packed, per the
// conventional minimal-truncation strategy: drop all records and set TC=1
// so the client retries over TCP (RFC 2181 §9 warns against partial
// answer sets). It returns the packed wire form.
func TruncateFor(resp *dnsmsg.Message, size int) ([]byte, error) {
	return TruncateAppend(nil, resp, size)
}

// TruncateAppend is TruncateFor packing into buf (which must be empty,
// see dnsmsg.AppendPack), so servers can recycle response wire buffers.
func TruncateAppend(buf []byte, resp *dnsmsg.Message, size int) ([]byte, error) {
	wire, err := resp.AppendPack(buf)
	if err != nil {
		return nil, err
	}
	if len(wire) <= size {
		return wire, nil
	}
	truncated := *resp
	truncated.Truncated = true
	truncated.Answers = nil
	truncated.Authorities = nil
	truncated.Additionals = nil
	return truncated.AppendPack(wire[:0])
}
