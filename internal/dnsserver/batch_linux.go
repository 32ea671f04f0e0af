//go:build linux && (amd64 || arm64)

// Batched UDP I/O: recvmmsg/sendmmsg through raw syscalls, so one wakeup
// of a shard receives up to batchSize datagrams and one flush sends their
// answers — amortising the per-query syscall entry and exit.
//
// The syscalls run non-blocking (MSG_DONTWAIT) inside RawConn.Read/Write
// callbacks: returning false from the callback parks the goroutine on the
// runtime poller until the socket is ready again, which keeps deadline
// semantics intact — Server.Close's SetReadDeadline(now) wakes a shard
// parked here exactly as it wakes one parked in ReadFromUDPAddrPort.
//
// The stdlib syscall package predates these calls on some architectures,
// so the syscall numbers are pinned per-arch in batch_sysnum_*.go rather
// than taken from syscall.SYS_* (linux/amd64 exports SYS_RECVMMSG but not
// SYS_SENDMMSG).

package dnsserver

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// batched reports that this platform has the recvmmsg/sendmmsg path: a
// shard over a *net.UDPConn takes it.
const batched = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the number of
// bytes the kernel transferred for that message. The trailing pad keeps
// the 8-byte alignment the kernel expects for arrays of these.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchIO is a shard's recvmmsg/sendmmsg state over its slots. The receive
// headers point at the slots' buffers and at names, once, at construction;
// the two syscall callbacks are built once too and report through the
// struct's fields, so a batch allocates nothing. Only the shard's goroutine
// touches it.
type batchIO struct {
	rc    syscall.RawConn
	slots []slot

	recv  [batchSize]mmsghdr
	rIovs [batchSize]syscall.Iovec
	names [batchSize]syscall.RawSockaddrInet6 // large enough for both families
	send  [batchSize]mmsghdr
	sIovs [batchSize]syscall.Iovec

	recvFn, sendFn func(fd uintptr) bool
	// What the callbacks report: datagrams received and the error of the
	// last recvmmsg; answers queued, the next one to send, and how many
	// the kernel took.
	n           int
	errno       syscall.Errno
	k, off, ack int
}

// newBatchIO prepares batched I/O over conn into slots (batchSize of them).
func newBatchIO(conn *net.UDPConn, slots []slot) (*batchIO, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchIO{rc: rc, slots: slots}
	for i := range b.recv {
		b.rIovs[i] = syscall.Iovec{Base: &slots[i].in[0], Len: slotSize}
		b.recv[i].hdr.Name = (*byte)(unsafe.Pointer(&b.names[i]))
		b.recv[i].hdr.Iov = &b.rIovs[i]
		b.recv[i].hdr.Iovlen = 1
		b.send[i].hdr.Iov = &b.sIovs[i]
		b.send[i].hdr.Iovlen = 1
	}
	b.recvFn, b.sendFn = b.recvmmsg, b.sendmmsg
	return b, nil
}

// recvBatch fills slots[:n] in one recvmmsg. It blocks (on the runtime
// poller, not in the syscall) until at least one datagram is queued, the
// read deadline expires, or the socket closes. n == 0 with a nil error
// means a signal interrupted the call — the caller just retries.
func (b *batchIO) recvBatch() (int, error) {
	for i := range b.recv {
		// The kernel overwrites the length per call; reset it so a short
		// sockaddr from the previous batch can't cut this one's short.
		b.recv[i].hdr.Namelen = uint32(unsafe.Sizeof(b.names[i]))
	}
	if err := b.rc.Read(b.recvFn); err != nil {
		return 0, err // deadline exceeded or socket closed
	}
	if b.errno != 0 {
		if b.errno == syscall.EINTR {
			return 0, nil
		}
		return 0, b.errno
	}
	for i := range b.n {
		b.slots[i].n = int(b.recv[i].n)
		b.slots[i].raddr = decodeSockaddr(&b.names[i])
	}
	return b.n, nil
}

func (b *batchIO) recvmmsg(fd uintptr) bool {
	r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&b.recv[0])), batchSize,
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if e == syscall.EAGAIN {
		return false // park on the poller until readable
	}
	b.n, b.errno = int(r1), e
	if e != 0 {
		b.n = 0
	}
	return true
}

// sendBatch sends the answers held in slots[:n] — each to the sockaddr
// its query arrived from, as the kernel wrote it — and returns how many
// datagrams the kernel accepted. A datagram the kernel rejects outright
// (unreachable peer, oversized) is skipped so the rest still go out.
func (b *batchIO) sendBatch(n int) int {
	k := 0
	for i := range b.slots[:n] {
		out := b.slots[i].out
		if len(out) == 0 {
			continue
		}
		b.sIovs[k] = syscall.Iovec{Base: &out[0], Len: uint64(len(out))}
		b.send[k].hdr.Name = b.recv[i].hdr.Name
		b.send[k].hdr.Namelen = b.recv[i].hdr.Namelen
		k++
	}
	if k == 0 {
		return 0
	}
	b.k, b.off, b.ack = k, 0, 0
	_ = b.rc.Write(b.sendFn)
	return b.ack
}

func (b *batchIO) sendmmsg(fd uintptr) bool {
	for b.off < b.k {
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.send[b.off])), uintptr(b.k-b.off),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch {
		case e == syscall.EAGAIN:
			return false // socket buffer full: wait for writability
		case e == syscall.EINTR:
			continue
		case e != 0 || int(r1) == 0:
			b.off++ // first datagram failed: skip it, keep the rest moving
		default:
			b.off += int(r1)
			b.ack += int(r1)
		}
	}
	return true
}

// decodeSockaddr converts a kernel-written sockaddr to a netip.AddrPort,
// preserving the address family the socket delivered (a dual-stack socket
// reports v4 peers as v4-in-v6, matching ReadFromUDPAddrPort).
func decodeSockaddr(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	if sa.Family == syscall.AF_INET {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), ntohs(sa4.Port))
	}
	return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), ntohs(sa.Port))
}

// ntohs converts the sockaddr port field, which is stored in network byte
// order regardless of host endianness. Reading byte-wise keeps this
// correct on any host.
func ntohs(p uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&p))
	return uint16(b[0])<<8 | uint16(b[1])
}
