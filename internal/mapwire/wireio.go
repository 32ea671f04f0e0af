package mapwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"eum/internal/cdn"
	"eum/internal/mapping"
)

// castagnoli is the CRC-32C table of the checksum trailer; amd64 and arm64
// compute it in hardware, so summing an image costs less than copying it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writer appends little-endian primitives to a pre-sized buffer. Encoders
// compute the exact image size up front, so finish() never reallocates.
type writer struct {
	b []byte
}

func newWriter(size int) *writer { return &writer{b: make([]byte, 0, size)} }

func (w *writer) raw(p []byte) { w.b = append(w.b, p...) }
func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }

// addr appends a 16-byte address, network order.
func (w *writer) addr(a [2]uint64) {
	w.b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(w.b, a[0]), a[1])
}

// str appends a length-prefixed string.
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// roster appends a platform's deployment roster.
func (w *writer) roster(p *cdn.Platform) {
	w.u32(uint32(len(p.Deployments)))
	for _, d := range p.Deployments {
		w.u64(d.ID)
		w.u64(math.Float64bits(d.Loc.Lat))
		w.u64(math.Float64bits(d.Loc.Lon))
		w.u32(d.ASN)
		w.str(d.Name)
		w.str(d.Country)
		w.u32(uint32(len(d.Servers)))
		for _, s := range d.Servers {
			a := s.Addr.As16()
			w.u64(s.ID)
			w.raw(a[:])
			w.u64(math.Float64bits(s.Capacity()))
		}
	}
}

// table appends a rank table: one copy of its memory.
func (w *writer) table(t []mapping.Ranked) {
	start := len(w.b)
	w.b = append(w.b, mapping.TableBytes(t)...)
	mapping.WireOrder(w.b[start:])
}

// finish appends the checksum trailer and returns the image.
func (w *writer) finish() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, castagnoli))
}

// reader consumes an image of known size from a stream, folding every
// byte into the running checksum as it goes. Error handling is sticky: the
// first short or failed read latches err and every later read returns
// zero, so decode code stays straight-line and checks r.err wherever a
// length is about to size an allocation, and at the end. Nothing read is
// trusted before finish has compared the trailer, so every length and
// index is bounds-checked as if no checksum existed.
type reader struct {
	src  io.Reader
	left int64 // bytes of the image before its trailer not yet read
	crc  uint32
	err  error
	buf  [8 << 10]byte // staging for scalars and array elements
}

// readChunk bounds one read-then-checksum step, so a table arena is summed
// while each piece is still in cache.
const readChunk = 256 << 10

// read fills p from the stream.
func (r *reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if int64(len(p)) > r.left {
		r.err = fmt.Errorf("%w: truncated (need %d bytes, %d left)", ErrFormat, len(p), r.left)
		return false
	}
	for len(p) > 0 {
		c := p[:min(len(p), readChunk)]
		if _, err := io.ReadFull(r.src, c); err != nil {
			r.err = fmt.Errorf("mapwire: reading image: %w", err)
			return false
		}
		r.crc = crc32.Update(r.crc, castagnoli, c)
		r.left -= int64(len(c))
		p = p[len(c):]
	}
	return true
}

// expect reads len(want) bytes and reports whether they are want.
func (r *reader) expect(want []byte) bool {
	for len(want) > 0 {
		n := min(len(want), len(r.buf))
		if !r.read(r.buf[:n]) || !bytes.Equal(r.buf[:n], want[:n]) {
			return false
		}
		want = want[n:]
	}
	return true
}

func (r *reader) u32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:])
}

func (r *reader) u64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

func (r *reader) i32() int32 { return int32(r.u32()) }

// str reads a length-prefixed string.
func (r *reader) str() string {
	b := make([]byte, r.sliceLen(1))
	if !r.read(b) {
		return ""
	}
	return string(b)
}

// fits reports whether n records of size bytes each are still to come,
// latching an error when they are not: a corrupt count can never size a
// huge allocation or push reads past the image.
func (r *reader) fits(n uint64, size int) bool {
	if r.err == nil && n > uint64(r.left)/uint64(size) {
		r.err = fmt.Errorf("%w: %d records of %d bytes exceed the %d bytes left", ErrFormat, n, size, r.left)
	}
	return r.err == nil
}

// sliceLen reads an element count and checks it with fits.
func (r *reader) sliceLen(elemSize int) int {
	n := uint64(r.u32())
	if !r.fits(n, elemSize) {
		return 0
	}
	return int(n)
}

// each reads n fixed-size records through the staging buffer and hands
// them to f in order. The caller has checked n with fits or sliceLen.
func (r *reader) each(n, size int, f func(i int, rec []byte)) {
	for i := 0; i < n; {
		k := min(n-i, len(r.buf)/size)
		b := r.buf[:k*size]
		if !r.read(b) {
			return
		}
		for j := 0; j < k; j++ {
			f(i+j, b[j*size:(j+1)*size])
		}
		i += k
	}
}

func (r *reader) i32s(n int) []int32 {
	out := make([]int32, n)
	r.each(n, 4, func(i int, b []byte) { out[i] = int32(binary.LittleEndian.Uint32(b)) })
	return out
}

// tables reads n rank entries straight into the memory they will be served
// from, and checks every deployment index against the platform's nDeps.
func (r *reader) tables(n uint64, nDeps int) []mapping.Ranked {
	if n == 0 || !r.fits(n, rankedSize) {
		return nil
	}
	out := make([]mapping.Ranked, n)
	b := mapping.TableBytes(out)
	if !r.read(b) {
		return nil
	}
	mapping.WireOrder(b)
	for _, e := range out {
		if int(e.Dep) >= nDeps {
			r.err = fmt.Errorf("%w: deployment index %d of %d", ErrFormat, e.Dep, nDeps)
			return nil
		}
	}
	return out
}

// finish checks that the body ended where the image does and that the
// trailer matches the checksum of everything read.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.left != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrFormat, r.left)
	}
	t := r.buf[:trailerSize]
	if _, err := io.ReadFull(r.src, t); err != nil {
		return fmt.Errorf("mapwire: reading image: %w", err)
	}
	if want := binary.LittleEndian.Uint32(t); r.crc != want {
		return fmt.Errorf("%w: got %08x want %08x", ErrChecksum, r.crc, want)
	}
	return nil
}

// FNV-1a, matching the constants used across the repo.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvHasher accumulates u64 words and strings; PlatformFingerprint uses it.
type fnvHasher struct{ sum uint64 }

func newFNV() *fnvHasher { return &fnvHasher{sum: fnvOffset64} }

func (h *fnvHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= (v >> (8 * i)) & 0xff
		h.sum *= fnvPrime64
	}
}

func (h *fnvHasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.sum ^= uint64(s[i])
		h.sum *= fnvPrime64
	}
}
