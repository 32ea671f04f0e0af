// Package mapwire is the versioned binary wire format map snapshots travel
// in between the MapMaker node and replica map servers.
//
// The format is deterministic: encoding the same snapshot twice — or
// encoding a decoded snapshot — produces byte-identical output, so the
// distribution plane can compare, cache and checksum images without
// normalisation. A full image carries the partition layout as serving
// reads it (endpoint→partition index, partition→table map, table→tail map)
// followed by one flat arena of rows — a head per table, then the tails
// tables share — and, for ClientAwareNS snapshots, the candidate map; a
// delta image carries only the rows re-ranked since a base epoch. What a
// table was ranked from stays with the builder that ranked it. A row has
// one representation: the 12-byte entries of mapping.Ranked are written
// from, and read into, the memory they are served from, as bulk copies, and
// the checksum runs over those same bytes. A decoded snapshot therefore
// answers bitwise-identically to the original — provided both sides hold
// the same platform, which the header's platform fingerprint enforces.
//
// Layout, version 5 (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "EUMw"
//	     4     2  format version (5)
//	     6     1  kind (0 full, 1 delta)
//	     7     1  policy
//	     8     8  epoch
//	    16     8  lineage (the builder run epochs are ordered within)
//	    24     8  base epoch (deltas; 0 for full images)
//	    32     8  answer TTL, nanoseconds
//	    40     8  platform fingerprint
//	    48     8  layout fingerprint
//	    56     4  partitions P (excluding the two fallbacks)
//	    60     4  tables T
//	    64     4  head length L (entries a table keeps of its own ranking)
//	    68     4  endpoints indexed
//	    72     …  body (kind-dependent)
//	  last     4  CRC-32C (Castagnoli) of everything before it
//
// Full body:
//
//	i32 fallback-LDNS partition, i32 fallback-client partition
//	u32 D, then D × i32    dense endpoint-ID → partition index (-1 unknown)
//	u32 P+2, then (P+2) × i32   partition → table
//	T × i32                table → tail
//	u32 N, u32 tail length (= deployments), then N × i32   the table whose endpoint ranks each tail
//	(T × L + N × deployments) × 12 bytes   the arena: heads in table order, then tails
//	u32 C, then C × (u64 LDNS id, u32 n, n × 12 bytes)   CANS candidate heads, ascending id
//
// Delta body (patches the snapshot of the header's lineage at the base
// epoch, under the header's layout fingerprint):
//
//	u32 N, then N × i32    re-ranked rows, strictly ascending: a table's head, or T + a tail
//	their new contents, in that order, each at its own length
//
// A rank entry is u32 deployment index (into the platform's deployment
// list), then the score's IEEE-754 bits as u32 low word, u32 high word.
// Every tail ranks every deployment exactly once; the decoder refuses one
// that does not, since the serving walk relies on it to reach a live
// deployment whenever there is one.
package mapwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
)

// Version is the wire format version this package encodes and decodes.
const Version = 5

// Image kinds.
const (
	KindFull  = 0 // complete snapshot: layout + full arena (+ CANS tables)
	KindDelta = 1 // re-ranked rows against a base epoch
)

const (
	magic       = "EUMw"
	headerSize  = 72
	trailerSize = 4
	// rankedSize is one rank entry: deployment index + score bits.
	rankedSize = 12
)

// Decode error categories, wrapped by the errors Decode returns.
var (
	ErrFormat           = errors.New("mapwire: malformed image")
	ErrVersion          = errors.New("mapwire: unsupported format version")
	ErrChecksum         = errors.New("mapwire: checksum mismatch")
	ErrPlatformMismatch = errors.New("mapwire: image built for a different platform")
	ErrDeltaBase        = errors.New("mapwire: delta base unavailable")
)

// Header is the fixed-size image header, readable without decoding the
// body (ParseHeader). The fetcher uses it to learn the publisher's epoch
// and kind before committing to a decode.
type Header struct {
	Version    uint16
	Kind       uint8
	Policy     mapping.Policy
	Epoch      uint64
	Lineage    uint64
	BaseEpoch  uint64 // deltas: the epoch the rows patch; full: 0
	TTL        time.Duration
	PlatformFP uint64
	LayoutFP   uint64
	Partitions uint32
	Tables     uint32
	TableLen   uint32
	Endpoints  uint32
}

// Codec encodes and decodes snapshots against one CDN platform. Both ends
// of the wire construct their platform deterministically from the same
// seeds; the codec's platform fingerprint — hashed over deployment and
// server identities — is carried in every header so a mismatch is an
// explicit error instead of silently misrouted traffic.
type Codec struct {
	platform *cdn.Platform
	fp       uint64
}

// NewCodec builds a codec for the given platform.
func NewCodec(p *cdn.Platform) *Codec {
	return &Codec{platform: p, fp: PlatformFingerprint(p)}
}

// PlatformFingerprint hashes the platform's structural identity: the
// deployment list (order, IDs, locations) and each deployment's server
// IDs. Liveness and load are excluded — they are read at query time and
// may legitimately differ across nodes.
func PlatformFingerprint(p *cdn.Platform) uint64 {
	h := newFNV()
	h.u64(uint64(len(p.Deployments)))
	for _, d := range p.Deployments {
		h.u64(d.ID)
		h.u64(math.Float64bits(d.Loc.Lat))
		h.u64(math.Float64bits(d.Loc.Lon))
		h.u64(uint64(d.ASN))
		h.u64(uint64(len(d.Servers)))
		for _, s := range d.Servers {
			h.u64(s.ID)
		}
	}
	return h.sum
}

// ParseHeader reads and validates the fixed header of an image without
// touching the body or verifying the checksum.
func ParseHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %d bytes, need %d-byte header", ErrFormat, len(data), headerSize)
	}
	if string(data[:4]) != magic {
		return h, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	h.Version = binary.LittleEndian.Uint16(data[4:])
	if h.Version != Version {
		return h, fmt.Errorf("%w: version %d, this build speaks %d", ErrVersion, h.Version, Version)
	}
	h.Kind = data[6]
	if h.Kind != KindFull && h.Kind != KindDelta {
		return h, fmt.Errorf("%w: unknown kind %d", ErrFormat, h.Kind)
	}
	h.Policy = mapping.Policy(data[7])
	h.Epoch = binary.LittleEndian.Uint64(data[8:])
	h.Lineage = binary.LittleEndian.Uint64(data[16:])
	h.BaseEpoch = binary.LittleEndian.Uint64(data[24:])
	h.TTL = time.Duration(binary.LittleEndian.Uint64(data[32:]))
	h.PlatformFP = binary.LittleEndian.Uint64(data[40:])
	h.LayoutFP = binary.LittleEndian.Uint64(data[48:])
	h.Partitions = binary.LittleEndian.Uint32(data[56:])
	h.Tables = binary.LittleEndian.Uint32(data[60:])
	h.TableLen = binary.LittleEndian.Uint32(data[64:])
	h.Endpoints = binary.LittleEndian.Uint32(data[68:])
	return h, nil
}

// EncodeFull serializes a complete snapshot image.
func (c *Codec) EncodeFull(sn *mapping.Snapshot) ([]byte, error) {
	lay := sn.Layout()
	if lay.TailLen != len(c.platform.Deployments) {
		return nil, fmt.Errorf("mapwire: snapshot ranks %d deployments, the codec's platform has %d",
			lay.TailLen, len(c.platform.Deployments))
	}
	cans := sn.CANSTables()
	cansIDs := make([]uint64, 0, len(cans))
	for id := range cans {
		cansIDs = append(cansIDs, id)
	}
	slices.Sort(cansIDs) // the canonical wire order that makes encoding deterministic

	size := headerSize +
		4 + 4 + // fallback indexes
		4 + 4*len(lay.Dense) +
		4 + 4*len(lay.PartSeg) +
		4*len(lay.SegTail) +
		4 + 4 + 4*len(lay.TailSeg) +
		lay.ArenaLen()*rankedSize +
		4 + trailerSize // cans count + checksum
	for _, id := range cansIDs {
		size += 8 + 4 + len(cans[id])*rankedSize
	}

	w := newWriter(size)
	c.putHeader(w, sn, KindFull, 0)

	w.i32(lay.FallbackLDNS)
	w.i32(lay.FallbackClient)
	w.u32(uint32(len(lay.Dense)))
	for _, v := range lay.Dense {
		w.i32(v)
	}
	w.u32(uint32(len(lay.PartSeg)))
	for _, v := range lay.PartSeg {
		w.i32(v)
	}
	for _, t := range lay.SegTail {
		w.i32(t)
	}
	w.u32(uint32(len(lay.TailSeg)))
	w.u32(uint32(lay.TailLen))
	for _, s := range lay.TailSeg {
		w.i32(s)
	}
	for i := 0; i < lay.Rows(); i++ {
		w.table(sn.RowTable(i))
	}
	w.u32(uint32(len(cansIDs)))
	for _, id := range cansIDs {
		w.u64(id)
		w.u32(uint32(len(cans[id])))
		w.table(cans[id])
	}
	return w.finish(), nil
}

// Base names the snapshot a delta patches by what the delta needs of it:
// its lineage, its epoch and its layout fingerprint. It is what a replica
// reports it holds; the rows themselves never have to be at hand.
type Base struct {
	Lineage, Epoch, Layout uint64
}

// BaseOf returns sn as a delta base.
func BaseOf(sn *mapping.Snapshot) Base {
	return Base{Lineage: sn.Lineage(), Epoch: sn.Epoch(), Layout: sn.LayoutFingerprint()}
}

// EncodeDelta serializes next as a delta image patching prev: it is
// EncodeDeltaSince with prev as the base, and ok is false when prev is nil.
func (c *Codec) EncodeDelta(prev, next *mapping.Snapshot) (data []byte, ok bool, err error) {
	if prev == nil {
		return nil, false, nil
	}
	return c.EncodeDeltaSince(BaseOf(prev), next)
}

// EncodeDeltaSince serializes the rows of next re-ranked after the base's
// epoch (next.ChangedSince) as a delta image patching that base. Only the
// current snapshot is read: the rows of next's lineage that no build has
// touched since the base epoch are the base's rows. ok is false — with no
// error — when a delta is not expressible (another lineage, another layout,
// a base no older than next, a CANS snapshot whose candidate map has no
// delta form, or so much changed that a full image is no larger); the
// publisher then falls back to EncodeFull.
func (c *Codec) EncodeDeltaSince(base Base, next *mapping.Snapshot) (data []byte, ok bool, err error) {
	if base.Lineage != next.Lineage() || base.Layout != next.LayoutFingerprint() ||
		next.CANSTables() != nil || base.Epoch >= next.Epoch() {
		return nil, false, nil
	}
	lay := next.Layout()
	rows := next.ChangedSince(base.Epoch)
	entries := 0
	for _, i := range rows {
		entries += lay.RowLen(int(i))
	}
	// A delta that rewrites most of the arena is worse than a full image:
	// it costs the same bytes but pins the replica to a chain of patches.
	if entries*2 >= lay.ArenaLen() {
		return nil, false, nil
	}

	w := newWriter(headerSize + 4 + len(rows)*4 + entries*rankedSize + trailerSize)
	c.putHeader(w, next, KindDelta, base.Epoch)
	w.u32(uint32(len(rows)))
	for _, i := range rows {
		w.i32(i)
	}
	for _, i := range rows {
		w.table(next.RowTable(int(i)))
	}
	return w.finish(), true, nil
}

// Decode reconstructs a snapshot from an image held in memory; see
// DecodeFrom.
func (c *Codec) Decode(data []byte, prev *mapping.Snapshot) (*mapping.Snapshot, error) {
	sn, _, err := c.DecodeFrom(bytes.NewReader(data), int64(len(data)), prev)
	return sn, err
}

// DecodeFrom reconstructs a snapshot from an image of exactly size bytes
// read from src — an HTTP response body and its Content-Length — without
// ever holding the image: rank tables are read into the memory they will
// be served from. For delta images, prev must be the installed snapshot the
// image patches — its lineage, at its base epoch, under its layout (the
// fetcher's last install); DecodeFrom returns ErrDeltaBase when it is
// missing or does not match, signalling the fetcher to re-request a full
// image.
//
// DecodeFrom is hardened against corrupt or adversarial input: every
// length and index is bounds-checked against the bytes left and the
// declared geometry, and nothing is returned unless the trailing checksum
// matches, so no input can panic the replica or install an out-of-range
// table reference.
func (c *Codec) DecodeFrom(src io.Reader, size int64, prev *mapping.Snapshot) (*mapping.Snapshot, Header, error) {
	if size < headerSize+trailerSize {
		return nil, Header{}, fmt.Errorf("%w: %d bytes, need a %d-byte header and a trailer", ErrFormat, size, headerSize)
	}
	r := &reader{src: src, left: size - trailerSize}
	if !r.read(r.buf[:headerSize]) {
		return nil, Header{}, r.err
	}
	h, err := ParseHeader(r.buf[:headerSize])
	if err != nil {
		return nil, h, err
	}
	if h.PlatformFP != c.fp {
		return nil, h, fmt.Errorf("%w: image %016x, codec %016x", ErrPlatformMismatch, h.PlatformFP, c.fp)
	}
	if want := mapping.HeadLen(len(c.platform.Deployments)); h.TableLen != uint32(want) {
		return nil, h, fmt.Errorf("%w: head length %d, this build keeps %d of %d deployments",
			ErrFormat, h.TableLen, want, len(c.platform.Deployments))
	}
	var sn *mapping.Snapshot
	if h.Kind == KindDelta {
		sn, err = c.decodeDelta(h, r, prev)
	} else {
		sn, err = c.decodeFull(h, r)
	}
	return sn, h, err
}

func (c *Codec) decodeFull(h Header, r *reader) (*mapping.Snapshot, error) {
	tables, nDeps := int(h.Tables), len(c.platform.Deployments)
	lay := &mapping.Layout{
		NParts:    int(h.Partitions),
		TableLen:  int(h.TableLen),
		TailLen:   nDeps,
		Endpoints: int(h.Endpoints),
	}
	// nSlots is the partition-index value space: universe partitions plus
	// the two fallbacks. Every partition reference must stay inside it.
	nSlots := int64(h.Partitions) + 2
	lay.FallbackLDNS = r.i32()
	lay.FallbackClient = r.i32()
	lay.Dense = r.i32s(r.sliceLen(4))
	lay.PartSeg = r.i32s(r.sliceLen(4))
	if !r.fits(uint64(tables), 4+lay.TableLen*rankedSize) {
		return nil, r.err
	}
	lay.SegTail = r.i32s(tables)
	nTails := int(r.u32())
	if tailLen := r.u32(); r.err == nil && tailLen != uint32(nDeps) {
		return nil, fmt.Errorf("%w: tails rank %d deployments, the platform has %d", ErrFormat, tailLen, nDeps)
	}
	if !r.fits(uint64(nTails), 4+nDeps*rankedSize) {
		return nil, r.err
	}
	lay.TailSeg = r.i32s(nTails)
	arena := r.tables(uint64(lay.ArenaLen()), nDeps)
	var cansMap map[uint64][]mapping.Ranked
	nCANS := r.sliceLen(12)
	if nCANS > 0 {
		cansMap = make(map[uint64][]mapping.Ranked, nCANS)
	}
	for i := 0; i < nCANS && r.err == nil; i++ {
		id := r.u64()
		cansMap[id] = r.tables(uint64(r.sliceLen(rankedSize)), nDeps)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}

	// Structural validation: every partition index must land inside the
	// declared slot space, every table and tail reference inside its list,
	// and every tail must rank the whole platform, or a hostile image could
	// crash the serving hot path later — or leave it with nothing to answer.
	if int64(len(lay.PartSeg)) != nSlots {
		return nil, fmt.Errorf("%w: %d partition segments for %d slots", ErrFormat, len(lay.PartSeg), nSlots)
	}
	if !inRange(lay.FallbackLDNS, nSlots) || !inRange(lay.FallbackClient, nSlots) {
		return nil, fmt.Errorf("%w: fallback partition out of range", ErrFormat)
	}
	for _, p := range lay.Dense {
		if p != -1 && !inRange(p, nSlots) {
			return nil, fmt.Errorf("%w: dense partition index out of range", ErrFormat)
		}
	}
	for _, s := range lay.PartSeg {
		if !inRange(s, int64(tables)) {
			return nil, fmt.Errorf("%w: partition segment out of range", ErrFormat)
		}
	}
	for _, t := range lay.SegTail {
		if !inRange(t, int64(nTails)) {
			return nil, fmt.Errorf("%w: tail index out of range", ErrFormat)
		}
	}
	for _, s := range lay.TailSeg {
		if !inRange(s, int64(tables)) {
			return nil, fmt.Errorf("%w: tail source table out of range", ErrFormat)
		}
	}
	sn := mapping.NewSnapshot(h.Lineage, h.Epoch, h.Policy, h.TTL, lay, c.platform, arena, cansMap)
	for i := tables; i < lay.Rows(); i++ {
		if err := checkTail(sn.RowTable(i)); err != nil {
			return nil, err
		}
	}
	return sn, nil
}

func (c *Codec) decodeDelta(h Header, r *reader, prev *mapping.Snapshot) (*mapping.Snapshot, error) {
	if prev == nil {
		return nil, fmt.Errorf("%w: no base snapshot", ErrDeltaBase)
	}
	if prev.Lineage() != h.Lineage {
		return nil, fmt.Errorf("%w: lineage %016x, have %016x", ErrDeltaBase, h.Lineage, prev.Lineage())
	}
	if prev.Epoch() != h.BaseEpoch {
		return nil, fmt.Errorf("%w: base epoch %d, have %d", ErrDeltaBase, h.BaseEpoch, prev.Epoch())
	}
	if prev.LayoutFingerprint() != h.LayoutFP {
		return nil, fmt.Errorf("%w: layout fingerprint mismatch", ErrDeltaBase)
	}
	lay, nDeps := prev.Layout(), len(c.platform.Deployments)
	if int(h.Tables) != prev.Tables() {
		return nil, fmt.Errorf("%w: geometry mismatch", ErrDeltaBase)
	}
	rows := r.i32s(r.sliceLen(4 + lay.TableLen*rankedSize))
	entries := uint64(0)
	for i, row := range rows {
		if !inRange(row, int64(lay.Rows())) {
			return nil, fmt.Errorf("%w: delta row out of range", ErrFormat)
		}
		if i > 0 && rows[i-1] >= row {
			return nil, fmt.Errorf("%w: delta rows not strictly ascending", ErrFormat)
		}
		entries += uint64(lay.RowLen(int(row)))
	}
	delta := r.tables(entries, nDeps)
	if err := r.finish(); err != nil {
		return nil, err
	}
	sn := prev.WithDeltaRows(h.Epoch, h.Policy, h.TTL, rows, delta)
	for _, row := range rows {
		if int(row) >= prev.Tables() {
			if err := checkTail(sn.RowTable(int(row))); err != nil {
				return nil, err
			}
		}
	}
	return sn, nil
}

// checkTail verifies that a tail, whose deployment indexes are already
// known to be in range, names every deployment exactly once.
func checkTail(tail []mapping.Ranked) error {
	seen := make([]bool, len(tail))
	for _, e := range tail {
		if seen[e.Dep] {
			return fmt.Errorf("%w: a tail ranks deployment %d twice", ErrFormat, e.Dep)
		}
		seen[e.Dep] = true
	}
	return nil
}

// putHeader writes the fixed header for sn.
func (c *Codec) putHeader(w *writer, sn *mapping.Snapshot, kind uint8, baseEpoch uint64) {
	lay := sn.Layout()
	w.raw([]byte(magic))
	w.u16(Version)
	w.u8(kind)
	w.u8(uint8(sn.Policy()))
	w.u64(sn.Epoch())
	w.u64(sn.Lineage())
	w.u64(baseEpoch)
	w.u64(uint64(sn.TTL()))
	w.u64(c.fp)
	w.u64(sn.LayoutFingerprint())
	w.u32(uint32(lay.NParts))
	w.u32(uint32(lay.Tables()))
	w.u32(uint32(lay.TableLen))
	w.u32(uint32(lay.Endpoints))
}

// inRange reports whether an index read off the wire is inside [0, n).
func inRange(i int32, n int64) bool { return i >= 0 && int64(i) < n }
