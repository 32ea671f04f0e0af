// Package mapwire is the versioned binary wire format map snapshots travel
// in between the MapMaker node and replica map servers.
//
// The format is deterministic: encoding the same snapshot twice — or
// encoding a decoded snapshot — produces byte-identical output, so the
// distribution plane can compare, cache and checksum images without
// normalisation. A full image is everything a name server needs to serve,
// and nothing else: the deployment roster (the platform the rows index),
// the block index (client leaf or resolver address → table), the table→tail
// map, and the rows as two columns — the order of every row, a head per
// table then the tails tables share, and the scores of the heads. The
// header's policy is one a map serves, NS-based or end-user; a decoder
// refuses any other. A replica boots from one
// (DecodeBoot) with no world at hand. A delta image carries only the rows
// re-ranked since a base epoch. What a table was ranked from stays with
// the builder that ranked it. A row has one representation: its columns,
// u16 deployment indexes and, for a head, float32 scores, are written
// from, and read into, the memory they are served from, as bulk copies,
// and the checksum runs over those same bytes; so are the index's columns
// but the IPv6 resolvers. A decoded snapshot
// therefore answers bitwise-identically to the original, on a platform
// whose fingerprint — carried in the header, and recomputed from the
// roster — matches.
//
// Layout, version 12 (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "EUMw"
//	     4     2  format version (12)
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
//	    68     4  endpoints indexed (client leaves + resolvers)
//	    72     …  body (kind-dependent)
//	  last     4  CRC-32C (Castagnoli) of everything before it
//
// Full body:
//
//	u32 D ≤ 65 535, then D deployments, each:
//	    u64 id, u64 latitude bits, u64 longitude bits, u32 ASN,
//	    u32 n + n bytes name, u32 n + n bytes country,
//	    u32 S ≥ 1, then S × (u64 server id, 16-byte address, u64 capacity bits)
//	u32 R4, then R4 × u32 /24 network, then R4 × u32 leaf    IPv4 runs: first key, first leaf
//	u32 N4, then N4 × u8 span, then N4 × W table             IPv4 leaves, in key order
//	u32 R6, then R6 × u64 /48 network, then R6 × u32 leaf    IPv6 runs
//	u32 N6, then N6 × u8 span, then N6 × W table             IPv6 leaves
//	u32 A4, then A4 × u32 address                            IPv4 resolvers, ascending
//	u32 A6, then A6 × 16-byte address                        IPv6 resolvers, ascending
//	(A4 + A6) × W table                                      each resolver's, IPv4 first
//	i32 fallback-LDNS table, i32 fallback-client table
//	T × i32                table → tail
//	u32 N tails, u32 tail length (= deployments)
//	(T × L + N × D) × u16   the order column: every row's deployment indexes, heads in table order, then tails
//	T × L × u32             the score column: every head's scores, in table order
//
// A family's leaf keys travel as runs: each maximal run of consecutive
// keys as its first key and the leaf it starts at, so leaf i of a run
// starting at leaf f with key k has key k+(i-f); runs start at leaf 0,
// ascend, and each begins more than one key past the one before. An IPv4
// resolver travels as its four bytes read as a big-endian number, an IPv6
// one as its 16 network-order bytes, never IPv4-mapped. A table number
// takes W bytes: two in an image of at most 65 535 tables, four past it;
// T fixes W, so no field declares it. Every table a leaf, a resolver or
// a fallback names is one of the T, and every tail a table names one of
// the N. P counts the partitions the publisher clustered its universe
// into; serving never reads a partition, so none travels. Leaves rank by
// block demand, highest first, ties to the lower network, and a leaf's
// span (0..24 for IPv4, 0..48 for IPv6) is the widest s at which it ranks
// first among the leaves sharing its network above the low s bits: a
// query coarser than a leaf is answered by the one leaf spanning it, and
// the decoder refuses leaves unless every aligned group at every level
// holds exactly one.
//
// Delta body (patches the snapshot of the header's lineage at the base
// epoch, under the header's layout fingerprint):
//
//	u32 N, then N × i32    re-ranked rows, strictly ascending: a table's head, or T + a tail
//	their order column, in that order, each at its own length
//	the score column of the heads among them, in that order
//
// A row is best first. An order entry is a u16 deployment index, into the
// roster's deployment list, and a score the IEEE-754 bits of a float32
// (ping milliseconds). Only heads keep scores: the load-aware pick reads
// them, and past the head a pick needs the order alone. Every tail ranks
// every deployment exactly once; the decoder refuses one that does not,
// since the serving walk relies on it to reach a live deployment whenever
// there is one.
package mapwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"time"
	"unsafe"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/wordhash"
)

// Version is the wire format version this package encodes and decodes.
const Version = 12

// Image kinds.
const (
	KindFull  = 0 // complete snapshot: roster, index, layout, both columns of every row
	KindDelta = 1 // re-ranked rows against a base epoch
)

const (
	magic       = "EUMw"
	headerSize  = 72
	trailerSize = 4
	// orderSize is one order entry, a deployment index, and scoreSize one
	// head score's bits.
	orderSize = 2
	scoreSize = 4
	// serverSize is one roster server: ID, address, capacity bits; and
	// rosterMin the fewest bytes a roster deployment takes.
	serverSize = 8 + 16 + 8
	rosterMin  = 8 + 8 + 8 + 4 + 4 + 4 + 4
)

// rosterSize is the encoded size of a platform's roster.
func rosterSize(p *cdn.Platform) int {
	n := 4
	for _, d := range p.Deployments {
		n += rosterMin + len(d.Name) + len(d.Country) + len(d.Servers)*serverSize
	}
	return n
}

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

// Codec encodes and decodes snapshots against one CDN platform: the
// publisher's, or the one a replica decoded from its first image's roster
// (DecodeBoot). The codec's platform fingerprint — hashed over everything
// the roster carries — is in every header, so an image for another
// platform is an explicit error instead of silently misrouted traffic.
type Codec struct {
	platform *cdn.Platform
	fp       uint64
	// roster is the platform's roster as every full image carries it: the
	// encoder copies it, and the decoder holds an image's to it. It is
	// encoded on first use, so a replica that has decoded only its boot
	// image, or a node no replica has fetched from, holds no copy.
	roster func() []byte
}

// NewCodec builds a codec for the given platform.
func NewCodec(p *cdn.Platform) *Codec { return newCodec(p, PlatformFingerprint(p)) }

// newCodec builds a codec for a platform whose fingerprint is already
// known.
func newCodec(p *cdn.Platform, fp uint64) *Codec {
	return &Codec{platform: p, fp: fp, roster: sync.OnceValue(func() []byte {
		w := newWriter(rosterSize(p))
		w.roster(p)
		return w.b
	})}
}

// Platform returns the platform the codec encodes and decodes against.
func (c *Codec) Platform() *cdn.Platform { return c.platform }

// PlatformFingerprint hashes the platform's structural identity — every
// field the roster carries: the deployment list in order, each
// deployment's ID, name, location, ASN and country, and each server's ID,
// address and capacity. Liveness and load are excluded — they are read at
// query time and may legitimately differ across nodes.
func PlatformFingerprint(p *cdn.Platform) uint64 {
	h := wordhash.New()
	h.Word(uint64(len(p.Deployments)))
	for _, d := range p.Deployments {
		h.Word(d.ID)
		h.String(d.Name)
		h.Word(math.Float64bits(d.Loc.Lat))
		h.Word(math.Float64bits(d.Loc.Lon))
		h.Word(uint64(d.ASN))
		h.String(d.Country)
		h.Word(uint64(len(d.Servers)))
		for _, s := range d.Servers {
			a := s.Addr.As16()
			h.Word(s.ID)
			h.Word(binary.BigEndian.Uint64(a[:8]))
			h.Word(binary.BigEndian.Uint64(a[8:]))
			h.Word(math.Float64bits(s.Capacity()))
		}
	}
	return h.Sum()
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
	if h.Policy != mapping.NSBased && h.Policy != mapping.EndUser {
		return h, fmt.Errorf("%w: unknown policy %d", ErrFormat, data[7])
	}
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
	ix := lay.Index
	roster := c.roster()
	width := mapping.TableWidth(lay.Tables())
	size := headerSize +
		len(roster) +
		leavesSize(&ix.V4, width) + leavesSize(&ix.V6, width) +
		4 + 4*len(ix.Resolvers4) + 4 + 16*len(ix.Resolvers6) + width*(len(ix.Resolvers4)+len(ix.Resolvers6)) +
		4 + 4 + // fallback tables
		4*len(lay.SegTail) +
		4 + 4 + // tail count and length
		lay.ArenaLen()*orderSize + lay.Tables()*lay.TableLen*scoreSize +
		trailerSize

	w := newWriter(size)
	c.putHeader(w, sn, KindFull, 0)
	w.raw(roster)
	putLeaves(w, &ix.V4)
	putLeaves(w, &ix.V6)
	w.u32(uint32(len(ix.Resolvers4)))
	putColumn(w, ix.Resolvers4)
	w.u32(uint32(len(ix.Resolvers6)))
	for _, a := range ix.Resolvers6 {
		w.addr(a)
	}
	putTables(w, ix.ResolverTable)

	w.i32(lay.FallbackLDNS)
	w.i32(lay.FallbackClient)
	for _, t := range lay.SegTail {
		w.i32(t)
	}
	w.u32(uint32(lay.Tails))
	w.u32(uint32(lay.TailLen))
	for i := 0; i < lay.Rows(); i++ {
		putColumn(w, sn.RowOrder(i))
	}
	for i := 0; i < lay.Tables(); i++ {
		putColumn(w, sn.HeadScores(i))
	}
	return w.finish(), nil
}

// leavesSize is the encoded size of one family's leaves.
func leavesSize[K uint32 | uint64](l *mapping.Leaves[K], width int) int {
	var k K
	return 4 + len(l.Runs)*(int(unsafe.Sizeof(k))+4) + 4 + l.Len()*(1+width)
}

// putLeaves appends one family's leaves: its runs' first keys and first
// leaves, then its leaves' spans and tables.
func putLeaves[K uint32 | uint64](w *writer, l *mapping.Leaves[K]) {
	w.u32(uint32(len(l.Runs)))
	putColumn(w, l.Runs)
	putColumn(w, l.RunLeaf)
	w.u32(uint32(l.Len()))
	putColumn(w, l.Spans)
	putTables(w, l.Table)
}

// putTables appends a table column in its width.
func putTables(w *writer, c mapping.TableColumn) {
	putColumn(w, c.Narrow)
	putColumn(w, c.Wide)
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
// a base no older than next, or so much changed that a full image is no
// larger); the publisher then falls back to EncodeFull.
func (c *Codec) EncodeDeltaSince(base Base, next *mapping.Snapshot) (data []byte, ok bool, err error) {
	if base.Lineage != next.Lineage() || base.Layout != next.LayoutFingerprint() || base.Epoch >= next.Epoch() {
		return nil, false, nil
	}
	lay := next.Layout()
	rows := next.ChangedSince(base.Epoch)
	entries, heads := 0, 0
	for _, i := range rows {
		entries += lay.RowLen(int(i))
		if int(i) < lay.Tables() {
			heads++
		}
	}
	// A delta that rewrites most of the arena is worse than a full image:
	// it costs the same bytes but pins the replica to a chain of patches.
	if entries*2 >= lay.ArenaLen() {
		return nil, false, nil
	}

	w := newWriter(headerSize + 4 + len(rows)*4 + entries*orderSize + heads*lay.TableLen*scoreSize + trailerSize)
	c.putHeader(w, next, KindDelta, base.Epoch)
	w.u32(uint32(len(rows)))
	for _, i := range rows {
		w.i32(i)
	}
	for _, i := range rows {
		putColumn(w, next.RowOrder(int(i)))
	}
	for _, i := range rows[:heads] {
		putColumn(w, next.HeadScores(int(i)))
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
// be served from. An image for another platform than the codec's is
// refused with ErrPlatformMismatch. For delta images, prev must be the
// installed snapshot the image patches — its lineage, at its base epoch,
// under its layout (the fetcher's last install); DecodeFrom returns
// ErrDeltaBase when it is missing or does not match, signalling the
// fetcher to re-request a full image.
//
// DecodeFrom is hardened against corrupt or adversarial input: every
// length and index is bounds-checked against the bytes left and the
// declared geometry, and nothing is returned unless the trailing checksum
// matches, so no input can panic the replica or install an out-of-range
// table reference.
func (c *Codec) DecodeFrom(src io.Reader, size int64, prev *mapping.Snapshot) (*mapping.Snapshot, Header, error) {
	r, h, err := open(src, size)
	if err != nil {
		return nil, h, err
	}
	if h.PlatformFP != c.fp {
		return nil, h, fmt.Errorf("%w: image %016x, codec %016x", ErrPlatformMismatch, h.PlatformFP, c.fp)
	}
	if err := c.checkHeadLen(h); err != nil {
		return nil, h, err
	}
	if h.Kind == KindDelta {
		sn, err := c.decodeDelta(h, r, prev)
		return sn, h, err
	}
	if !r.expect(c.roster()) {
		if r.err != nil {
			return nil, h, r.err
		}
		return nil, h, fmt.Errorf("%w: the roster is not the one the header's platform fingerprint names", ErrFormat)
	}
	sn, err := c.decodeFull(h, r)
	return sn, h, err
}

// DecodeBoot reads a full image of exactly size bytes from src with no
// platform at hand — a replica's first — and returns the codec for the
// platform its roster describes, which decodes the images that follow,
// with the snapshot decoded against it.
func DecodeBoot(src io.Reader, size int64) (*Codec, *mapping.Snapshot, error) {
	r, h, err := open(src, size)
	if err != nil {
		return nil, nil, err
	}
	if h.Kind != KindFull {
		return nil, nil, fmt.Errorf("%w: a replica boots from a full image, not a delta", ErrFormat)
	}
	p, err := readRoster(r, h)
	if err != nil {
		return nil, nil, err
	}
	c := newCodec(p, h.PlatformFP) // readRoster checked the roster hashes to it
	if err := c.checkHeadLen(h); err != nil {
		return nil, nil, err
	}
	sn, err := c.decodeFull(h, r)
	if err != nil {
		return nil, nil, err
	}
	return c, sn, nil
}

// open reads and validates an image's header.
func open(src io.Reader, size int64) (*reader, Header, error) {
	if size < headerSize+trailerSize {
		return nil, Header{}, fmt.Errorf("%w: %d bytes, need a %d-byte header and a trailer", ErrFormat, size, headerSize)
	}
	r := &reader{src: src, left: size - trailerSize}
	if !r.read(r.buf[:headerSize]) {
		return nil, Header{}, r.err
	}
	h, err := ParseHeader(r.buf[:headerSize])
	return r, h, err
}

// checkHeadLen refuses an image whose heads are not as long as this build
// keeps them on the codec's platform.
func (c *Codec) checkHeadLen(h Header) error {
	if want := mapping.HeadLen(len(c.platform.Deployments)); h.TableLen != uint32(want) {
		return fmt.Errorf("%w: head length %d, this build keeps %d of %d deployments",
			ErrFormat, h.TableLen, want, len(c.platform.Deployments))
	}
	return nil
}

// readRoster reads a full image's deployment roster into a fresh platform,
// refusing an empty one, one of more deployments than a row indexes
// (mapping.MaxDeployments), a deployment with no servers, more than
// cdn.MaxServers or one named twice, a server ID used twice, a capacity
// that is not a finite non-negative number, and a roster whose fingerprint
// is not the header's.
func readRoster(r *reader, h Header) (*cdn.Platform, error) {
	n := r.u32()
	if n > mapping.MaxDeployments {
		return nil, fmt.Errorf("%w: the roster names %d deployments, a row indexes at most %d", ErrFormat, n, mapping.MaxDeployments)
	}
	if !r.fits(uint64(n), rosterMin) {
		return nil, r.err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: the roster names no deployment", ErrFormat)
	}
	p := &cdn.Platform{Deployments: make([]*cdn.Deployment, n)}
	// Repeated IDs are refused once all are read, by sorting them.
	depIDs, serverIDs := make([]uint64, n), make([]uint64, 0, n)
	for i := range p.Deployments {
		d := &cdn.Deployment{ID: r.u64()}
		d.Loc.Lat = math.Float64frombits(r.u64())
		d.Loc.Lon = math.Float64frombits(r.u64())
		d.ASN = r.u32()
		d.Name = r.str()
		d.Country = r.str()
		n := r.sliceLen(serverSize)
		if r.err != nil {
			return nil, r.err
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: roster deployment %d has no servers", ErrFormat, d.ID)
		}
		if n > cdn.MaxServers {
			return nil, fmt.Errorf("%w: roster deployment %d has %d servers, more than %d", ErrFormat, d.ID, n, cdn.MaxServers)
		}
		badCap := false
		r.each(n, serverSize, func(_ int, b []byte) {
			id, capacity := binary.LittleEndian.Uint64(b), math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
			badCap = badCap || !(capacity >= 0) || math.IsInf(capacity, 0)
			serverIDs = append(serverIDs, id)
			d.AddServer(id, netip.AddrFrom16([16]byte(b[8:24])).Unmap(), capacity)
		})
		if badCap {
			return nil, fmt.Errorf("%w: roster deployment %d has a server of no finite capacity", ErrFormat, d.ID)
		}
		p.Deployments[i], depIDs[i] = d, d.ID
	}
	if r.err != nil {
		return nil, r.err
	}
	if id, ok := repeated(depIDs); ok {
		return nil, fmt.Errorf("%w: the roster names deployment %d twice", ErrFormat, id)
	}
	if id, ok := repeated(serverIDs); ok {
		return nil, fmt.Errorf("%w: the roster uses server ID %d twice", ErrFormat, id)
	}
	if fp := PlatformFingerprint(p); fp != h.PlatformFP {
		return nil, fmt.Errorf("%w: the roster's fingerprint is %016x, the header's %016x", ErrFormat, fp, h.PlatformFP)
	}
	return p, nil
}

// repeated sorts ids and returns one that occurs more than once, if any.
func repeated(ids []uint64) (uint64, bool) {
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return 0, false
}

// readIndex reads and validates a full image's block index: table
// numbers, in the width the image's table count takes, each one of its
// tables; leaves as maximal runs of keys inside their family's space, one
// leaf spanning each group of leaves at every level; and resolvers
// strictly ascending, none of the IPv6 ones IPv4-mapped.
func readIndex(r *reader, h Header) (*mapping.Index, error) {
	width := mapping.TableWidth(int(h.Tables))
	ix := &mapping.Index{}
	ix.V4 = readLeaves[uint32](r, width, h.Tables)
	ix.V6 = readLeaves[uint64](r, width, h.Tables)
	ix.Resolvers4 = readColumn[uint32](r, uint64(r.sliceLen(4+width)))
	n6 := r.sliceLen(16 + width)
	ix.Resolvers6 = make([][2]uint64, n6)
	r.each(n6, 16, func(i int, b []byte) {
		ix.Resolvers6[i] = [2]uint64{binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])}
	})
	ix.ResolverTable = readTables(r, uint64(len(ix.Resolvers4)+n6), width, h.Tables)
	if r.err != nil {
		return nil, r.err
	}
	if err := checkLeaves(ix.V4, 24); err != nil {
		return nil, fmt.Errorf("%w: IPv4 leaves: %v", ErrFormat, err)
	}
	if err := checkLeaves(ix.V6, 48); err != nil {
		return nil, fmt.Errorf("%w: IPv6 leaves: %v", ErrFormat, err)
	}
	for i := 1; i < len(ix.Resolvers4); i++ {
		if ix.Resolvers4[i-1] >= ix.Resolvers4[i] {
			return nil, fmt.Errorf("%w: IPv4 resolvers not strictly ascending", ErrFormat)
		}
	}
	for i, a := range ix.Resolvers6 {
		if i > 0 && (ix.Resolvers6[i-1][0] > a[0] || ix.Resolvers6[i-1][0] == a[0] && ix.Resolvers6[i-1][1] >= a[1]) {
			return nil, fmt.Errorf("%w: IPv6 resolvers not strictly ascending", ErrFormat)
		}
		if a[0] == 0 && a[1]>>32 == 0xffff {
			return nil, fmt.Errorf("%w: an IPv6 resolver is IPv4-mapped", ErrFormat)
		}
	}
	if ix.Len() != int(h.Endpoints) {
		return nil, fmt.Errorf("%w: %d endpoints indexed, the header declares %d", ErrFormat, ix.Len(), h.Endpoints)
	}
	return ix, nil
}

// readLeaves reads one family's leaves; checkLeaves validates them.
func readLeaves[K uint32 | uint64](r *reader, width int, tables uint32) mapping.Leaves[K] {
	var k K
	runs := uint64(r.sliceLen(int(unsafe.Sizeof(k)) + 4))
	l := mapping.Leaves[K]{Runs: readColumn[K](r, runs), RunLeaf: readColumn[uint32](r, runs)}
	n := uint64(r.sliceLen(1 + width))
	l.Spans = readColumn[uint8](r, n)
	l.Table = readTables(r, n, width, tables)
	return l
}

// readTables reads a column of n table numbers of the given width,
// checking each against the image's table count.
func readTables(r *reader, n uint64, width int, tables uint32) mapping.TableColumn {
	if width == 2 {
		return mapping.TableColumn{Narrow: readBelow[uint16](r, n, tables, "table")}
	}
	return mapping.TableColumn{Wide: readBelow[uint32](r, n, tables, "table")}
}

// checkLeaves validates one family's leaves, whose keys are width bits
// wide: runs starting at leaf 0 and at ascending leaves short of the
// last, each inside the family's space and each more than one key past
// the one before, so that the runs are maximal; spans no wider than the
// family; and in every aligned group of keys at every level, exactly one
// leaf spanning it. Bit s of spanned says whether the group at level s the
// scan is in has its spanning leaf yet; a group closes where the next key
// leaves it, at the levels below the two keys' highest differing bit.
func checkLeaves[K uint32 | uint64](l mapping.Leaves[K], width int) error {
	if (l.Len() == 0) != (len(l.Runs) == 0) {
		return fmt.Errorf("%d runs of %d leaves", len(l.Runs), l.Len())
	}
	for r, first := range l.RunLeaf {
		switch {
		case r == 0 && first != 0:
			return errors.New("the first run does not start at the first leaf")
		case r > 0 && first <= l.RunLeaf[r-1]:
			return errors.New("run starts not ascending")
		case int64(first) >= int64(l.Len()):
			return errors.New("a run starts past the leaves")
		}
	}
	space := uint64(1)<<width - 1 // the family's last network
	var next uint64               // the key past the last run's
	for r := range l.Runs {
		first, lo, hi := l.Run(r)
		switch k, n := uint64(first), uint64(hi-lo); {
		case k > space || n-1 > space-k:
			return errors.New("a run overflows the family's networks")
		case r > 0 && k <= next:
			return errors.New("runs overlap or touch")
		default:
			next = k + n
		}
	}
	var spanned uint64
	for r := range l.Runs {
		first, lo, hi := l.Run(r)
		for i := lo; i < hi; i++ {
			key := uint64(first) + uint64(i-lo)
			if int(l.Spans[i]) > width {
				return fmt.Errorf("span %d wider than the family's %d bits", l.Spans[i], width)
			}
			levels := uint64(1)<<(l.Spans[i]+1) - 1
			if twice := spanned & levels; twice != 0 {
				return fmt.Errorf("two leaves span the /%d group holding leaf %d", width-bits.TrailingZeros64(twice), i)
			}
			spanned |= levels
			closed := width + 1 // the last leaf closes every group
			switch {
			case i+1 < hi:
				closed = bits.Len64(key ^ (key + 1))
			case r+1 < len(l.Runs):
				closed = bits.Len64(key ^ uint64(l.Runs[r+1]))
			}
			closing := uint64(1)<<closed - 1
			if none := closing &^ spanned; none != 0 {
				return fmt.Errorf("no leaf spans the /%d group holding leaf %d", width-bits.TrailingZeros64(none), i)
			}
			spanned &^= closing
		}
	}
	return nil
}

func (c *Codec) decodeFull(h Header, r *reader) (*mapping.Snapshot, error) {
	tables, nDeps := int(h.Tables), len(c.platform.Deployments)
	ix, err := readIndex(r, h)
	if err != nil {
		return nil, err
	}
	lay := &mapping.Layout{
		NParts:   int(h.Partitions),
		Index:    ix,
		TableLen: int(h.TableLen),
		TailLen:  nDeps,
	}
	lay.FallbackLDNS = r.i32()
	lay.FallbackClient = r.i32()
	if !r.fits(uint64(tables), 4+lay.TableLen*(orderSize+scoreSize)) {
		return nil, r.err
	}
	lay.SegTail = r.i32s(tables)
	lay.Tails = int(r.u32())
	if tailLen := r.u32(); r.err == nil && tailLen != uint32(nDeps) {
		return nil, fmt.Errorf("%w: tails rank %d deployments, the platform has %d", ErrFormat, tailLen, nDeps)
	}
	if !r.fits(uint64(lay.Tails), nDeps*orderSize) {
		return nil, r.err
	}
	if uint64(lay.ArenaLen()) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d row entries, more than a snapshot addresses", ErrFormat, lay.ArenaLen())
	}
	order := readBelow[uint16](r, uint64(lay.ArenaLen()), uint32(nDeps), "deployment")
	scores := readColumn[float32](r, uint64(tables*lay.TableLen))
	if err := r.finish(); err != nil {
		return nil, err
	}

	// Structural validation: every table and tail reference must land
	// inside its list, and every tail must rank the whole platform, or a
	// hostile image could crash the serving hot path later — or leave it
	// with nothing to answer. The index's tables were checked as read.
	if !inRange(lay.FallbackLDNS, int64(tables)) || !inRange(lay.FallbackClient, int64(tables)) {
		return nil, fmt.Errorf("%w: fallback table out of range", ErrFormat)
	}
	for _, t := range lay.SegTail {
		if !inRange(t, int64(lay.Tails)) {
			return nil, fmt.Errorf("%w: tail index out of range", ErrFormat)
		}
	}
	sn := mapping.NewSnapshot(h.Lineage, h.Epoch, h.Policy, h.TTL, lay, c.platform, order, scores)
	for i := tables; i < lay.Rows(); i++ {
		if err := checkTail(sn.RowOrder(i)); err != nil {
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
	rows := r.i32s(r.sliceLen(4 + lay.TableLen*orderSize))
	entries, heads := uint64(0), 0
	for i, row := range rows {
		if !inRange(row, int64(lay.Rows())) {
			return nil, fmt.Errorf("%w: delta row out of range", ErrFormat)
		}
		if i > 0 && rows[i-1] >= row {
			return nil, fmt.Errorf("%w: delta rows not strictly ascending", ErrFormat)
		}
		entries += uint64(lay.RowLen(int(row)))
		if int(row) < lay.Tables() {
			heads++
		}
	}
	order := readBelow[uint16](r, entries, uint32(nDeps), "deployment")
	scores := readColumn[float32](r, uint64(heads*lay.TableLen))
	if err := r.finish(); err != nil {
		return nil, err
	}
	sn := prev.WithDeltaRows(h.Epoch, h.Policy, h.TTL, rows, order, scores)
	for _, row := range rows {
		if int(row) >= prev.Tables() {
			if err := checkTail(sn.RowOrder(int(row))); err != nil {
				return nil, err
			}
		}
	}
	return sn, nil
}

// checkTail verifies that a tail, whose deployment indexes are already
// known to be in range, names every deployment exactly once.
func checkTail(tail []uint16) error {
	seen := make([]bool, len(tail))
	for _, d := range tail {
		if seen[d] {
			return fmt.Errorf("%w: a tail ranks deployment %d twice", ErrFormat, d)
		}
		seen[d] = true
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
	w.u32(uint32(lay.Index.Len()))
}

// inRange reports whether an index read off the wire is inside [0, n).
func inRange(i int32, n int64) bool { return i >= 0 && int64(i) < n }
