// Package mapwire is the versioned binary wire format map snapshots travel
// in between the MapMaker node and replica map servers.
//
// The format is deterministic: encoding the same snapshot twice — or
// encoding a decoded snapshot — produces byte-identical output, so the
// distribution plane can compare, cache and checksum images without
// normalisation. A full image is everything a name server needs to serve,
// and nothing else: the deployment roster (the platform the rows index),
// the block index (client leaf or resolver address → partition), the
// partition layout as serving reads it (partition→table map, table→tail
// map), one flat arena of rows — a head per table, then the tails tables
// share — and, for ClientAwareNS snapshots, the candidate map. A replica
// boots from one (DecodeBoot) with no world at hand. A delta image carries
// only the rows re-ranked since a base epoch. What a table was ranked from
// stays with the builder that ranked it. A row has one representation: the
// 12-byte entries of mapping.Ranked are written from, and read into, the
// memory they are served from, as bulk copies, and the checksum runs over
// those same bytes. A decoded snapshot therefore answers
// bitwise-identically to the original, on a platform whose fingerprint —
// carried in the header, and recomputed from the roster — matches.
//
// Layout, version 6 (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "EUMw"
//	     4     2  format version (6)
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
//	u32 D, then D deployments, each:
//	    u64 id, u64 latitude bits, u64 longitude bits, u32 ASN,
//	    u32 n + n bytes name, u32 n + n bytes country,
//	    u32 S ≥ 1, then S × (u64 server id, 16-byte address, u64 capacity bits)
//	u32 N4, then N4 × (u32 /24 network, i32 partition, u32 rank)   IPv4 leaves, ascending
//	u32 N6, then N6 × (u64 /48 network, i32 partition, u32 rank)   IPv6 leaves, ascending
//	u32 R, then R × (16-byte address, i32 partition)               resolvers, ascending
//	i32 fallback-LDNS partition, i32 fallback-client partition
//	u32 P+2, then (P+2) × i32   partition → table
//	T × i32                table → tail
//	u32 N, u32 tail length (= deployments), then N × i32   the table whose endpoint ranks each tail
//	(T × L + N × deployments) × 12 bytes   the arena: heads in table order, then tails
//	u32 C, then C × (u32 resolver, u32 n, n × 12 bytes)   CANS candidate heads, ascending resolver
//
// Addresses travel as their 16 network-order bytes, IPv4 as IPv4-mapped. A
// leaf's rank is its place among its family's leaves by block demand,
// highest first, ties to the lower network: a query coarser than a leaf is
// answered by the lowest rank inside it, and the decoder refuses ranks
// that are not a permutation. A resolver is named in the CANS map by its
// position in the resolver list.
//
// Delta body (patches the snapshot of the header's lineage at the base
// epoch, under the header's layout fingerprint):
//
//	u32 N, then N × i32    re-ranked rows, strictly ascending: a table's head, or T + a tail
//	their new contents, in that order, each at its own length
//
// A rank entry is u32 deployment index (into the roster's deployment
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
	"net/netip"
	"slices"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
)

// Version is the wire format version this package encodes and decodes.
const Version = 6

// Image kinds.
const (
	KindFull  = 0 // complete snapshot: roster, index, layout, full arena (+ CANS tables)
	KindDelta = 1 // re-ranked rows against a base epoch
)

const (
	magic       = "EUMw"
	headerSize  = 72
	trailerSize = 4
	// rankedSize is one rank entry: deployment index + score bits.
	rankedSize = 12
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
	// encoder copies it, and the decoder holds an image's to it.
	roster []byte
}

// NewCodec builds a codec for the given platform.
func NewCodec(p *cdn.Platform) *Codec {
	w := newWriter(rosterSize(p))
	w.roster(p)
	return &Codec{platform: p, fp: PlatformFingerprint(p), roster: w.b}
}

// Platform returns the platform the codec encodes and decodes against.
func (c *Codec) Platform() *cdn.Platform { return c.platform }

// PlatformFingerprint hashes the platform's structural identity — every
// field the roster carries: the deployment list in order, each
// deployment's ID, name, location, ASN and country, and each server's ID,
// address and capacity. Liveness and load are excluded — they are read at
// query time and may legitimately differ across nodes.
func PlatformFingerprint(p *cdn.Platform) uint64 {
	h := newFNV()
	h.u64(uint64(len(p.Deployments)))
	for _, d := range p.Deployments {
		h.u64(d.ID)
		h.str(d.Name)
		h.u64(math.Float64bits(d.Loc.Lat))
		h.u64(math.Float64bits(d.Loc.Lon))
		h.u64(uint64(d.ASN))
		h.str(d.Country)
		h.u64(uint64(len(d.Servers)))
		for _, s := range d.Servers {
			a := s.Addr.As16()
			h.u64(s.ID)
			h.u64(binary.BigEndian.Uint64(a[:8]))
			h.u64(binary.BigEndian.Uint64(a[8:]))
			h.u64(math.Float64bits(s.Capacity()))
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
	ix := lay.Index
	cans := sn.CANSTables()
	slots := make([]int32, 0, len(cans))
	for slot := range cans {
		slots = append(slots, slot)
	}
	slices.Sort(slots) // the canonical wire order that makes encoding deterministic

	size := headerSize +
		len(c.roster) +
		4 + 12*len(ix.V4.Keys) + 4 + 16*len(ix.V6.Keys) + 4 + 20*len(ix.Resolvers) +
		4 + 4 + // fallback indexes
		4 + 4*len(lay.PartSeg) +
		4*len(lay.SegTail) +
		4 + 4 + 4*len(lay.TailSeg) +
		lay.ArenaLen()*rankedSize +
		4 + trailerSize // cans count + checksum
	for _, slot := range slots {
		size += 4 + 4 + len(cans[slot])*rankedSize
	}

	w := newWriter(size)
	c.putHeader(w, sn, KindFull, 0)
	w.raw(c.roster)
	w.u32(uint32(len(ix.V4.Keys)))
	for i, k := range ix.V4.Keys {
		w.u32(k)
		w.i32(ix.V4.Part[i])
		w.u32(ix.V4.Rank[i])
	}
	w.u32(uint32(len(ix.V6.Keys)))
	for i, k := range ix.V6.Keys {
		w.u64(k)
		w.i32(ix.V6.Part[i])
		w.u32(ix.V6.Rank[i])
	}
	w.u32(uint32(len(ix.Resolvers)))
	for i, a := range ix.Resolvers {
		w.addr(a)
		w.i32(ix.ResolverPart[i])
	}

	w.i32(lay.FallbackLDNS)
	w.i32(lay.FallbackClient)
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
	w.u32(uint32(len(slots)))
	for _, slot := range slots {
		w.i32(slot)
		w.u32(uint32(len(cans[slot])))
		w.table(cans[slot])
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
	if !r.expect(c.roster) {
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
	c := NewCodec(p)
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
// refusing an empty one, a deployment with no servers, more than
// cdn.MaxServers or one named twice, a server ID used twice, a capacity
// that is not a finite non-negative number, and a roster whose fingerprint
// is not the header's.
func readRoster(r *reader, h Header) (*cdn.Platform, error) {
	p := &cdn.Platform{Deployments: make([]*cdn.Deployment, r.sliceLen(rosterMin))}
	if r.err == nil && len(p.Deployments) == 0 {
		return nil, fmt.Errorf("%w: the roster names no deployment", ErrFormat)
	}
	seen := make(map[uint64]bool, len(p.Deployments))
	servers := map[uint64]bool{}
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
		if n == 0 || seen[d.ID] {
			return nil, fmt.Errorf("%w: roster deployment %d has no servers or is named twice", ErrFormat, d.ID)
		}
		if n > cdn.MaxServers {
			return nil, fmt.Errorf("%w: roster deployment %d has %d servers, more than %d", ErrFormat, d.ID, n, cdn.MaxServers)
		}
		seen[d.ID] = true
		badCap, twice := false, false
		r.each(n, serverSize, func(_ int, b []byte) {
			id, capacity := binary.LittleEndian.Uint64(b), math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
			badCap = badCap || !(capacity >= 0) || math.IsInf(capacity, 0)
			twice = twice || servers[id]
			servers[id] = true
			d.AddServer(id, netip.AddrFrom16([16]byte(b[8:24])).Unmap(), capacity)
		})
		if badCap {
			return nil, fmt.Errorf("%w: roster deployment %d has a server of no finite capacity", ErrFormat, d.ID)
		}
		if twice {
			return nil, fmt.Errorf("%w: roster deployment %d has a server ID the roster already used", ErrFormat, d.ID)
		}
		p.Deployments[i] = d
	}
	if r.err != nil {
		return nil, r.err
	}
	if fp := PlatformFingerprint(p); fp != h.PlatformFP {
		return nil, fmt.Errorf("%w: the roster's fingerprint is %016x, the header's %016x", ErrFormat, fp, h.PlatformFP)
	}
	return p, nil
}

// readIndex reads and validates a full image's block index: keys strictly
// ascending and inside their family's space, every partition one of the
// image's nParts, ranks a permutation per family.
func readIndex(r *reader, h Header) (*mapping.Index, error) {
	ix := &mapping.Index{}
	nParts := int64(h.Partitions)
	n4 := r.sliceLen(12)
	ix.V4 = mapping.Leaves[uint32]{Keys: make([]uint32, n4), Part: make([]int32, n4), Rank: make([]uint32, n4)}
	r.each(n4, 12, func(i int, b []byte) {
		ix.V4.Keys[i] = binary.LittleEndian.Uint32(b)
		ix.V4.Part[i] = int32(binary.LittleEndian.Uint32(b[4:]))
		ix.V4.Rank[i] = binary.LittleEndian.Uint32(b[8:])
	})
	n6 := r.sliceLen(16)
	ix.V6 = mapping.Leaves[uint64]{Keys: make([]uint64, n6), Part: make([]int32, n6), Rank: make([]uint32, n6)}
	r.each(n6, 16, func(i int, b []byte) {
		ix.V6.Keys[i] = binary.LittleEndian.Uint64(b)
		ix.V6.Part[i] = int32(binary.LittleEndian.Uint32(b[8:]))
		ix.V6.Rank[i] = binary.LittleEndian.Uint32(b[12:])
	})
	nr := r.sliceLen(20)
	ix.Resolvers, ix.ResolverPart = make([][2]uint64, nr), make([]int32, nr)
	r.each(nr, 20, func(i int, b []byte) {
		ix.Resolvers[i] = [2]uint64{binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])}
		ix.ResolverPart[i] = int32(binary.LittleEndian.Uint32(b[16:]))
	})
	if r.err != nil {
		return nil, r.err
	}
	if err := checkLeaves(ix.V4, 1<<24, nParts); err != nil {
		return nil, fmt.Errorf("%w: IPv4 leaves: %v", ErrFormat, err)
	}
	if err := checkLeaves(ix.V6, 1<<48, nParts); err != nil {
		return nil, fmt.Errorf("%w: IPv6 leaves: %v", ErrFormat, err)
	}
	for i, a := range ix.Resolvers {
		if i > 0 && (ix.Resolvers[i-1][0] > a[0] || ix.Resolvers[i-1][0] == a[0] && ix.Resolvers[i-1][1] >= a[1]) {
			return nil, fmt.Errorf("%w: resolvers not strictly ascending", ErrFormat)
		}
		if !inRange(ix.ResolverPart[i], nParts) {
			return nil, fmt.Errorf("%w: resolver partition out of range", ErrFormat)
		}
	}
	if ix.Len() != int(h.Endpoints) {
		return nil, fmt.Errorf("%w: %d endpoints indexed, the header declares %d", ErrFormat, ix.Len(), h.Endpoints)
	}
	return ix, nil
}

// checkLeaves validates one family's leaves against its key space and the
// image's partition count.
func checkLeaves[K uint32 | uint64](l mapping.Leaves[K], keySpace K, nParts int64) error {
	ranked := make([]bool, len(l.Keys))
	for i, k := range l.Keys {
		if k >= keySpace || i > 0 && l.Keys[i-1] >= k {
			return errors.New("keys not strictly ascending inside the family's networks")
		}
		if !inRange(l.Part[i], nParts) {
			return errors.New("partition out of range")
		}
		rk := l.Rank[i]
		if rk >= uint32(len(ranked)) || ranked[rk] {
			return errors.New("ranks are not a permutation")
		}
		ranked[rk] = true
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
	// nSlots is the partition-index value space: universe partitions plus
	// the two fallbacks. Every partition reference must stay inside it.
	nSlots := int64(h.Partitions) + 2
	lay.FallbackLDNS = r.i32()
	lay.FallbackClient = r.i32()
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
	var cansMap map[int32][]mapping.Ranked
	nCANS := r.sliceLen(8)
	if nCANS > 0 {
		cansMap = make(map[int32][]mapping.Ranked, nCANS)
	}
	for i, last := 0, int32(-1); i < nCANS && r.err == nil; i++ {
		slot := r.i32()
		if r.err == nil && (slot <= last || int(slot) >= len(ix.Resolvers)) {
			return nil, fmt.Errorf("%w: CANS resolvers not ascending inside the index", ErrFormat)
		}
		last = slot
		cansMap[slot] = r.tables(uint64(r.sliceLen(rankedSize)), nDeps)
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
	w.u32(uint32(lay.Index.Len()))
}

// inRange reports whether an index read off the wire is inside [0, n).
func inRange(i int32, n int64) bool { return i >= 0 && int64(i) < n }
