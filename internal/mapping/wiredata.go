package mapping

import (
	"time"
	"unsafe"

	"eum/internal/cdn"
)

// This file is the snapshot's wire-support surface: what internal/mapwire
// needs beyond the exported Layout to serialize a snapshot and to rebuild
// an installable one. A rank table has one representation — its []Ranked
// memory is what travels — so there is nothing to translate, only to view.

// hostBigEndian reports a host whose 32-bit words are stored high byte
// first, where a table's memory is its wire image only after WireOrder.
var hostBigEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// TableBytes returns the memory of a rank table — or of a whole arena — as
// bytes, 12 per entry, without copying. The wire format is that memory as a
// little-endian host lays it out; pass the bytes through WireOrder after
// copying them out (encode) or reading them in (decode).
func TableBytes(t []Ranked) []byte {
	if len(t) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&t[0])), len(t)*int(unsafe.Sizeof(Ranked{})))
}

// WireOrder converts table bytes between host memory order and wire order
// in place. Every field of an entry is a 32-bit word, so it is a no-op on
// little-endian hosts and a per-word byte swap on big-endian ones.
func WireOrder(b []byte) {
	if !hostBigEndian {
		return
	}
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// Layout returns the snapshot's partition layout; callers must not modify
// it.
func (sn *Snapshot) Layout() *Layout { return sn.lay }

// RowTable returns row i of the snapshot's layout (Layout.RowLen(i)
// entries, best first): segment i's head, or past the segments a tail. The
// slice is immutable; callers must not modify it.
func (sn *Snapshot) RowTable(i int) []Ranked { return sn.rows[i] }

// ChangedSince lists, ascending, the rows re-ranked after the given epoch —
// what a delta patching a snapshot of that epoch (same layout, same
// lineage) must carry.
func (sn *Snapshot) ChangedSince(epoch uint64) []int32 {
	var rows []int32
	for i, e := range sn.rowEpoch {
		if e > epoch {
			rows = append(rows, int32(i))
		}
	}
	return rows
}

// CANSTables returns the snapshot's precomputed ClientAwareNS candidate
// lists keyed by resolver slot, or nil for other policies. Callers must
// not modify the map or the tables.
func (sn *Snapshot) CANSTables() map[int32][]Ranked { return sn.cans }

// ArenaChainLen returns the length of the snapshot's arena chain (1 for a
// freshly built or decoded snapshot; grows with incremental builds and
// delta applies until compaction).
func (sn *Snapshot) ArenaChainLen() int { return sn.chain }

// LayoutFingerprint returns a hash of the snapshot's partition layout —
// exactly what a full wire image carries of it: the index, the
// partition→table map, tail sharing and row geometry, but not the row
// contents. Two processes that built their layouts from the same world,
// platform and config agree on it; the wire protocol uses it to negotiate
// deltas (which only make sense against an identical layout) and to reject
// snapshots built for a different universe.
func (sn *Snapshot) LayoutFingerprint() uint64 { return sn.lay.fingerprint() }

// fingerprint lazily computes and caches the layout hash. Layouts are
// immutable after buildLayout, so computing once is safe; snapshots share
// the layout, so every epoch pays nothing after the first call.
func (lay *Layout) fingerprint() uint64 {
	lay.fpOnce.Do(func() {
		h := uint64(fnvOffset64)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= fnvPrime64
			}
		}
		mixAll := func(vs []int32) {
			mix(uint64(len(vs)))
			for _, v := range vs {
				mix(uint64(uint32(v)))
			}
		}
		ix := lay.Index
		mix(uint64(lay.NParts))
		mix(uint64(lay.TableLen))
		mix(uint64(lay.TailLen))
		mix(uint64(uint32(lay.FallbackLDNS)))
		mix(uint64(uint32(lay.FallbackClient)))
		mixAll(ix.V4.Part)
		for i, k := range ix.V4.Keys {
			mix(uint64(k)<<32 | uint64(ix.V4.Rank[i]))
		}
		mixAll(ix.V6.Part)
		for i, k := range ix.V6.Keys {
			mix(k)
			mix(uint64(ix.V6.Rank[i]))
		}
		mixAll(ix.ResolverPart)
		for _, a := range ix.Resolvers {
			mix(a[0])
			mix(a[1])
		}
		mixAll(lay.PartSeg)
		mixAll(lay.SegTail)
		mixAll(lay.TailSeg)
		lay.fp = h
	})
	return lay.fp
}

// NewSnapshot assembles a snapshot of the given lineage over one base arena
// holding every row of the layout back to back — segment heads, then tails
// — each stamped as ranked at this epoch. Full builds and the wire decoder
// both end here; the decoder is responsible for validating that every index
// in lay and every Dep in arena and cans is in range, and that every tail
// ranks every deployment — NewSnapshot trusts its input and keeps arena as
// given.
func NewSnapshot(lineage, epoch uint64, policy Policy, ttl time.Duration, lay *Layout,
	p *cdn.Platform, arena []Ranked, cans map[int32][]Ranked) *Snapshot {

	sn := &Snapshot{
		epoch: epoch, lineage: lineage, policy: policy, ttl: ttl, lay: lay, deps: p.Deployments,
		rows:     make([][]Ranked, lay.Rows()),
		rowEpoch: make([]uint64, lay.Rows()),
		chain:    1,
		cans:     cans,
	}
	sn.layOut(arena)
	for i := range sn.rowEpoch {
		sn.rowEpoch[i] = epoch
	}
	return sn
}

// layOut points every row at its window of a base arena.
func (sn *Snapshot) layOut(arena []Ranked) {
	off := 0
	for i := range sn.rows {
		end := off + sn.lay.RowLen(i)
		sn.rows[i] = arena[off:end:end]
		off = end
	}
}

// WithDeltaRows derives a new snapshot of sn's lineage from sn by replacing
// the given rows (ascending) with fresh ones: delta holds them back to
// back, in rows order, each at its layout length, and is kept as given. It
// is the builder's incremental path and the replica's delta apply alike.
// The layout is shared; the delta rides as a new arena until the chain
// would exceed maxArenaChain or the accumulated delta data would outweigh
// the base arena, at which point the result is compacted into one fresh
// base arena — so memory stays bounded however many deltas are applied.
// The result never carries CANS tables (the builder recomputes them, the
// encoder refuses deltas for CANS snapshots).
func (sn *Snapshot) WithDeltaRows(epoch uint64, policy Policy,
	ttl time.Duration, rows []int32, delta []Ranked) *Snapshot {

	out := *sn
	out.epoch, out.policy, out.ttl, out.cans = epoch, policy, ttl, nil
	out.rows = append([][]Ranked(nil), sn.rows...)
	out.rowEpoch = append([]uint64(nil), sn.rowEpoch...)
	off := 0
	for _, i := range rows {
		end := off + sn.lay.RowLen(int(i))
		out.rows[i] = delta[off:end:end]
		out.rowEpoch[i] = epoch
		off = end
	}
	out.chain++
	out.deltaEntries += len(delta)
	if out.chain > maxArenaChain || out.deltaEntries > sn.lay.ArenaLen() {
		current := out.rows
		out.rows = make([][]Ranked, len(current))
		out.layOut(make([]Ranked, sn.lay.ArenaLen()))
		for i, t := range current {
			copy(out.rows[i], t)
		}
		out.chain, out.deltaEntries = 1, 0
	}
	return &out
}

// BootstrapReplica rewinds a system NewSystem made to replica state: it
// installs, as epoch 0 of a fresh lineage, a map holding nothing but the
// two shared fallback tables, rewinds the epoch counter, and releases
// everything a local build left in the builder and the scorer, discarding
// the map. The first snapshot fetched from a publisher is of the
// publisher's lineage, so Install takes it whatever its epoch. No builder
// ever emits epoch 0, so the serving plane treats it as the degradation
// ladder's fallback rung (or worse, by age) until the first Install. A
// replica NewReplica made has no builder and never serves epoch 0.
func (s *System) BootstrapReplica() {
	s.snap.Store(s.builder.bootSnapshot(s.DesiredPolicy()))
	s.epoch.Store(0)
	s.publishedAt.Store(time.Now().UnixNano())
}
