package mapping

import (
	"slices"
	"time"

	"eum/internal/cdn"
)

// This file is the snapshot's wire-support surface: what internal/mapwire
// needs beyond the exported Layout to serialize a snapshot and to rebuild
// an installable one. A row has one representation — its columns are what
// travels — so there is nothing to translate, only to view.

// Layout returns the snapshot's layout; callers must not modify it.
func (sn *Snapshot) Layout() *Layout { return sn.lay }

// RowOrder returns the deployment indexes of row i of the snapshot's layout
// (Layout.RowLen(i) of them, best first): segment i's head, or past the
// segments a tail. The slice is immutable; callers must not modify it.
func (sn *Snapshot) RowOrder(i int) []uint16 {
	at, n := sn.rows[i], uint32(sn.lay.RowLen(i))
	return sn.arenas[at.arena].order[at.off : at.off+n : at.off+n]
}

// HeadScores returns the scores of head i (i < Tables()), one per entry of
// RowOrder(i). The slice is immutable; callers must not modify it.
func (sn *Snapshot) HeadScores(i int) []float32 {
	at, n := sn.rows[i], uint32(sn.lay.TableLen)
	return sn.arenas[at.arena].scores[at.off : at.off+n : at.off+n]
}

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

// ArenaChainLen returns the length of the snapshot's arena chain (1 for a
// freshly built or decoded snapshot; grows with incremental builds and
// delta applies until compaction).
func (sn *Snapshot) ArenaChainLen() int { return len(sn.arenas) }

// LayoutFingerprint returns a hash of the snapshot's layout — exactly what
// a full wire image carries of it: the index, tail sharing and row
// geometry, but not the row contents. Two processes that built their layouts from the same world,
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
		mix(uint64(lay.Tails))
		mix(uint64(uint32(lay.FallbackLDNS)))
		mix(uint64(uint32(lay.FallbackClient)))
		mixAll(ix.V4.Table)
		for _, k := range ix.V4.Keys { // each leaf's network with its span
			mix(uint64(k))
		}
		mixAll(ix.V6.Table)
		for _, k := range ix.V6.Keys {
			mix(k)
		}
		mixAll(ix.ResolverTable)
		for _, a := range ix.Resolvers {
			mix(a[0])
			mix(a[1])
		}
		mixAll(lay.SegTail)
		lay.fp = h
	})
	return lay.fp
}

// NewSnapshot assembles a snapshot of the given lineage over one base arena
// holding every row of the layout back to back — segment heads, then tails
// — each stamped as ranked at this epoch: order holds every row's
// deployment indexes and scores the heads' scores, in table order. Full
// builds and the wire decoder both end here; the decoder is responsible
// for validating that every index in lay and every deployment index in
// order is in range, that the columns are as long as lay says, and
// that every tail ranks every deployment — NewSnapshot trusts its input and
// keeps the columns as given.
func NewSnapshot(lineage, epoch uint64, policy Policy, ttl time.Duration, lay *Layout,
	p *cdn.Platform, order []uint16, scores []float32) *Snapshot {

	sn := &Snapshot{
		epoch: epoch, lineage: lineage, policy: policy, ttl: ttl, lay: lay, deps: p.Deployments,
		arenas:   []arena{{order, scores}},
		rows:     make([]rowAt, lay.Rows()),
		rowEpoch: make([]uint64, lay.Rows()),
	}
	for i := range sn.rows {
		sn.rows[i] = rowAt{0, uint32(lay.rowOffset(i))}
		sn.rowEpoch[i] = epoch
	}
	return sn
}

// WithDeltaRows derives a new snapshot of sn's lineage from sn by replacing
// the given rows (ascending) with fresh ones, held back to back in rows
// order, each at its layout length, as the columns of one arena: order the
// rows' deployment indexes, scores the scores of the heads among them. It
// is the builder's incremental path and the replica's delta apply alike,
// and keeps the columns as given. The layout is shared; the delta rides as
// a new arena until the chain would exceed maxArenaChain or the
// accumulated delta data would outweigh the base arena, at which point the
// result is compacted into one fresh base arena — so memory stays bounded
// however many deltas are applied.
func (sn *Snapshot) WithDeltaRows(epoch uint64, policy Policy,
	ttl time.Duration, rows []int32, order []uint16, scores []float32) *Snapshot {

	out := *sn
	out.epoch, out.policy, out.ttl = epoch, policy, ttl
	out.arenas = append(slices.Clip(sn.arenas), arena{order, scores})
	out.rows = slices.Clone(sn.rows)
	out.rowEpoch = slices.Clone(sn.rowEpoch)
	at := rowAt{arena: uint32(len(sn.arenas))}
	for _, i := range rows {
		out.rows[i] = at
		out.rowEpoch[i] = epoch
		at.off += uint32(sn.lay.RowLen(int(i)))
	}
	if len(out.arenas) > maxArenaChain || out.deltaEntries() > sn.lay.ArenaLen() {
		out.compact()
	}
	return &out
}

// deltaEntries counts the entries of every arena in the chain but the base.
func (sn *Snapshot) deltaEntries() int {
	n := 0
	for _, a := range sn.arenas[1:] {
		n += len(a.order)
	}
	return n
}

// compact copies every row into one fresh base arena, in layout order, and
// drops the chain. The rows must not be shared with another snapshot.
func (sn *Snapshot) compact() {
	lay := sn.lay
	order, scores := lay.columns(lay.Rows(), lay.Tables())
	for i := range sn.rows {
		off := lay.rowOffset(i)
		copy(order[off:], sn.RowOrder(i))
		if i < lay.Tables() {
			copy(scores[off:], sn.HeadScores(i))
		}
		sn.rows[i] = rowAt{0, uint32(off)}
	}
	sn.arenas = []arena{{order, scores}}
}

// BootstrapReplica rewinds a system NewSystem made to replica state: it
// installs, as epoch 0 of a fresh lineage, a map holding nothing but the
// two shared fallback tables (so the next Rebuild builds epoch 1), and
// releases everything a local build left in the builder and the scorer.
// The first snapshot fetched from a publisher is of the publisher's
// lineage, so Install takes it whatever its epoch. No builder ever emits
// epoch 0, so the serving plane treats it as the degradation ladder's
// fallback rung (or worse, by age) until the first Install. A replica
// NewReplica made has no builder and never serves epoch 0.
func (s *System) BootstrapReplica() {
	s.snap.Store(s.builder.bootSnapshot(s.cfg.Policy))
	s.publishedAt.Store(time.Now().UnixNano())
}
