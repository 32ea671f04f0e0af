package mapping

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"time"
	"unsafe"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/netmodel"
	"eum/internal/par"
	"eum/internal/world"
)

// Reserved endpoint IDs for the shared fallback rank tables. World IDs are
// allocated from a small counter, so the top of the ID space is free.
const (
	fallbackLDNSID   = ^uint64(0)
	fallbackClientID = ^uint64(0) - 1
)

// Snapshot is one published map: an immutable, epoch-numbered set of rank
// tables covering every endpoint the data plane can be asked about, plus
// the policy and TTL the map was built under. The control plane (the
// MapMaker) builds snapshots in the background and installs them with a
// single atomic pointer swap; the query hot path only ever reads the
// currently installed snapshot — it never computes scores, takes locks, or
// invalidates anything.
//
// Storage is partitioned, interned and two-level: endpoints are clustered
// into mapping partitions (see buildLayout), partitions whose measurements
// resolve to the same ping target share one segment, and a segment stores
// only the head of its ranking — the tail, a ranking of every deployment,
// is shared by all segments of one region (see Row). A row is an order: it
// keeps its deployments as uint16 indexes in a pointer-free arena column,
// and only a head keeps their scores beside them, for the load-aware pick
// (see arena). The index from client leaf or resolver address to table is
// sorted flat arrays (see Index), so resident memory per block is a few
// bytes.
//
// This is the paper's two-plane architecture (§3–§5): topology discovery
// and scoring feed a map-making pipeline that publishes maps on a cadence,
// and the authoritative name servers serve whichever map is current.
type Snapshot struct {
	epoch uint64
	// lineage names the run of builds the snapshot descends from: every
	// snapshot one builder derives from its predecessors carries the
	// builder's lineage, and epochs order snapshots only within one.
	lineage uint64
	policy  Policy
	ttl     time.Duration

	// lay is the layout (index + table→tail map), shared across every
	// snapshot built for the same endpoint universe.
	lay *Layout
	// deps is the platform's deployment list, which the rows index.
	deps []*cdn.Deployment
	// arenas is the chain the rows lie in: first the base a full build, a
	// decode or a compaction laid out (every row in order), then the small
	// delta arenas incremental builds and delta applies add for the rows
	// they re-ranked. Superseded rows stay resident while their arena is in
	// the chain, so a build or delta apply that would take it past
	// maxArenaChain, or the deltas past the base's own size, compacts into
	// one fresh base instead.
	arenas []arena
	// rows[i] locates row i of the layout — segment heads, then tails —
	// ordered best (lowest ping) first. rowEpoch[i] is the epoch whose
	// build last re-ranked row i, which is how a delta against any older
	// epoch knows what to carry. A republish that changed nothing shares
	// both slices wholesale.
	rows     []rowAt
	rowEpoch []uint64
}

// arena holds rows back to back as two columns: order, the deployment
// indexes of every row, best first, and scores, those of the heads among
// them as float32 (see putRow). Its rows are in ascending row order, so its
// heads come first, and a head's scores start at the same offset in scores
// as its indexes in order.
type arena struct {
	order  []uint16
	scores []float32
}

// rowAt locates a row: the arena in the chain it lies in, and the offset of
// its first entry there — in order, and for a head in scores too.
type rowAt struct{ arena, off uint32 }

// Row is a candidate list in its two stored levels, as ClientRow and
// ResolverRow return it for what a query carries: Head, the best few
// deployments of its table's own ranking, with Scores[k] Head[k]'s score
// (ping milliseconds, rounded to float32), and Tail, a ranking of every
// deployment that the table's whole region shares, which keeps the order
// alone. Deployments are indexes into the platform's
// Deployments list. Candidates are tried head first, then tail (see
// lists). The slices are immutable; callers must not modify them.
type Row struct {
	Head   []uint16
	Scores []float32
	Tail   []uint16
}

// Len returns the number of distinct candidates in the row.
func (r Row) Len() int { return max(len(r.Head), len(r.Tail)) }

// lists returns the row's candidates in pick order: the head, then the
// tail — left out when the head is as long, for it then holds every
// deployment already. The tail ranks every deployment, the head's among
// them, so a walk to the end meets those twice; a pick passes over a
// candidate for being dead or saturated, which it still is the second
// time, so picks do not look for the repetition.
func (r Row) lists() [2][]uint16 {
	if len(r.Head) >= len(r.Tail) {
		return [2][]uint16{r.Head}
	}
	return [2][]uint16{r.Head, r.Tail}
}

// Walk calls visit for each distinct candidate in pick order, with its
// position and deployment index, until visit returns false: lists with the
// tail's repetitions of the head dropped, so the walk reaches each
// deployment exactly once. It is the view experiments and tests measure
// positions on, and allocates once it leaves the head.
func (r Row) Walk(visit func(pos int, dep uint16) bool) {
	lists := r.lists()
	for i, c := range lists[0] {
		if !visit(i, c) {
			return
		}
	}
	if lists[1] == nil {
		return
	}
	held := make([]bool, len(lists[1]))
	for _, c := range lists[0] {
		held[c] = true
	}
	pos := len(lists[0])
	for _, c := range lists[1] {
		if held[c] {
			continue
		}
		if !visit(pos, c) {
			return
		}
		pos++
	}
}

// Epoch returns the snapshot's publication number. Epochs are strictly
// increasing within a lineage.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Lineage returns the non-zero random number naming the run of builds the
// snapshot descends from. Epochs order snapshots only within a lineage: a
// restarted builder draws a new one, so its epochs, which start again at
// 1, are never mistaken for its predecessor's.
func (sn *Snapshot) Lineage() uint64 { return sn.lineage }

// Policy returns the routing policy the snapshot was built under.
func (sn *Snapshot) Policy() Policy { return sn.policy }

// TTL returns the answer TTL the snapshot carries.
func (sn *Snapshot) TTL() time.Duration { return sn.ttl }

// Tables returns the number of distinct rank tables (arena segments) in
// the snapshot. Interning keeps this bounded by the ping-target set, not
// the endpoint count.
func (sn *Snapshot) Tables() int { return sn.lay.Tables() }

// Partitions returns the number of mapping partitions the endpoint
// universe was clustered into (excluding the two fallback partitions).
func (sn *Snapshot) Partitions() int { return sn.lay.NParts }

// Endpoints returns how many endpoints — client leaves and resolvers — the
// snapshot's index holds.
func (sn *Snapshot) Endpoints() int { return sn.lay.Index.Len() }

// MemoryBytes returns the resident size of the snapshot's table storage,
// the capacity of every array it holds times its element size: both
// columns of every arena in the chain — superseded rows in older arenas
// included, which stay resident until compaction drops them — the chain
// itself, the per-row locations and epochs, and the table→tail map. The
// index is System.IndexBytes'.
func (sn *Snapshot) MemoryBytes() uint64 {
	n := sn.lay.memoryBytes() +
		uint64(cap(sn.arenas))*uint64(unsafe.Sizeof(arena{})) +
		uint64(cap(sn.rows))*uint64(unsafe.Sizeof(rowAt{})) +
		uint64(cap(sn.rowEpoch))*uint64(unsafe.Sizeof(uint64(0)))
	for _, a := range sn.arenas {
		n += uint64(cap(a.order))*uint64(unsafe.Sizeof(uint16(0))) +
			uint64(cap(a.scores))*uint64(unsafe.Sizeof(float32(0)))
	}
	return n
}

// row returns table t's candidates.
func (sn *Snapshot) row(t int32) Row {
	return Row{Head: sn.RowOrder(int(t)), Scores: sn.HeadScores(int(t)), Tail: sn.RowOrder(sn.lay.Tables() + int(sn.lay.SegTail[t]))}
}

// fallbackRow returns the shared candidates for endpoints the map does not
// cover; client selects the client-side fallback (access network, client
// fallback location) over the resolver-side one. Its tail is the fallback
// endpoint's own ranking, so the whole row is.
func (sn *Snapshot) fallbackRow(client bool) Row {
	if client {
		return sn.row(sn.lay.FallbackClient)
	}
	return sn.row(sn.lay.FallbackLDNS)
}

// ClientRow returns the candidates for a client prefix — the row of the
// highest-demand known block inside p, or of the one leaf holding p when p
// is no coarser than a leaf — and whether the map covers any; when it does
// not, the row is the client fallback row.
func (sn *Snapshot) ClientRow(p netip.Prefix) (Row, bool) {
	if t, ok := sn.lay.Index.client(p); ok {
		return sn.row(t), true
	}
	return sn.fallbackRow(true), false
}

// ResolverRow returns the candidates for a resolver address and whether
// the map covers it; when it does not, the row is the resolver fallback
// row.
func (sn *Snapshot) ResolverRow(addr netip.Addr) (Row, bool) {
	if slot, ok := sn.lay.Index.resolver(addr); ok {
		return sn.row(sn.lay.Index.ResolverTable.At(slot)), true
	}
	return sn.fallbackRow(false), false
}

// FirstLive returns the first deployment in a row of this snapshot
// (ClientRow, ResolverRow) that is live right now, or nil when none is.
// Liveness is read at call time, so a snapshot built before a failure
// still routes around it.
func (sn *Snapshot) FirstLive(row Row) *cdn.Deployment {
	for _, list := range row.lists() {
		for _, c := range list {
			if d := sn.deps[c]; d.Alive() {
				return d
			}
		}
	}
	return nil
}

// Deployments returns the roster this snapshot's rows index: row entry c
// names Deployments()[c]. The slice is shared; callers must not modify it.
func (sn *Snapshot) Deployments() []*cdn.Deployment { return sn.deps }

// SnapshotBuilder assembles snapshots. It is the control plane's compute
// stage: it owns a Scorer (measurement + clustering) and, per Build,
// produces a complete immutable map for one (epoch, policy) pair. The same
// builder is reused across epochs so the partition layout, the scorer's
// clustering index and the previous snapshot persist — builds are
// incremental: only partitions whose ping targets were marked dirty since
// the last build are re-ranked, untouched table segments are shared with
// the previous snapshot. Tables are ranked straight into the arena that is
// published, so the published snapshot is the only copy of the map the
// process holds.
//
// A builder is safe for concurrent use; builds serialize on an internal
// mutex. The intended use is a single MapMaker goroutine building
// sequentially.
type SnapshotBuilder struct {
	world          *world.World
	scorer         *Scorer
	ttl            time.Duration
	partitionMiles float64

	mu sync.Mutex
	// lineage stamps every snapshot this builder makes; it is redrawn
	// whenever the builder forgets its previous snapshot (bootSnapshot).
	lineage uint64
	lay     *Layout
	// segs are what lay's tables are ranked from, one per table, and
	// tailSeg the table whose segment ranks each tail: serving never reads
	// them, so they stay here and never travel.
	segs    []segment
	tailSeg []int32
	prev    *Snapshot

	stats BuildStats

	// dirtyMu guards the measurement dirty set: the ping targets (by index)
	// whose tables the next Build must re-rank, or dirtyAll for every table.
	// It is the only record of what is stale. Its own lock, not mu, so a
	// mark never waits behind a running build; Build claims the set when it
	// starts, so a mark that lands mid-build is kept for the next one.
	dirtyMu      sync.Mutex
	dirtyAll     bool
	dirtyTargets map[int]struct{}
}

// BuildStats reports how a builder has been working: full builds (every
// row ranked), incremental builds (previous arena reused), and the total
// number of tables (segment heads) and of tails ranked across all builds.
// The incremental-build regression test pins "one dirty target re-ranks
// exactly its own tables" on these counters.
type BuildStats struct {
	Full, Incremental, RerankedTables, RerankedTails uint64
}

// NewSnapshotBuilder creates a standalone builder over the world and
// platform, applying the same Config defaults as NewSystem. Experiments
// that evaluate policies without a full System (e.g. the Fig 25 deployment
// sweep) use this directly.
func NewSnapshotBuilder(w *world.World, p *cdn.Platform, net Prober, cfg Config) *SnapshotBuilder {
	cfg = withDefaults(cfg)
	return newSnapshotBuilder(w, NewScorer(w, p, net, cfg.PingTargets), cfg)
}

// newSnapshotBuilder wires a builder around an existing scorer; cfg must
// already have defaults applied. It panics on a platform of more than
// MaxDeployments deployments, which its rows could not index.
func newSnapshotBuilder(w *world.World, scorer *Scorer, cfg Config) *SnapshotBuilder {
	if n := len(scorer.Platform().Deployments); n > MaxDeployments {
		panic(fmt.Sprintf("mapping: %d deployments, but a row indexes at most %d", n, MaxDeployments))
	}
	return &SnapshotBuilder{
		world:          w,
		scorer:         scorer,
		ttl:            cfg.TTL,
		partitionMiles: cfg.PartitionMiles,
		lineage:        newLineage(),
		dirtyAll:       true,
		dirtyTargets:   map[int]struct{}{},
	}
}

// newLineage draws a lineage: random, so a restarted builder does not reuse
// its predecessor's, and odd, so never zero.
func newLineage() uint64 { return rand.Uint64() | 1 }

// Scorer returns the builder's scoring stage (to share with a System, or
// to ask which ping target stands in for an endpoint).
func (b *SnapshotBuilder) Scorer() *Scorer { return b.scorer }

// MarkMeasurementsDirty records which ping targets' measurements changed,
// so the next Build re-ranks only the partitions interned onto those
// targets; marks accumulate until a Build claims them. Called with no IDs
// — or with an ID that is not a ping target, or when clustering is off —
// it marks every table dirty. It never waits for a running build, and it
// empties the scorer's memo of best deployments (Scorer.Invalidate).
func (b *SnapshotBuilder) MarkMeasurementsDirty(targetIDs ...uint64) {
	b.scorer.Invalidate()
	idxs := make([]int, 0, len(targetIDs))
	for _, id := range targetIDs {
		i, ok := b.scorer.TargetIndex(id)
		if !ok {
			idxs = idxs[:0]
			break
		}
		idxs = append(idxs, i)
	}
	b.dirtyMu.Lock()
	defer b.dirtyMu.Unlock()
	if len(idxs) == 0 {
		b.dirtyAll = true
		return
	}
	for _, i := range idxs {
		b.dirtyTargets[i] = struct{}{}
	}
}

// markAllDirty makes the next Build re-rank every table.
func (b *SnapshotBuilder) markAllDirty() {
	b.dirtyMu.Lock()
	b.dirtyAll = true
	b.dirtyMu.Unlock()
}

// BuildStats returns the builder's counters.
func (b *SnapshotBuilder) BuildStats() BuildStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// fallbackLoc locates everything the map was not built for, such as a lab
// resolver the system has never measured: New York.
var fallbackLoc = geo.Point{Lat: 40.71, Lon: -74.01}

// fallbackEndpoints returns the two synthetic endpoints standing in for
// anything the map was not built for. All unknowns share them (and hence
// one rank table per kind), anchored at fallbackLoc.
func fallbackEndpoints() (ldns, client netmodel.Endpoint) {
	ldns = netmodel.Endpoint{ID: fallbackLDNSID, Loc: fallbackLoc, Access: netmodel.AccessBackbone}
	client = netmodel.Endpoint{ID: fallbackClientID, Loc: fallbackLoc, Access: netmodel.AccessCable}
	return ldns, client
}

// layoutLocked returns the cached layout, computing it (and the segments
// its tables and tails are ranked from) on first use. The layout depends only
// on the endpoint universe — every world LDNS and client block — the
// partitioning threshold and the (fixed) ping-target set, never on
// measurements, so it survives every invalidation.
func (b *SnapshotBuilder) layoutLocked() *Layout {
	if b.lay != nil {
		return b.lay
	}
	lay, segs, tailSeg, assign := b.partition()
	lay.Index = buildIndex(b.world, assign, lay.Tables())
	b.lay, b.segs, b.tailSeg = lay, segs, tailSeg
	return lay
}

// partition lays out the builder's endpoint universe (see buildLayout).
func (b *SnapshotBuilder) partition() (*Layout, []segment, []int32, []int32) {
	fLDNS, fClient := fallbackEndpoints()
	return buildLayout(b.universe(), fLDNS, fClient, b.partitionMiles, b.scorer)
}

// universe lists the builder's endpoints: every world LDNS, then every
// client block, in world order.
func (b *SnapshotBuilder) universe() []netmodel.Endpoint {
	w := b.world
	universe := make([]netmodel.Endpoint, 0, len(w.LDNSes)+len(w.Blocks))
	for _, l := range w.LDNSes {
		universe = append(universe, l.Endpoint())
	}
	for _, blk := range w.Blocks {
		universe = append(universe, blk.Endpoint())
	}
	return universe
}

// fillRows ranks the given rows of lay, whose tables are ranked from segs
// and whose tails from the tables tailSeg names, into the columns of an arena (see arena), where they lie back to back in
// that order: ascending, heads before tails, and every tail after the head
// of the segment that ranks it. order takes every row's deployment indexes
// and scores the heads' scores. A segment that ranks a tail, or whose
// prober has no row form, is scored once for every deployment into the
// worker's scratch, and from the scores its tail, if any, is sorted and its
// head selected. Any other head — nearly all of them — measures only the
// deployments that could enter it (headInto), with the same bits. A row is
// ranked in float64 Ranked entries, and written out once it is whole.
func (b *SnapshotBuilder) fillRows(lay *Layout, segs []segment, tailSeg, rows []int32, order []uint16, scores []float32) {
	nSegs := lay.Tables()
	offs := make([]int, len(rows)+1)
	tailAt := map[int32]int{} // segment → where in rows the tail it ranks lies
	for k, i := range rows {
		offs[k+1] = offs[k] + lay.RowLen(int(i))
		if int(i) >= nSegs {
			tailAt[tailSeg[int(i)-nSegs]] = k
		}
	}
	par.MapShards(len(rows)-len(tailAt), func(_, lo, hi int) struct{} {
		scratch, pings := make([]Ranked, lay.TailLen), make([]float64, lay.TailLen)
		head := make([]Ranked, lay.TableLen)
		var heads *headScratch
		if b.scorer.rows != nil {
			heads = b.scorer.newHeadScratch(lay.TableLen)
		}
		for k := lo; k < hi; k++ {
			s := rows[k]
			t, ranksTail := tailAt[s]
			ranked := head
			switch proxy := b.scorer.segProxy(segs[s]); {
			case !ranksTail && heads != nil:
				b.scorer.headInto(head, proxy, heads)
			case ranksTail:
				b.scorer.scoreInto(scratch, pings, proxy)
				bestInto(scratch, scratch)
				putRow(order[offs[t]:offs[t+1]], nil, scratch)
				ranked = scratch[:lay.TableLen]
			default:
				b.scorer.scoreInto(scratch, pings, proxy)
				bestInto(head, scratch)
			}
			putRow(order[offs[k]:offs[k+1]], scores[offs[k]:offs[k+1]], ranked)
		}
		return struct{}{}
	})
}

// putRow writes a ranking out as columns: every deployment index into order
// and, for a head, every score into scores. The builder ranks in float64;
// a head keeps each score as the nearest float32, which the load-aware
// pick, the one reader of a score, needs no closer.
func putRow(order []uint16, scores []float32, ranked []Ranked) {
	for k, r := range ranked {
		order[k] = uint16(r.Dep)
	}
	for k := range scores {
		scores[k] = float32(ranked[k].Score)
	}
}

// upTo lists 0..n-1: every segment, or every row, of a layout.
func upTo(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// bootSnapshot returns the epoch-0 map a system rewound to replica state
// (BootstrapReplica) serves until its first install: a layout with no
// partitions, so every endpoint resolves to the
// two shared fallback rows — the degradation ladder's fallback rung. It
// also forgets whatever a local build left behind (layout, previous
// snapshot, scorer memos), and with it the lineage: a
// replica holds the one map it installed and nothing else.
func (b *SnapshotBuilder) bootSnapshot(policy Policy) *Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lay, b.segs, b.tailSeg, b.prev = nil, nil, nil, nil
	b.lineage = newLineage()
	b.markAllDirty()
	b.scorer.Invalidate()

	fLDNS, fClient := fallbackEndpoints()
	lay, segs, tailSeg, _ := buildLayout(nil, fLDNS, fClient, b.partitionMiles, b.scorer)
	order, scores := lay.columns(lay.Rows(), lay.Tables())
	b.fillRows(lay, segs, tailSeg, upTo(lay.Rows()), order, scores)
	return NewSnapshot(b.lineage, 0, policy, b.ttl, lay, b.scorer.Platform(), order, scores)
}

// maxArenaChain bounds the delta-arena chain incremental builds and delta
// applies may grow. At the cap — or as soon as the accumulated delta data
// would outweigh the base arena — the snapshot compacts: every row is
// copied into one fresh base arena, dropping the
// superseded garbage the deltas accumulated. The size trigger keeps the
// worst-case resident overhead at 2× the base; the length cap bounds the
// amortized compaction cost for tiny (one-target) refreshes at
// base/maxArenaChain copied bytes per build.
const maxArenaChain = 64

// Build produces the snapshot for one epoch under the given policy. The
// endpoint universe is every world LDNS, every client block, and the two
// fallbacks. The result is a pure function of
// (world, platform liveness, measurements, policy) — par fan-out inside is
// index-deterministic — so simulation epochs are reproducible regardless
// of worker count.
//
// Builds are incremental: when the previous snapshot's layout is current
// and only specific ping targets were marked dirty, the build ranks just
// their segments' heads, and the tails those segments rank, into a small
// delta arena (in parallel, across disjoint slices) and shares everything
// else with the previous snapshot; when nothing was marked dirty at all,
// the rows are shared wholesale and the build is a near-free epoch bump.
// An unscoped MarkMeasurementsDirty, a layout change or an earlier build's
// panic forces a full re-rank, so an incremental build is always
// bitwise-identical to the cold build at the same epoch. Build claims the
// dirty set when it starts: a mark made while it runs is the next build's.
func (b *SnapshotBuilder) Build(epoch uint64, policy Policy) *Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	// A build that panics mid-way (a crashing prober in chaos tests) has
	// claimed the dirty set but published nothing; poison the next build to
	// a full re-rank so a stale arena can never be shared.
	defer func() {
		if p := recover(); p != nil {
			b.markAllDirty()
			panic(p)
		}
	}()
	b.dirtyMu.Lock()
	dirtyAll, dirtyTargets := b.dirtyAll, b.dirtyTargets
	b.dirtyAll, b.dirtyTargets = false, map[int]struct{}{}
	b.dirtyMu.Unlock()

	lay := b.layoutLocked()
	sc := b.scorer
	nSegs := lay.Tables()
	full := dirtyAll || b.prev == nil || b.prev.lay != lay

	// The rows whose measurements were refreshed: the segments interned onto
	// the dirty ping targets, then the tails those segments rank.
	var dirty, rows []int32
	if full {
		dirty = upTo(nSegs)
	} else {
		for s, seg := range b.segs {
			if _, ok := dirtyTargets[int(seg.target)]; ok {
				dirty = append(dirty, int32(s))
			}
		}
		rows = slices.Clone(dirty)
		for t, src := range b.tailSeg {
			if _, ok := slices.BinarySearch(dirty, src); ok {
				rows = append(rows, int32(nSegs+t))
			}
		}
	}

	var sn *Snapshot
	switch {
	case full:
		order, scores := lay.columns(lay.Rows(), nSegs)
		b.fillRows(lay, b.segs, b.tailSeg, upTo(lay.Rows()), order, scores)
		sn = NewSnapshot(b.lineage, epoch, policy, b.ttl, lay, sc.Platform(), order, scores)
		b.stats.Full++
		b.stats.RerankedTables += uint64(nSegs)
		b.stats.RerankedTails += uint64(lay.Tails)
	case len(rows) == 0:
		// Nothing changed since the last build: share the rows wholesale.
		shared := *b.prev
		shared.epoch, shared.policy = epoch, policy
		sn = &shared
		b.stats.Incremental++
	default:
		order, scores := lay.columns(len(rows), len(dirty))
		b.fillRows(lay, b.segs, b.tailSeg, rows, order, scores)
		sn = b.prev.WithDeltaRows(epoch, policy, b.ttl, rows, order, scores)
		b.stats.Incremental++
		b.stats.RerankedTables += uint64(len(dirty))
		b.stats.RerankedTails += uint64(len(rows) - len(dirty))
	}
	b.prev = sn
	return sn
}
