package mapping

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
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
// is shared by all segments of one region (see Row). Every row is a window
// into a shared, pointer-free []Ranked arena. The index from client leaf
// or resolver address to partition is sorted flat arrays (see Index), so
// resident memory per block is a few bytes.
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

	// lay is the partition layout (index + partition→segment map), shared
	// across every snapshot built for the same endpoint universe.
	lay *Layout
	// deps is the platform's deployment list, which Ranked.Dep indexes.
	deps []*cdn.Deployment
	// rows[i] is row i of the layout — segment heads, then tails — ordered
	// best (lowest ping) first: a window into the base arena a full build
	// or a decode laid out (every row in order), or into one of the small
	// delta arenas incremental builds add for the rows they re-ranked.
	// rowEpoch[i] is the epoch whose build last re-ranked row i, which is
	// how a delta against any older epoch knows what to carry. A republish
	// that changed nothing shares both slices wholesale.
	rows     [][]Ranked
	rowEpoch []uint64
	// chain counts the arenas behind rows and deltaEntries the entries in
	// all but the base: superseded rows stay resident while anything
	// points into their arena, so a build or delta apply that would take
	// the chain past maxArenaChain, or the deltas past the base's own
	// size, compacts into one fresh base arena instead.
	chain        int
	deltaEntries int

	// cans maps a resolver slot (see Index.Resolvers) to the head of its
	// precomputed ClientAwareNS candidate list: the traffic-weighted winner
	// first, then the head of the resolver's own rank table for capacity
	// spill, deduplicated at build time; the walk continues in the
	// resolver's tail. Only populated when the snapshot's policy is
	// ClientAwareNS.
	cans map[int32][]Ranked
}

// Row is a candidate list in its two stored levels, as ClientRow,
// ResolverRow and CANSCandidates return it for what a query carries: Head,
// the best few entries of its partition's own ranking, and Tail, a ranking
// of every deployment that the partition's whole region shares. Candidates
// are tried head first, then tail (see lists). Both slices are immutable;
// callers must not modify them.
type Row struct {
	Head, Tail []Ranked
}

// Len returns the number of distinct candidates in the row.
func (r Row) Len() int { return max(len(r.Head), len(r.Tail)) }

// lists returns the row's candidates in pick order: the head, then the
// tail — left out when the head is as long, for it then holds every
// deployment already. The tail ranks every deployment, the head's among
// them, so a walk to the end meets those twice; a pick passes over a
// candidate for being dead or saturated, which it still is the second
// time, so picks do not look for the repetition.
func (r Row) lists() [2][]Ranked {
	if len(r.Head) >= len(r.Tail) {
		return [2][]Ranked{r.Head}
	}
	return [2][]Ranked{r.Head, r.Tail}
}

// Walk calls visit for each distinct candidate in pick order, with its
// position, until visit returns false: lists with the tail's repetitions
// of the head dropped, so the walk reaches each deployment exactly once.
// It is the view experiments and tests measure positions on, and allocates
// once it leaves the head.
func (r Row) Walk(visit func(pos int, c Ranked) bool) {
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
		held[c.Dep] = true
	}
	pos := len(lists[0])
	for _, c := range lists[1] {
		if held[c.Dep] {
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

// MemoryBytes returns the resident size of the snapshot's table storage:
// the arena chain — heads and tails, superseded rows in older arenas
// included, which stay resident until compaction drops them — plus the
// partition→table and table→tail maps and the per-row headers and epochs.
// The index is System.IndexBytes', and the CANS candidate map
// (ClientAwareNS only) is excluded.
func (sn *Snapshot) MemoryBytes() uint64 {
	entries := uint64(sn.lay.ArenaLen() + sn.deltaEntries)
	return sn.lay.memoryBytes() + entries*uint64(unsafe.Sizeof(Ranked{})) +
		uint64(len(sn.rows))*uint64(unsafe.Sizeof([]Ranked(nil))) +
		uint64(len(sn.rowEpoch))*uint64(unsafe.Sizeof(uint64(0)))
}

// row returns partition p's candidates.
func (sn *Snapshot) row(p int32) Row {
	s := sn.lay.PartSeg[p]
	return Row{Head: sn.rows[s], Tail: sn.rows[sn.lay.Tables()+int(sn.lay.SegTail[s])]}
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
	if part, ok := sn.lay.Index.client(p); ok {
		return sn.row(part), true
	}
	return sn.fallbackRow(true), false
}

// ResolverRow returns the candidates for a resolver address and whether
// the map covers it; when it does not, the row is the resolver fallback
// row.
func (sn *Snapshot) ResolverRow(addr netip.Addr) (Row, bool) {
	if slot, ok := sn.lay.Index.resolver(addr); ok {
		return sn.row(sn.lay.Index.ResolverPart[slot]), true
	}
	return sn.fallbackRow(false), false
}

// FirstLive returns the first deployment in a row of this snapshot
// (ClientRow, ResolverRow, CANSCandidates) that is live right now, with its
// score. Liveness is read at call time, so a snapshot built before a
// failure still routes around it. Past the head the score is the tail's:
// the ping to the endpoint that ranked it.
func (sn *Snapshot) FirstLive(row Row) (*cdn.Deployment, float64) {
	for _, list := range row.lists() {
		for _, c := range list {
			if d := sn.deps[c.Dep]; d.Alive() {
				return d, c.Score()
			}
		}
	}
	return nil, 0
}

// CANSCandidates returns the precomputed ClientAwareNS candidates for a
// resolver address — the winner and the resolver's own head, then its
// tail — or a row with a nil Head when the snapshot has none (wrong
// policy, an unknown resolver, or one with no discovered client blocks).
func (sn *Snapshot) CANSCandidates(addr netip.Addr) Row {
	slot, ok := sn.lay.Index.resolver(addr)
	if !ok || sn.cans[int32(slot)] == nil {
		return Row{}
	}
	return Row{Head: sn.cans[int32(slot)], Tail: sn.row(sn.lay.Index.ResolverPart[slot]).Tail}
}

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
	fallbackLoc    geo.Point
	partitionMiles float64

	mu sync.Mutex
	// lineage stamps every snapshot this builder makes; it is redrawn
	// whenever the builder forgets its previous snapshot (bootSnapshot).
	lineage uint64
	lay     *Layout
	// segs are what lay's tables are ranked from, one per table: serving
	// never reads them, so they stay here and never travel.
	segs []segment
	prev *Snapshot
	// ldnses is the world LDNS in each resolver slot of lay's index, which
	// buildCANS reads the resolver's clients from and System.LDNSEndpoint
	// its endpoint. Like segs it never travels; it is published atomically
	// because LDNSEndpoint reads it on the top level's query path, without
	// the lock. Nil until the first layout and after bootSnapshot.
	ldnses atomic.Pointer[slotLDNSes]

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

// slotLDNSes pairs an index with the world LDNS in each of its resolver
// slots.
type slotLDNSes struct {
	ix     *Index
	ldnses []*world.LDNS
}

// worldLDNS returns the world LDNS at a resolver address of the builder's
// layout, or nil when the builder has laid out no world or the address is
// not one of its resolvers.
func (b *SnapshotBuilder) worldLDNS(addr netip.Addr) *world.LDNS {
	known := b.ldnses.Load()
	if known == nil {
		return nil
	}
	if slot, ok := known.ix.resolver(addr); ok {
		return known.ldnses[slot]
	}
	return nil
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
// already have defaults applied.
func newSnapshotBuilder(w *world.World, scorer *Scorer, cfg Config) *SnapshotBuilder {
	return &SnapshotBuilder{
		world:          w,
		scorer:         scorer,
		ttl:            cfg.TTL,
		fallbackLoc:    cfg.FallbackLoc,
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

// fallbackEndpoints returns the two synthetic endpoints standing in for
// anything the map was not built for. All unknowns share them (and hence
// one rank table per kind), anchored at the configured fallback location.
func fallbackEndpoints(loc geo.Point) (ldns, client netmodel.Endpoint) {
	ldns = netmodel.Endpoint{ID: fallbackLDNSID, Loc: loc, Access: netmodel.AccessBackbone}
	client = netmodel.Endpoint{ID: fallbackClientID, Loc: loc, Access: netmodel.AccessCable}
	return ldns, client
}

// layoutLocked returns the cached partition layout, computing it (and the
// segments its tables are ranked from) on first use. The layout depends only
// on the endpoint universe — every world LDNS and client block — the
// partitioning threshold and the (fixed) ping-target set, never on
// measurements, so it survives every invalidation.
func (b *SnapshotBuilder) layoutLocked() *Layout {
	if b.lay != nil {
		return b.lay
	}
	lay, segs, assign := b.partition()
	ix, ldnses := buildIndex(b.world, assign)
	lay.Index = ix
	b.lay, b.segs = lay, segs
	b.ldnses.Store(&slotLDNSes{ix, ldnses})
	return lay
}

// partition lays out the builder's endpoint universe: every world LDNS,
// then every client block, in world order (see buildLayout).
func (b *SnapshotBuilder) partition() (*Layout, []segment, []int32) {
	w := b.world
	universe := make([]netmodel.Endpoint, 0, len(w.LDNSes)+len(w.Blocks))
	for _, l := range w.LDNSes {
		universe = append(universe, l.Endpoint())
	}
	for _, blk := range w.Blocks {
		universe = append(universe, blk.Endpoint())
	}
	fLDNS, fClient := fallbackEndpoints(b.fallbackLoc)
	return buildLayout(universe, fLDNS, fClient, b.partitionMiles, b.scorer)
}

// fillRows ranks the given rows of lay, whose tables are ranked from segs,
// into arena, where they lie back to back in that order: ascending, heads
// before tails, and every tail after the head of the segment that ranks it.
// A segment that ranks a tail, or whose prober has no row form, is scored
// once for every deployment into the worker's scratch, and from the scores
// its head is selected and its tail, if any, sorted. Any other head —
// nearly all of them — measures only the deployments that could enter it
// (headInto), with the same bits.
func (b *SnapshotBuilder) fillRows(lay *Layout, segs []segment, rows []int32, arena []Ranked) {
	nSegs := lay.Tables()
	offs := make([]int, len(rows)+1)
	tailAt := map[int32]int{} // segment → where in rows the tail it ranks lies
	for k, i := range rows {
		offs[k+1] = offs[k] + lay.RowLen(int(i))
		if int(i) >= nSegs {
			tailAt[lay.TailSeg[int(i)-nSegs]] = k
		}
	}
	par.MapShards(len(rows)-len(tailAt), func(_, lo, hi int) struct{} {
		scratch, pings := make([]Ranked, lay.TailLen), make([]float64, lay.TailLen)
		var heads *headScratch
		if b.scorer.rows != nil {
			heads = b.scorer.newHeadScratch(lay.TableLen)
		}
		for k := lo; k < hi; k++ {
			s := rows[k]
			t, ranksTail := tailAt[s]
			if !ranksTail && heads != nil {
				b.scorer.headInto(arena[offs[k]:offs[k+1]], b.scorer.segProxy(segs[s]), heads)
				continue
			}
			b.scorer.scoreInto(scratch, pings, b.scorer.segProxy(segs[s]))
			bestInto(arena[offs[k]:offs[k+1]], scratch)
			if ranksTail {
				bestInto(arena[offs[t]:offs[t+1]], scratch)
			}
		}
		return struct{}{}
	})
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
	b.lay, b.segs, b.prev = nil, nil, nil
	b.ldnses.Store(nil)
	b.lineage = newLineage()
	b.markAllDirty()
	b.scorer.Invalidate()

	fLDNS, fClient := fallbackEndpoints(b.fallbackLoc)
	lay, segs, _ := buildLayout(nil, fLDNS, fClient, b.partitionMiles, b.scorer)
	arena := make([]Ranked, lay.ArenaLen())
	b.fillRows(lay, segs, upTo(lay.Rows()), arena)
	return NewSnapshot(b.lineage, 0, policy, b.ttl, lay, b.scorer.Platform(), arena, nil)
}

// maxArenaChain bounds the delta-arena chain incremental builds and delta
// applies may grow. At the cap — or as soon as the accumulated delta data
// would outweigh the base arena — the snapshot compacts: every segment's
// current table is copied into one fresh base arena, dropping the
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
		for t, src := range lay.TailSeg {
			if _, ok := slices.BinarySearch(dirty, src); ok {
				rows = append(rows, int32(nSegs+t))
			}
		}
	}

	var sn *Snapshot
	switch {
	case full:
		arena := make([]Ranked, lay.ArenaLen())
		b.fillRows(lay, b.segs, upTo(lay.Rows()), arena)
		sn = NewSnapshot(b.lineage, epoch, policy, b.ttl, lay, sc.Platform(), arena, nil)
		b.stats.Full++
		b.stats.RerankedTables += uint64(nSegs)
		b.stats.RerankedTails += uint64(len(lay.TailSeg))
	case len(rows) == 0:
		// Nothing changed since the last build: share the rows wholesale.
		shared := *b.prev
		shared.epoch, shared.policy, shared.cans = epoch, policy, nil
		sn = &shared
		b.stats.Incremental++
	default:
		entries := 0
		for _, i := range rows {
			entries += lay.RowLen(int(i))
		}
		delta := make([]Ranked, entries)
		b.fillRows(lay, b.segs, rows, delta)
		sn = b.prev.WithDeltaRows(epoch, policy, b.ttl, rows, delta)
		b.stats.Incremental++
		b.stats.RerankedTables += uint64(len(dirty))
		b.stats.RerankedTails += uint64(len(rows) - len(dirty))
	}
	if policy == ClientAwareNS {
		sn.cans = b.buildCANS(sn)
	}
	b.prev = sn
	return sn
}

// buildCANS precomputes the ClientAwareNS candidate list for every
// resolver with discovered client blocks, keyed by its slot: the deployment
// minimising the traffic-weighted mean ping to the LDNS's clients (§6's
// CANS objective) first, then the head of the LDNS's own NS ranking for
// capacity spill — with the winner deduplicated out of the spill list, so
// no deployment appears twice in the candidates handed to the load
// balancer. Past that head the walk continues in the LDNS's tail (see
// CANSCandidates).
func (b *SnapshotBuilder) buildCANS(sn *Snapshot) map[int32][]Ranked {
	ldnses := b.ldnses.Load().ldnses
	sc := b.scorer
	lists := par.Map(len(ldnses), func(i int) []Ranked {
		l := ldnses[i]
		if len(l.Blocks) == 0 {
			return nil
		}
		eps := make([]netmodel.Endpoint, len(l.Blocks))
		weights := make([]float64, len(l.Blocks))
		for j, blk := range l.Blocks {
			eps[j] = blk.Endpoint()
			weights[j] = blk.Demand
		}
		win, score := sc.bestWeighted(eps, weights)
		if win < 0 {
			return nil
		}
		ns := sn.row(sn.lay.Index.ResolverPart[i]).Head
		out := make([]Ranked, 0, len(ns)+1)
		out = append(out, MakeRanked(uint32(win), score))
		for _, r := range ns {
			if r.Dep != uint32(win) {
				out = append(out, r)
			}
		}
		return out
	})
	cans := make(map[int32][]Ranked, len(ldnses))
	for i, list := range lists {
		if list != nil {
			cans[int32(i)] = list
		}
	}
	return cans
}
