package mapping

import (
	"math"
	"sync"
	"unsafe"

	"eum/internal/netmodel"
	"eum/internal/par"
)

// milesPerDegreeLat is a conservative (slightly low) miles-per-degree-of-
// latitude constant. Quantization cells and latitude-band pruning both use
// it as a lower bound on great-circle distance, so rounding down keeps the
// bounds sound.
const milesPerDegreeLat = 69.0

// sigKey is the routing signature partitions cluster on. The network model
// derives path quality from geographic distance, AS crossings and the
// access tier, so endpoints sharing a quantized geo cell, an origin AS and
// an access technology have near-identical measurement vectors — the
// "routing-aware partitioning" observation: such blocks can share one
// server ranking.
type sigKey struct {
	row, col int32
	asn      uint32
	access   netmodel.AccessType
}

// A segment stores the head of its own ranking: the candidates a pick is
// decided among in every steady state. What lies beyond is read only once
// everything nearer is dead or saturated, and neighbouring segments nearly
// agree on it, so it is stored once per region (see tailMiles) instead of
// once per segment. How deep a regional surge spills grows with the
// platform — to about a sixth of it at twice the region's capacity — so
// the head is a share of the platform, 1/headShare, and never fewer than
// rankHead entries: picks inside it are the segment's own ranking exactly,
// and on the 2 642-deployment lab that holds a 2x surge to within a mile
// of the full rows' mapping distance (eumsim -fig rankregret).
const (
	rankHead  = 32
	headShare = 16
)

// tailMiles is the cell size tails are shared at: every segment whose
// measured endpoint falls in the same cell continues its walk in the full
// ranking of the first such endpoint, so a pick past the head lands about
// as far off the segment's own order as the two endpoints are apart. The
// fallback table is the wrong tail — it orders the rest of the platform by
// distance from New York (eumsim -fig rankregret).
const tailMiles = 250

// MaxDeployments is the most deployments a map ranks: a row names each by
// a uint16 index.
const MaxDeployments = math.MaxUint16

// HeadLen returns how many rank entries a segment keeps of its own for a
// platform of the given size; worlds no larger than rankHead have heads
// that are whole rankings.
func HeadLen(deployments int) int { return min(max(rankHead, deployments/headShare), deployments) }

// segment is what the builder ranks one distinct rank table from.
// Partitions whose representatives resolve to the same scorer ping target
// are interned onto one segment; target is the scorer target index ranked
// into the segment, or -1 when clustering is off and rep itself is ranked.
// Serving never reads it, so it stays with the builder (SnapshotBuilder
// .segs) and never travels.
type segment struct {
	target int32
	rep    netmodel.Endpoint
}

// Layout is the partitioner's output: the immutable shape shared by every
// snapshot built until the endpoint universe changes, and no more than
// serving reads. It holds the index (client leaf or resolver address →
// table) and which tail each table continues in. A snapshot stores one row
// per table (segment) — its head, the first TableLen entries of its
// ranking — followed by one row per tail, a ranking of every deployment;
// rows are numbered in that order (see RowLen). Its exported fields are all
// it holds besides the fingerprint cache, and what internal/mapwire writes
// and reads one for one, so a decoded layout is the built one; nothing may
// modify a layout once a snapshot refers to it.
type Layout struct {
	// NParts is how many partitions the universe was clustered into,
	// excluding the two fallbacks: the count Snapshot.Partitions reports.
	// Serving never reads a partition; the index names tables.
	NParts int

	// Index resolves a query's client prefix or resolver address to its
	// table.
	Index *Index

	// FallbackLDNS / FallbackClient are the tables of the two synthetic
	// fallback endpoints.
	FallbackLDNS   int32
	FallbackClient int32

	// SegTail maps table → tail, one entry per table; Tails counts the
	// tails.
	SegTail []int32
	Tails   int

	TableLen int // entries per head = HeadLen(TailLen)
	TailLen  int // entries per tail = len(platform.Deployments)

	// fpOnce/fp cache the layout fingerprint the wire protocol negotiates
	// deltas with (see Snapshot.LayoutFingerprint). Layouts are immutable
	// after buildLayout, so the hash is computed at most once.
	fpOnce sync.Once
	fp     uint64
}

// Tables returns the number of distinct rank tables (segment heads).
func (lay *Layout) Tables() int { return len(lay.SegTail) }

// Rows returns how many rows a snapshot of this layout stores: a head per
// table, then the tails.
func (lay *Layout) Rows() int { return lay.Tables() + lay.Tails }

// RowLen returns the number of entries in row i.
func (lay *Layout) RowLen(i int) int {
	if i < lay.Tables() {
		return lay.TableLen
	}
	return lay.TailLen
}

// rowOffset returns where row i starts in an arena holding every row in
// order.
func (lay *Layout) rowOffset(i int) int {
	heads := min(i, lay.Tables())
	return heads*lay.TableLen + (i-heads)*lay.TailLen
}

// ArenaLen returns the number of entries in all rows together.
func (lay *Layout) ArenaLen() int { return lay.rowOffset(lay.Rows()) }

// columns allocates the two columns of an arena of n rows, the first heads
// of them heads (see arena).
func (lay *Layout) columns(n, heads int) ([]uint16, []float32) {
	return make([]uint16, heads*lay.TableLen+(n-heads)*lay.TailLen), make([]float32, heads*lay.TableLen)
}

// memoryBytes is the resident size of the layout's table→tail map; the
// index is System.IndexBytes'.
func (lay *Layout) memoryBytes() uint64 {
	return uint64(cap(lay.SegTail)) * uint64(unsafe.Sizeof(int32(0)))
}

// signatureFor quantizes an endpoint's routing signature at the given cell
// size in miles. Longitude cells use the same angular width as latitude
// cells, so cells shrink in east-west miles toward the poles — finer, never
// coarser, than the configured similarity threshold.
func signatureFor(ep netmodel.Endpoint, miles float64) sigKey {
	cellDeg := miles / milesPerDegreeLat
	return sigKey{
		row:    int32(math.Floor((ep.Loc.Lat + 90) / cellDeg)),
		col:    int32(math.Floor((ep.Loc.Lon + 180) / cellDeg)),
		asn:    ep.ASN,
		access: ep.Access,
	}
}

// partitionUniverse clusters the endpoint universe into partitions and
// returns the partition of each universe position with the representative
// of each partition: the first member seen, in universe order, so
// deterministic. miles <= 0 selects identity partitioning: every distinct
// endpoint ID is its own partition, which reproduces the pre-partition
// per-endpoint tables exactly (the equivalence property pinned by
// TestPartitionIdentityEquivalence). miles > 0 clusters endpoints by
// routing signature.
func partitionUniverse(universe []netmodel.Endpoint, miles float64) ([]int32, []netmodel.Endpoint) {
	if miles <= 0 {
		return firstSeen(universe, len(universe), func(ep netmodel.Endpoint) uint64 { return ep.ID })
	}
	return firstSeen(universe, len(universe)/4+16, func(ep netmodel.Endpoint) sigKey { return signatureFor(ep, miles) })
}

// firstSeen numbers the distinct keys of the universe's endpoints in the
// order they are first seen, about hint of them, and returns each
// position's number with the endpoint each number was first seen at.
func firstSeen[K comparable](universe []netmodel.Endpoint, hint int, key func(netmodel.Endpoint) K) ([]int32, []netmodel.Endpoint) {
	assign := make([]int32, len(universe))
	var reps []netmodel.Endpoint
	seen := make(map[K]int32, hint)
	for i, ep := range universe {
		k := key(ep)
		p, ok := seen[k]
		if !ok {
			p = int32(len(reps))
			seen[k] = p
			reps = append(reps, ep)
		}
		assign[i] = p
	}
	return assign, reps
}

// buildLayout partitions the endpoint universe (partitionUniverse), interns
// the partitions onto tables and returns the layout with the segments its
// tables are ranked from, the table whose segment ranks each tail, and the
// table of each universe position, which the index is made from.
func buildLayout(universe []netmodel.Endpoint, fLDNS, fClient netmodel.Endpoint,
	miles float64, sc *Scorer) (lay *Layout, segs []segment, tailSeg, assign []int32) {

	nDeps := len(sc.platform.Deployments)
	lay = &Layout{Index: &Index{}, TableLen: HeadLen(nDeps), TailLen: nDeps}
	assign, reps := partitionUniverse(universe, miles)
	lay.NParts = len(reps)

	// The two fallback partitions ride at the end; their synthetic IDs (top
	// of the uint64 space) never enter the index.
	reps = append(reps, fLDNS, fClient)

	// Intern partitions onto segments. With clustering on, partitions
	// resolving to the same ping target share one table, so the arena is
	// bounded by the distinct targets in use — not by the partition count;
	// with clustering off each partition ranks its own representative.
	// Serving needs only the table, so every position is rewritten to it.
	partSeg := make([]int32, len(reps))
	if sc.Targeted() {
		tIdx := par.Map(len(reps), func(i int) int { return sc.nearestTarget(reps[i]) })
		byTarget := make(map[int32]int32, 64)
		for p, rep := range reps {
			t := int32(tIdx[p])
			s, ok := byTarget[t]
			if !ok {
				s = int32(len(segs))
				byTarget[t] = s
				segs = append(segs, segment{target: t, rep: rep})
			}
			partSeg[p] = s
		}
	} else {
		for p, rep := range reps {
			segs = append(segs, segment{target: -1, rep: rep})
			partSeg[p] = int32(p)
		}
	}
	for i, p := range assign {
		assign[i] = partSeg[p]
	}
	lay.FallbackLDNS, lay.FallbackClient = partSeg[lay.NParts], partSeg[lay.NParts+1]

	// Tails. Segments share the tail of their measured endpoint's cell —
	// geography alone, since beyond the head AS and access tier no longer
	// tell rankings apart. The fallback segments get tails of their own, so
	// a fallback row is the fallback endpoint's exact ranking from first
	// entry to last.
	lay.SegTail = make([]int32, len(segs))
	byCell := make(map[sigKey]int32, 64)
	for s, seg := range segs {
		cell := signatureFor(sc.segProxy(seg), tailMiles)
		cell.asn, cell.access = 0, 0
		t, shared := byCell[cell]
		fallback := int32(s) == lay.FallbackLDNS || int32(s) == lay.FallbackClient
		if fallback || !shared {
			t = int32(len(tailSeg))
			tailSeg = append(tailSeg, int32(s))
			if !fallback {
				byCell[cell] = t
			}
		}
		lay.SegTail[s] = t
	}
	lay.Tails = len(tailSeg)
	return lay, segs, tailSeg, assign
}
