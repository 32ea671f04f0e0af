package mapping

import (
	"math"
	"sort"
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

// HeadLen returns how many rank entries a segment keeps of its own for a
// platform of the given size; worlds no larger than rankHead have heads
// that are whole rankings.
func HeadLen(deployments int) int { return min(max(rankHead, deployments/headShare), deployments) }

// Segment describes one distinct rank table (an arena segment).
// Partitions whose representatives resolve to the same scorer ping target
// are interned onto one segment; Target is the scorer target index ranked
// into the segment, or -1 when clustering is off and Rep itself is ranked.
type Segment struct {
	Target int32
	Rep    netmodel.Endpoint
}

// Layout is the partitioner's output: the immutable shape shared by every
// snapshot built until the endpoint universe changes. It holds the
// block→partition index (dense array for the world's compact ID space,
// sorted spill arrays for hashed IDs), the per-partition table headers, the
// interned segment list and the tails the segments share. A snapshot
// stores one row per segment — its head, the first TableLen entries of its
// ranking — followed by one row per tail, a ranking of every deployment;
// rows are numbered in that order (see RowLen). The fields are exported
// because internal/mapwire writes and reads them one for one; nothing may
// modify a layout once a snapshot refers to it.
type Layout struct {
	NParts int // universe partitions, excluding the two fallbacks

	// Endpoint-ID → partition. IDs below len(Dense) index the dense array
	// (-1 = unknown); larger (hashed) IDs binary-search the spill arrays.
	Dense    []int32
	SpillIDs []uint64
	SpillIdx []int32

	// FallbackLDNS / FallbackClient are the partition indexes of the two
	// synthetic fallback endpoints (always the last two partitions).
	FallbackLDNS   int32
	FallbackClient int32

	// PartSeg maps partition → arena segment (4 bytes per partition;
	// partitions interned onto the same ping target share a segment).
	PartSeg []int32

	// Segments are the distinct rank tables.
	Segments []Segment

	// SegTail maps segment → tail, and TailSeg tail → the segment whose
	// measured endpoint ranks it: the first segment seen in the tail's cell,
	// or the fallback segment a tail was made for.
	SegTail []int32
	TailSeg []int32

	TableLen  int // entries per head = HeadLen(TailLen)
	TailLen   int // entries per tail = len(platform.Deployments)
	Endpoints int // universe endpoints indexed (dense + spill entries)

	// targetSeg inverts the interning (scorer target index → segment) for
	// incremental re-ranks; only layouts a builder made carry it.
	targetSeg map[int32]int32

	// fpOnce/fp cache the layout fingerprint the wire protocol negotiates
	// deltas with (see Snapshot.LayoutFingerprint). Layouts are immutable
	// after buildLayout, so the hash is computed at most once.
	fpOnce sync.Once
	fp     uint64
}

// partitionOf resolves an endpoint ID to its partition, or -1.
func (lay *Layout) partitionOf(id uint64) int32 {
	if id < uint64(len(lay.Dense)) {
		return lay.Dense[id]
	}
	lo, hi := 0, len(lay.SpillIDs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lay.SpillIDs[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(lay.SpillIDs) && lay.SpillIDs[lo] == id {
		return lay.SpillIdx[lo]
	}
	return -1
}

// Rows returns how many rows a snapshot of this layout stores: a head per
// segment, then the tails.
func (lay *Layout) Rows() int { return len(lay.Segments) + len(lay.TailSeg) }

// RowLen returns the number of entries in row i.
func (lay *Layout) RowLen(i int) int {
	if i < len(lay.Segments) {
		return lay.TableLen
	}
	return lay.TailLen
}

// rowOffset returns where row i starts in an arena holding every row in
// order.
func (lay *Layout) rowOffset(i int) int {
	heads := min(i, len(lay.Segments))
	return heads*lay.TableLen + (i-heads)*lay.TailLen
}

// ArenaLen returns the number of entries in all rows together.
func (lay *Layout) ArenaLen() int { return lay.rowOffset(lay.Rows()) }

// rowSegment returns the segment whose measured endpoint ranks row i.
func (lay *Layout) rowSegment(i int) Segment {
	if n := len(lay.Segments); i >= n {
		i = int(lay.TailSeg[i-n])
	}
	return lay.Segments[i]
}

// memoryBytes is the resident size of the layout's index structures.
func (lay *Layout) memoryBytes() uint64 {
	const i32 = uint64(unsafe.Sizeof(int32(0)))
	return uint64(len(lay.Dense))*i32 +
		uint64(len(lay.SpillIDs))*uint64(unsafe.Sizeof(uint64(0))) +
		uint64(len(lay.SpillIdx))*i32 +
		uint64(len(lay.PartSeg))*i32 +
		uint64(len(lay.Segments))*uint64(unsafe.Sizeof(Segment{})) +
		uint64(len(lay.SegTail)+len(lay.TailSeg))*i32
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

// buildLayout partitions the endpoint universe. miles <= 0 selects identity
// partitioning: every distinct endpoint ID is its own partition, which
// reproduces the pre-partition per-endpoint tables exactly (the equivalence
// property pinned by TestPartitionIdentityEquivalence). miles > 0 clusters
// endpoints by routing signature; the first member seen (universe order, so
// deterministic) represents the partition.
func buildLayout(universe []netmodel.Endpoint, fLDNS, fClient netmodel.Endpoint,
	miles float64, sc *Scorer) *Layout {

	nDeps := len(sc.platform.Deployments)
	lay := &Layout{TableLen: HeadLen(nDeps), TailLen: nDeps}

	// Pass 1: assign partitions first-seen by signature.
	assign := make([]int32, len(universe))
	var reps []netmodel.Endpoint
	if miles <= 0 {
		byID := make(map[uint64]int32, len(universe))
		for i, ep := range universe {
			p, ok := byID[ep.ID]
			if !ok {
				p = int32(len(reps))
				byID[ep.ID] = p
				reps = append(reps, ep)
			}
			assign[i] = p
		}
	} else {
		bySig := make(map[sigKey]int32, len(universe)/4+16)
		for i, ep := range universe {
			k := signatureFor(ep, miles)
			p, ok := bySig[k]
			if !ok {
				p = int32(len(reps))
				bySig[k] = p
				reps = append(reps, ep)
			}
			assign[i] = p
		}
	}
	lay.NParts = len(reps)

	// The two fallback partitions ride at the end; their synthetic IDs (top
	// of the uint64 space) never enter the index.
	lay.FallbackLDNS = int32(len(reps))
	reps = append(reps, fLDNS)
	lay.FallbackClient = int32(len(reps))
	reps = append(reps, fClient)

	// Pass 2: the endpoint index. World IDs are allocated from one small
	// counter, so almost everything lands in the dense array at 4 bytes per
	// endpoint; hashed IDs (extra experiment endpoints) spill to sorted
	// arrays.
	denseLimit := uint64(2*len(universe) + 1024)
	maxDense := uint64(0)
	for _, ep := range universe {
		if ep.ID < denseLimit && ep.ID > maxDense {
			maxDense = ep.ID
		}
	}
	lay.Dense = make([]int32, maxDense+1)
	for i := range lay.Dense {
		lay.Dense[i] = -1
	}
	type spillEnt struct {
		id  uint64
		idx int32
	}
	var spill []spillEnt
	for i, ep := range universe {
		if ep.ID < denseLimit {
			if lay.Dense[ep.ID] < 0 {
				lay.Endpoints++
			}
			lay.Dense[ep.ID] = assign[i]
		} else {
			spill = append(spill, spillEnt{ep.ID, assign[i]})
		}
	}
	if len(spill) > 0 {
		sort.Slice(spill, func(i, j int) bool { return spill[i].id < spill[j].id })
		lay.SpillIDs = make([]uint64, 0, len(spill))
		lay.SpillIdx = make([]int32, 0, len(spill))
		for _, e := range spill {
			if n := len(lay.SpillIDs); n > 0 && lay.SpillIDs[n-1] == e.id {
				lay.SpillIdx[n-1] = e.idx // later universe entries win, as before
				continue
			}
			lay.SpillIDs = append(lay.SpillIDs, e.id)
			lay.SpillIdx = append(lay.SpillIdx, e.idx)
			lay.Endpoints++
		}
	}

	// Pass 3: intern partitions onto arena segments. With clustering on,
	// partitions resolving to the same ping target share one table, so the
	// arena is bounded by the distinct targets in use — not by the
	// partition count; with clustering off each partition ranks its own
	// representative.
	lay.PartSeg = make([]int32, len(reps))
	if sc.Targeted() {
		tIdx := par.Map(len(reps), func(i int) int { return sc.nearestTarget(reps[i]) })
		lay.targetSeg = make(map[int32]int32, 64)
		for p, rep := range reps {
			t := int32(tIdx[p])
			seg, ok := lay.targetSeg[t]
			if !ok {
				seg = int32(len(lay.Segments))
				lay.targetSeg[t] = seg
				lay.Segments = append(lay.Segments, Segment{Target: t, Rep: rep})
			}
			lay.PartSeg[p] = seg
		}
	} else {
		for p, rep := range reps {
			lay.Segments = append(lay.Segments, Segment{Target: -1, Rep: rep})
			lay.PartSeg[p] = int32(p)
		}
	}

	// Pass 4: tails. Segments share the tail of their measured endpoint's
	// cell — geography alone, since beyond the head AS and access tier no
	// longer tell rankings apart. The fallback segments get tails of their
	// own, so a fallback row is the fallback endpoint's exact ranking from
	// first entry to last.
	lay.SegTail = make([]int32, len(lay.Segments))
	fbLDNS, fbClient := lay.PartSeg[lay.FallbackLDNS], lay.PartSeg[lay.FallbackClient]
	byCell := make(map[sigKey]int32, 64)
	for s, seg := range lay.Segments {
		cell := signatureFor(sc.segProxy(seg), tailMiles)
		cell.asn, cell.access = 0, 0
		t, shared := byCell[cell]
		fallback := int32(s) == fbLDNS || int32(s) == fbClient
		if fallback || !shared {
			t = int32(len(lay.TailSeg))
			lay.TailSeg = append(lay.TailSeg, int32(s))
			if !fallback {
				byCell[cell] = t
			}
		}
		lay.SegTail[s] = t
	}
	return lay
}
