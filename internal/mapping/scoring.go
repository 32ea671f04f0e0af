package mapping

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// Prober measures path quality between two endpoints. The network model
// itself satisfies it (direct probing), as does a measurement database
// (measure.DB) that serves stored sweep observations — the production
// information flow, where scoring reads measurements rather than the
// network.
type Prober interface {
	PingMs(a, b netmodel.Endpoint) float64
}

// rowProber is a Prober that measures from prepared sites, bit for bit
// what PingMs says, doing each endpoint's share of the arithmetic once per
// row instead of once per pair: PingRow is one target against many sites,
// dst[i] = PingMs(from[i].Endpoint, to); PingAt one site against a target
// prepared as at. It also bounds its pings from below by distance and AS —
// PingFloorPerMile() per mile of any lower bound on the pair's distance
// (geo.Prepared.FloorTo), plus PingFloorCrossingMs() for a pair in two
// ASes — which is what lets headInto pass over a deployment that cannot
// make a head without measuring it. The network model is one. A prober
// that serves stored observations (measure.DB, the test fakes) is not, and
// is asked pair by pair for every deployment; that loop is also the
// reference the row form is tested against.
type rowProber interface {
	Prober
	PingRow(dst []float64, from []netmodel.Site, to netmodel.Endpoint)
	PingAt(s *netmodel.Site, to *netmodel.Endpoint, at geo.Prepared) float64
	PingFloorPerMile() float64
	PingFloorCrossingMs() float64
}

// Scorer evaluates which deployments serve a given network location best.
// It reproduces the measurement methodology of §6: rather than measuring
// every client block directly, blocks are clustered to a bounded set of
// "ping targets" (8K in the paper, covering the top-traffic /24 blocks),
// ping latency is measured from every candidate deployment to every target,
// and a client inherits the measurements of its nearest target.
//
// Scores are ping milliseconds: lower is better. The scorer is a
// control-plane component: the snapshot builder ranks straight into the
// arena it publishes (headInto, or scoreInto and bestInto), so no rank
// table is held here. Rank and Best serve experiments and tests; they are
// safe for concurrent use.
type Scorer struct {
	platform *cdn.Platform
	net      Prober
	// rows is net when it can measure a row at a time (decided once, in
	// NewScorer), else nil; sites are the platform's deployments prepared
	// for it, in deployment order, and siteLat indexes them by latitude for
	// headInto.
	rows    rowProber
	sites   []netmodel.Site
	siteLat latIndex
	targets []netmodel.Endpoint
	// targetAt holds each target's location prepared for the nearest-target
	// search, which measures one endpoint against many of them.
	targetAt []geo.Prepared

	// targetIdx maps a ping target's endpoint ID to its index, so
	// measurement updates scoped to specific targets (the MapMaker's
	// NotifyMeasurement feed) can mark just those tables dirty.
	targetIdx map[uint64]int

	// targetLat indexes the targets by latitude for the nearest-target
	// search, which scans outward from the query latitude and stops once
	// the band cannot beat the best hit — exact, but examining a narrow
	// band instead of every target.
	targetLat latIndex

	// mu guards the two memos experiments lean on when they call Best for
	// the same endpoints day after day: endpoint ID → nearest ping target
	// (without it internal/experiments' tests run 40% longer), and ping
	// target → best live deployment. Only Best fills the second, and
	// Invalidate empties it; builds never read it. A replica fills neither.
	mu      sync.RWMutex
	nearest map[uint64]int32
	best    map[int32]Ranked
}

// Ranked is one rank-table entry: a deployment, named by its index in the
// platform's Deployments list, and its score. It holds no pointers and is
// three 32-bit words — deployment index, then the score's IEEE-754 bits
// low word first — so on a little-endian host a table's bytes in memory
// are its bytes on the wire (see TableBytes), at 12 bytes an entry.
type Ranked struct {
	Dep    uint32
	lo, hi uint32
}

// MakeRanked builds the entry for deployment index dep at the given score.
func MakeRanked(dep uint32, score float64) Ranked {
	b := math.Float64bits(score)
	return Ranked{Dep: dep, lo: uint32(b), hi: uint32(b >> 32)}
}

// Score returns the entry's score (ping milliseconds, lower is better).
func (r Ranked) Score() float64 {
	return math.Float64frombits(uint64(r.hi)<<32 | uint64(r.lo))
}

// compareRanked is the table order: ascending score, ties broken by
// deployment index, so equal pings rank the same way on every build.
func compareRanked(a, b Ranked) int {
	switch sa, sb := a.Score(), b.Score(); {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return cmp.Compare(a.Dep, b.Dep)
}

// NewScorer builds a scorer over the platform using the network model.
// numTargets bounds the ping-target set; targets are chosen as the
// highest-demand client blocks of the world, mirroring the paper's "20K /24
// blocks that account for most of the load, clustered into 8K ping targets".
// numTargets <= 0 disables clustering: every queried endpoint is scored
// directly (exact, but slower and unbounded).
func NewScorer(w *world.World, p *cdn.Platform, net Prober, numTargets int) *Scorer {
	s := &Scorer{
		platform: p,
		net:      net,
		nearest:  map[uint64]int32{},
		best:     map[int32]Ranked{},
	}
	if rows, ok := net.(rowProber); ok {
		s.rows = rows
		s.sites = make([]netmodel.Site, len(p.Deployments))
		lats := make([]float64, len(p.Deployments))
		for i, d := range p.Deployments {
			s.sites[i] = netmodel.SiteOf(d.Endpoint())
			lats[i] = d.Loc.Lat
		}
		s.siteLat = newLatIndex(lats)
	}
	if numTargets > 0 {
		blocks := append([]*world.ClientBlock{}, w.Blocks...)
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].Demand > blocks[j].Demand })
		if numTargets > len(blocks) {
			numTargets = len(blocks)
		}
		s.targets = make([]netmodel.Endpoint, 0, numTargets)
		s.targetAt = make([]geo.Prepared, 0, numTargets)
		for _, b := range blocks[:numTargets] {
			s.targets = append(s.targets, b.Endpoint())
			s.targetAt = append(s.targetAt, geo.Prepare(b.Loc))
		}
		s.targetIdx = make(map[uint64]int, len(s.targets))
		for i, t := range s.targets {
			if _, ok := s.targetIdx[t.ID]; !ok {
				s.targetIdx[t.ID] = i
			}
		}
		lats := make([]float64, len(s.targets))
		for i, t := range s.targets {
			lats[i] = t.Loc.Lat
		}
		s.targetLat = newLatIndex(lats)
	}
	return s
}

// latIndex orders points by latitude, for searches that scan outward from
// a query point and stop once no point left can matter: the latitude gap
// between two points, times milesPerDegreeLat (which rounds down), is a
// lower bound on the great-circle distance between them.
type latIndex struct {
	lat   []float64 // ascending latitudes
	order []int32   // the point at each sorted position
}

// newLatIndex indexes points by their latitudes, lats[i] being point i's.
func newLatIndex(lats []float64) latIndex {
	order := make([]int32, len(lats))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(lats[a], lats[b]) })
	sorted := make([]float64, len(order))
	for i, p := range order {
		sorted[i] = lats[p]
	}
	return latIndex{lat: sorted, order: order}
}

// walkFrom starts a walk over the points outward from latitude lat. Its
// gaps are latitude gaps in miles times perMile: 1 for miles, a ping
// floor's per-mile rate for milliseconds.
func (x *latIndex) walkFrom(lat, perMile float64) latWalk {
	j := sort.SearchFloat64s(x.lat, lat)
	return latWalk{x: x, lat: lat, perMile: perMile, below: j - 1, above: j}
}

// latWalk meets the points of a latIndex nearest latitude first — the
// frontier below the start or the one above, whichever has the smaller gap
// — so the gaps it meets never shrink, and a point's gap is at most its
// great-circle distance (times perMile) from any point at the start.
type latWalk struct {
	x            *latIndex
	lat, perMile float64
	below, above int // the next position on each frontier
}

// next returns the next point if its gap is at most bound. Once it returns
// false no point left is within bound, and the walk can be taken further
// with a larger one.
func (w *latWalk) next(bound float64) (int, bool) {
	n := len(w.x.lat)
	if w.below < 0 && w.above == n {
		return -1, false
	}
	gb, ga := math.Inf(1), math.Inf(1)
	if w.below >= 0 {
		gb = (w.lat - w.x.lat[w.below]) * milesPerDegreeLat * w.perMile
	}
	if w.above < n {
		ga = (w.x.lat[w.above] - w.lat) * milesPerDegreeLat * w.perMile
	}
	if gb <= ga {
		if !(gb <= bound) {
			return -1, false
		}
		w.below--
		return int(w.x.order[w.below+1]), true
	}
	if !(ga <= bound) {
		return -1, false
	}
	w.above++
	return int(w.x.order[w.above-1]), true
}

// Platform returns the scored platform.
func (s *Scorer) Platform() *cdn.Platform { return s.platform }

// targetFor returns the index of the ping target standing in for ep, or -1
// when clustering is disabled.
func (s *Scorer) targetFor(ep netmodel.Endpoint) int {
	if len(s.targets) == 0 {
		return -1
	}
	s.mu.RLock()
	idx, ok := s.nearest[ep.ID]
	s.mu.RUnlock()
	if ok {
		return int(idx)
	}
	best := s.nearestTarget(ep)
	s.mu.Lock()
	s.nearest[ep.ID] = int32(best)
	s.mu.Unlock()
	return best
}

// nearestTarget finds the ping target geographically closest to ep,
// breaking distance ties toward the lowest target index (the semantics of
// a linear argmin scan with strict <). It walks the latitude-sorted target
// index outward from ep's latitude, so only a narrow latitude band is ever
// examined — which is what makes million-block partition layouts
// affordable — and takes the distance of a target in the band only when
// its chord floor does not already lose.
func (s *Scorer) nearestTarget(ep netmodel.Endpoint) int {
	best, bestD := -1, math.Inf(1)
	at := geo.Prepare(ep.Loc)
	// A target farther than the best hit cannot beat it — nor tie, since
	// ties can win on index — and the latitude gap and the chord floor are
	// both at most the distance.
	walk := s.targetLat.walkFrom(ep.Loc.Lat, 1)
	for t, ok := walk.next(bestD); ok; t, ok = walk.next(bestD) {
		if at.FloorTo(s.targetAt[t]) > bestD {
			continue
		}
		if d := at.DistanceTo(s.targetAt[t]); d < bestD || (d == bestD && t < best) {
			best, bestD = t, d
		}
	}
	return best
}

// proxyEndpoint returns the endpoint actually measured for ep: its ping
// target when clustering is on, else ep itself.
func (s *Scorer) proxyEndpoint(ep netmodel.Endpoint) (netmodel.Endpoint, int) {
	idx := s.targetFor(ep)
	if idx < 0 {
		return ep, -1
	}
	return s.targets[idx], idx
}

// segProxy returns the endpoint measured on a segment's behalf: its ping
// target under clustering, else its representative.
func (s *Scorer) segProxy(seg segment) netmodel.Endpoint {
	if seg.target >= 0 {
		return s.targets[seg.target]
	}
	return seg.rep
}

// pingRow measures proxy from every deployment: dst[i] is deployment i's
// ping to it. Each pair is measured exactly once.
func (s *Scorer) pingRow(dst []float64, proxy netmodel.Endpoint) {
	if s.rows != nil {
		s.rows.PingRow(dst, s.sites, proxy)
		return
	}
	for i, d := range s.platform.Deployments {
		dst[i] = s.net.PingMs(d.Endpoint(), proxy)
	}
}

// scoreInto writes every deployment's entry — its index and its ping to
// proxy — into scored, in deployment order. pings is scratch of the same
// length.
func (s *Scorer) scoreInto(scored []Ranked, pings []float64, proxy netmodel.Endpoint) {
	s.pingRow(pings, proxy)
	for i, ms := range pings {
		scored[i] = MakeRanked(uint32(i), ms)
	}
}

// bestInto writes the len(dst) best of scored into dst, best first: the
// whole ranking when dst is as long as scored (they may be the same slice),
// otherwise exactly its first len(dst) entries, selected without sorting
// the rest.
func bestInto(dst, scored []Ranked) {
	if len(dst) == len(scored) {
		copy(dst, scored)
		slices.SortFunc(dst, compareRanked)
		return
	}
	w := window{dst: dst}
	for _, r := range scored {
		w.offer(r)
	}
}

// window selects the best entries offered to it, sorted under
// compareRanked, into dst: once len(dst) are held, an entry offered goes in
// only if it ranks ahead of the worst held, which it displaces. The order
// is total, so what the window ends up holding does not depend on the
// order of the offers.
type window struct {
	dst   []Ranked
	n     int     // entries held, dst[:n]
	worst float64 // dst[n-1]'s score once the window is full
}

// full reports whether the window holds len(dst) entries, and so whether
// worst is set.
func (w *window) full() bool { return w.n == len(w.dst) }

// bound returns the score above which an offer cannot go in: the worst
// held once the window is full, +Inf until then.
func (w *window) bound() float64 {
	if w.full() {
		return w.worst
	}
	return math.Inf(1)
}

// before reports whether a, scoring sa, ranks ahead of b, scoring sb: the
// scores decide unless they are equal, and then the deployment index does.
func before(a Ranked, sa float64, b Ranked, sb float64) bool {
	return sa < sb || sa == sb && a.Dep < b.Dep
}

// offer places r. Almost every candidate loses to the window's worst entry,
// and a score above the worst's says so in one float compare; the rest are
// placed by binary search on the scores. Only equal scores need the
// deployment tie-break.
func (w *window) offer(r Ranked) {
	k := r.Score()
	if w.full() {
		if !before(r, k, w.dst[w.n-1], w.worst) {
			return
		}
		w.n--
	}
	lo, hi := 0, w.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(w.dst[m], w.dst[m].Score(), r, k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	copy(w.dst[lo+1:w.n+1], w.dst[lo:w.n])
	w.dst[lo] = r
	if w.n++; w.full() {
		w.worst = w.dst[w.n-1].Score()
	}
}

// headScratch is headInto's working space, one per worker: low is where
// it selects the deployments with the lowest floors, met holds the floors
// of the deployments its walk has met, and held marks, by deployment index,
// the ones it measured for being in low.
type headScratch struct {
	low, met []Ranked
	held     []bool
}

// newHeadScratch sizes a headScratch for heads of headLen entries.
func (s *Scorer) newHeadScratch(headLen int) *headScratch {
	return &headScratch{
		low:  make([]Ranked, headLen),
		met:  make([]Ranked, 0, len(s.sites)),
		held: make([]bool, len(s.sites)),
	}
}

// headInto writes into dst what scoreInto and then bestInto would — the
// len(dst) best deployments for proxy, best first — measuring
// only the deployments that could enter it. A deployment's ping floor is
// PingFloorPerMile times its chord floor (geo.Prepared.FloorTo), plus
// PingFloorCrossingMs when it is in another AS than proxy; a latitude
// frontier's is PingFloorPerMile times its latitude gap. It walks outward
// from proxy's latitude, first measuring nothing: it takes floors until
// both frontiers' are above the len(dst)-th lowest floor met, and measures
// the deployments with the len(dst) lowest to fill dst. Then it offers dst
// every other deployment met whose floor is not strictly above dst's worst
// score, and walks on until both frontiers' floors are. What the first part
// picks decides only how much is measured. A deployment passed over pings
// above that score, so it would lose even a tie. Kept scores come from the
// same kernel as every other and the window's order is total, so dst's
// bits are bestInto's. It needs the row form (s.rows).
func (s *Scorer) headInto(dst []Ranked, proxy netmodel.Endpoint, scratch *headScratch) {
	at := geo.Prepare(proxy.Loc)
	perMile, crossing := s.rows.PingFloorPerMile(), s.rows.PingFloorCrossingMs()
	floor := func(i int) float64 {
		f := perMile * at.FloorTo(s.sites[i].At)
		if s.sites[i].ASN != proxy.ASN {
			f += crossing
		}
		return f
	}
	measure := func(i uint32) Ranked { return MakeRanked(i, s.rows.PingAt(&s.sites[i], &proxy, at)) }

	walk := s.siteLat.walkFrom(proxy.Loc.Lat, perMile)
	low, met := window{dst: scratch.low[:len(dst)]}, scratch.met[:0]
	for i, ok := walk.next(low.bound()); ok; i, ok = walk.next(low.bound()) {
		r := MakeRanked(uint32(i), floor(i))
		met = append(met, r)
		low.offer(r)
	}
	head := window{dst: dst}
	for _, r := range low.dst[:low.n] {
		scratch.held[r.Dep] = true
		head.offer(measure(r.Dep))
	}
	for _, r := range met {
		if !scratch.held[r.Dep] && r.Score() <= head.bound() {
			head.offer(measure(r.Dep))
		}
	}
	for i, ok := walk.next(head.bound()); ok; i, ok = walk.next(head.bound()) {
		if floor(i) <= head.bound() {
			head.offer(measure(uint32(i)))
		}
	}
	for _, r := range low.dst[:low.n] {
		scratch.held[r.Dep] = false
	}
	scratch.met = met
}

// Rank returns all deployments ordered by ascending ping score for ep, in
// a freshly ranked table.
func (s *Scorer) Rank(ep netmodel.Endpoint) []Ranked {
	proxy, _ := s.proxyEndpoint(ep)
	r := make([]Ranked, len(s.platform.Deployments))
	s.scoreInto(r, make([]float64, len(r)), proxy)
	slices.SortFunc(r, compareRanked)
	return r
}

// Best returns the live deployment with the lowest ping score for ep and
// that score, skipping deployments with no live servers. It returns nil if
// no deployment is alive. Results are remembered per ping target; the memo
// assumes liveness is stable during a scoring interval (call Invalidate
// after failure injection).
func (s *Scorer) Best(ep netmodel.Endpoint) (*cdn.Deployment, float64) {
	proxy, idx := s.proxyEndpoint(ep)
	if idx >= 0 {
		s.mu.RLock()
		r, ok := s.best[int32(idx)]
		s.mu.RUnlock()
		if ok {
			return s.platform.Deployments[r.Dep], r.Score()
		}
	}
	var best *cdn.Deployment
	bestAt, bestScore := 0, 0.0
	pings := make([]float64, len(s.platform.Deployments))
	s.pingRow(pings, proxy)
	for i, d := range s.platform.Deployments {
		if !d.Alive() {
			continue
		}
		if sc := pings[i]; best == nil || sc < bestScore {
			best, bestAt, bestScore = d, i, sc
		}
	}
	if idx >= 0 && best != nil {
		s.mu.Lock()
		s.best[int32(idx)] = MakeRanked(uint32(bestAt), bestScore)
		s.mu.Unlock()
	}
	return best, bestScore
}

// Invalidate drops every remembered best deployment, so the next Best
// measures afresh. SnapshotBuilder.MarkMeasurementsDirty calls it, and
// simulations after a measurement sweep or failure injection. It does not
// make a builder re-rank anything: only MarkMeasurementsDirty does that.
func (s *Scorer) Invalidate() {
	s.mu.Lock()
	clear(s.best)
	s.mu.Unlock()
}

// TargetIndex resolves an endpoint ID to its ping-target index, reporting
// whether the endpoint is one of the scorer's targets.
func (s *Scorer) TargetIndex(id uint64) (int, bool) {
	i, ok := s.targetIdx[id]
	return i, ok
}

// TargetFor returns the ping target standing in for ep under clustering,
// reporting false when clustering is off. Measurement feeds use it to
// learn which target's tables a refreshed endpoint contributes to.
func (s *Scorer) TargetFor(ep netmodel.Endpoint) (netmodel.Endpoint, bool) {
	idx := s.targetFor(ep)
	if idx < 0 {
		return netmodel.Endpoint{}, false
	}
	return s.targets[idx], true
}

// Targeted reports whether clustering is on (a bounded ping-target set).
func (s *Scorer) Targeted() bool { return len(s.targets) > 0 }

// bestWeighted returns the index of the live deployment minimising the
// demand-weighted mean ping to the given endpoints, and that mean — the
// CANS objective: "map client to the deployment that minimizes the
// traffic-weighted average of the latencies from the deployment to its
// cluster of clients" (§6). It returns -1 when no deployment is alive.
func (s *Scorer) bestWeighted(eps []netmodel.Endpoint, weights []float64) (int, float64) {
	if len(eps) == 0 {
		return -1, 0
	}
	// One row per endpoint, accumulated per deployment in endpoint order.
	n := len(s.platform.Deployments)
	sums, pings := make([]float64, n), make([]float64, n)
	var wsum float64
	for i, ep := range eps {
		proxy, _ := s.proxyEndpoint(ep)
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		s.pingRow(pings, proxy)
		for d, ms := range pings {
			sums[d] += w * ms
		}
		wsum += w
	}
	if wsum == 0 {
		return -1, 0
	}
	best, bestScore := -1, 0.0
	for di, d := range s.platform.Deployments {
		if !d.Alive() {
			continue
		}
		if sc := sums[di] / wsum; best < 0 || sc < bestScore {
			best, bestScore = di, sc
		}
	}
	return best, bestScore
}

// Score returns the ping score between a specific deployment and ep.
func (s *Scorer) Score(d *cdn.Deployment, ep netmodel.Endpoint) float64 {
	proxy, _ := s.proxyEndpoint(ep)
	return s.net.PingMs(d.Endpoint(), proxy)
}
