package mapping

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// rowProber is a Prober that can also measure one target against many
// prepared sites in a single call — dst[i] = PingMs(from[i].Endpoint, to),
// bit for bit — doing each endpoint's share of the arithmetic once per row
// instead of once per pair. The network model is one. A prober that serves
// stored observations (measure.DB, the test fakes) is not, and is asked pair
// by pair; that loop is also the reference the row form is tested against.
type rowProber interface {
	Prober
	PingRow(dst []float64, from []netmodel.Site, to netmodel.Endpoint)
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
// arena it publishes (scoreInto, bestInto), so no rank table is held here. Rank and
// Best serve experiments and tests; they are safe for concurrent use.
type Scorer struct {
	platform *cdn.Platform
	net      Prober
	// rows is net when it can measure a row at a time (decided once, in
	// NewScorer), else nil; sites are the platform's deployments prepared
	// for it, in deployment order.
	rows    rowProber
	sites   []netmodel.Site
	targets []netmodel.Endpoint
	// targetAt holds each target's location prepared for the nearest-target
	// search, which measures one endpoint against many of them.
	targetAt []geo.Prepared

	// targetIdx maps a ping target's endpoint ID to its index, so
	// measurement updates scoped to specific targets (the MapMaker's
	// NotifyMeasurement feed) can invalidate just those tables.
	targetIdx map[uint64]int

	// latSorted/latOrder index the targets by latitude for nearest-target
	// search: latSorted is ascending target latitudes, latOrder the target
	// index at each sorted position. Latitude difference lower-bounds
	// great-circle distance, so the search scans outward from the query
	// latitude and stops once the band cannot beat the best hit — exact,
	// but examining a narrow band instead of every target.
	latSorted []float64
	latOrder  []int32

	// gen counts invalidations; the snapshot builder compares it to detect
	// a measurement refresh it was not told about.
	gen atomic.Uint64

	// mu guards the two memos experiments lean on when they call Best for
	// the same endpoints day after day: endpoint ID → nearest ping target
	// (without it internal/experiments' tests run 40% longer), and ping
	// target → best live deployment. A replica never fills them.
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
		for i, d := range p.Deployments {
			s.sites[i] = netmodel.SiteOf(d.Endpoint())
		}
	}
	if numTargets > 0 {
		blocks := append([]*world.ClientBlock{}, w.Blocks...)
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].Demand > blocks[j].Demand })
		if numTargets > len(blocks) {
			numTargets = len(blocks)
		}
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
		order := make([]int32, len(s.targets))
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(i, j int) bool {
			return s.targets[order[i]].Loc.Lat < s.targets[order[j]].Loc.Lat
		})
		s.latOrder = order
		s.latSorted = make([]float64, len(order))
		for i, t := range order {
			s.latSorted[i] = s.targets[t].Loc.Lat
		}
	}
	return s
}

// Platform returns the scored platform.
func (s *Scorer) Platform() *cdn.Platform { return s.platform }

// Generation returns the invalidation counter: it increases every time
// cached scoring state is dropped (liveness or measurement changes), so
// layered caches can stamp entries and discard stale ones.
func (s *Scorer) Generation() uint64 { return s.gen.Load() }

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
// index outward from ep's latitude, pruning with the invariant that
// great-circle distance is at least the latitude difference — so only a
// narrow latitude band is ever examined, which is what makes million-block
// partition layouts affordable.
func (s *Scorer) nearestTarget(ep netmodel.Endpoint) int {
	n := len(s.latSorted)
	j := sort.SearchFloat64s(s.latSorted, ep.Loc.Lat)
	i := j - 1
	best, bestD := -1, math.Inf(1)
	at := geo.Prepare(ep.Loc)
	consider := func(k int) {
		t := int(s.latOrder[k])
		d := at.DistanceTo(s.targetAt[t])
		if d < bestD || (d == bestD && t < best) {
			best, bestD = t, d
		}
	}
	for i >= 0 || j < n {
		// Lower-bound each frontier by its latitude gap (milesPerDegreeLat
		// rounds down, keeping the bound sound); a frontier that cannot
		// beat — or tie, since ties can win on index — the best hit is
		// done, and when both are done so is the search.
		di, dj := math.Inf(1), math.Inf(1)
		if i >= 0 {
			di = math.Abs(ep.Loc.Lat-s.latSorted[i]) * milesPerDegreeLat
		}
		if j < n {
			dj = math.Abs(s.latSorted[j]-ep.Loc.Lat) * milesPerDegreeLat
		}
		if best >= 0 && di > bestD && dj > bestD {
			break
		}
		if di <= dj {
			consider(i)
			i--
		} else {
			consider(j)
			j++
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

// bestInto writes the len(dst) best of scored into dst, best first under
// order: the whole ranking when dst is as long as scored (they may be the
// same slice), otherwise exactly its first len(dst) entries, selected
// without sorting the rest.
func bestInto(dst, scored []Ranked, order rowOrder) {
	if len(dst) == len(scored) {
		copy(dst, scored)
		slices.SortFunc(dst, order.compare)
		return
	}
	// Insertion into a sorted window of len(dst). Almost every candidate
	// loses to the window's worst entry, and a key above the worst's says so
	// in one float compare; the rest are placed by binary search on the
	// keys. Only equal keys need the order's tie-breaks.
	before := func(a Ranked, ka float64, b Ranked, kb float64) bool {
		return ka < kb || ka == kb && order.compare(a, b) < 0
	}
	n, worst := 0, 0.0
	for _, r := range scored {
		k := order.key(r)
		if n == len(dst) {
			if !before(r, k, dst[n-1], worst) {
				continue
			}
			n--
		}
		lo, hi := 0, n
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if before(dst[m], order.key(dst[m]), r, k) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		copy(dst[lo+1:n+1], dst[lo:n])
		dst[lo] = r
		if n++; n == len(dst) {
			worst = order.key(dst[n-1])
		}
	}
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

// Invalidate drops every remembered best deployment and bumps the
// generation counter, so the next snapshot Build re-ranks its tables. The
// MapMaker calls it on a measurement refresh, simulations after failure
// injection; it has no effect on already-published snapshots.
func (s *Scorer) Invalidate() {
	s.mu.Lock()
	clear(s.best)
	s.mu.Unlock()
	s.gen.Add(1)
}

// InvalidateTargets is Invalidate scoped to specific ping targets, used
// when a measurement sweep refreshed a known subset of them. The
// generation counter still advances so the builder sees the change.
func (s *Scorer) InvalidateTargets(idxs ...int) {
	s.mu.Lock()
	for _, i := range idxs {
		delete(s.best, int32(i))
	}
	s.mu.Unlock()
	s.gen.Add(1)
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

// BestWeighted returns the live deployment minimising the demand-weighted
// mean ping to the given endpoints — the CANS objective: "map client to the
// deployment that minimizes the traffic-weighted average of the latencies
// from the deployment to its cluster of clients" (§6).
func (s *Scorer) BestWeighted(eps []netmodel.Endpoint, weights []float64) (*cdn.Deployment, float64) {
	if i, score := s.bestWeighted(eps, weights); i >= 0 {
		return s.platform.Deployments[i], score
	}
	return nil, 0
}

// bestWeighted is BestWeighted returning the winner's deployment index, or
// -1 when no deployment is alive.
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
