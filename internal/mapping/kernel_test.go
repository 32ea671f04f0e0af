package mapping

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"eum/internal/cdn"
	"eum/internal/netmodel"
)

// pairwise hides a prober's row form, so a scorer over it asks pair by
// pair: the reference the row path is compared against.
type pairwise struct{ Prober }

// TestScorerRowPathMatchesPairwise builds one scorer over the network model
// (which measures a row at a time) and one over the same model asked pair
// by pair, and wants the same bits out of everything a scorer answers —
// with a few deployments dead, which Best and bestWeighted must skip the
// same way on both paths.
func TestScorerRowPathMatchesPairwise(t *testing.T) {
	rowSc := NewScorer(testW, testP, testNet, 500)
	pairSc := NewScorer(testW, testP, pairwise{testNet}, 500)
	if rowSc.rows == nil || pairSc.rows != nil {
		t.Fatalf("row path selected: model %v, pairwise wrapper %v; want true, false", rowSc.rows != nil, pairSc.rows != nil)
	}
	for _, i := range []int{3, 77, 150} {
		for _, s := range testP.Deployments[i].Servers {
			s.SetAlive(false)
		}
	}
	defer func() {
		for _, i := range []int{3, 77, 150} {
			for _, s := range testP.Deployments[i].Servers {
				s.SetAlive(true)
			}
		}
	}()

	for i := 0; i < len(testW.Blocks); i += 37 {
		ep := testW.Blocks[i].Endpoint()
		if rt, pt := rowSc.targetFor(ep), pairSc.targetFor(ep); rt != pt {
			t.Fatalf("block %d: nearest target %d on the row path, %d pairwise", i, rt, pt)
		}
		if !slices.Equal(rowSc.Rank(ep), pairSc.Rank(ep)) {
			t.Fatalf("block %d ranks differently on the row path", i)
		}
		rd, rs := rowSc.Best(ep)
		pd, ps := pairSc.Best(ep)
		if rd != pd || math.Float64bits(rs) != math.Float64bits(ps) {
			t.Fatalf("block %d: Best is %s at %v on the row path, %s at %v pairwise", i, rd.Name, rs, pd.Name, ps)
		}
		eps := []netmodel.Endpoint{ep, testW.Blocks[(i+11)%len(testW.Blocks)].Endpoint(), testW.Blocks[i].LDNS.Endpoint()}
		for _, weights := range [][]float64{nil, {3, 0.5, 1.25}} {
			rd, rs := rowSc.bestWeighted(eps, weights)
			pd, ps := pairSc.bestWeighted(eps, weights)
			if rd != pd || math.Float64bits(rs) != math.Float64bits(ps) {
				t.Fatalf("block %d: bestWeighted is deployment %d at %v on the row path, %d at %v pairwise", i, rd, rs, pd, ps)
			}
		}
	}
}

// refRing is a consistent-hash ring as the load balancer kept one per
// deployment before the arena: every point's full hash beside its server.
type refRing struct {
	points  []uint64
	servers []*cdn.Server // parallel to points
}

// oldRing is the reference ring: Sprintf keys through hash/fnv, sorted by
// hash, then server ID, then virtual node.
func oldRing(d *cdn.Deployment) *refRing {
	type point struct {
		hash  uint64
		s     *cdn.Server
		vnode int
	}
	var pts []point
	for _, s := range d.Servers {
		for v := 0; v < virtualNodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(fmt.Sprintf("%d/%d", s.ID, v)))
			pts = append(pts, point{h.Sum64(), s, v})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.s.ID != b.s.ID {
			return a.s.ID < b.s.ID
		}
		return a.vnode < b.vnode
	})
	r := &refRing{}
	for _, p := range pts {
		r.points = append(r.points, p.hash)
		r.servers = append(r.servers, p.s)
	}
	return r
}

// pick is the reference pick: up to n distinct live servers clockwise from
// the first point at or past key.
func (r *refRing) pick(key uint64, n int) []*cdn.Server {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= key })
	var out []*cdn.Server
scan:
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		s := r.servers[(start+i)%len(r.points)]
		if !s.Alive() {
			continue
		}
		for _, prev := range out {
			if prev.ID == s.ID {
				continue scan
			}
		}
		out = append(out, s)
	}
	return out
}

func serverIDs(ss []*cdn.Server) []uint64 {
	ids := make([]uint64, len(ss))
	for i, s := range ss {
		ids[i] = s.ID
	}
	return ids
}

// handMade returns a deployment of unit-capacity servers with the given IDs.
func handMade(id uint64, name string, servers ...uint64) *cdn.Deployment {
	d := &cdn.Deployment{ID: id, Name: name}
	for i, sid := range servers {
		d.AddServer(sid, netip.AddrFrom4([4]byte{10, 9, byte(id), byte(i)}), 1)
	}
	return d
}

// sharedPrefixDeployment is a deployment in which two servers have points
// whose hashes share their top 32 bits — the case the arena's pick settles
// on the full hash — found by a birthday search over server IDs, plus a
// third server.
func sharedPrefixDeployment(t *testing.T) *cdn.Deployment {
	seen := map[uint32]uint64{} // top half -> the server ID with a point there
	for id := uint64(1); id < 1<<20; id++ {
		for v := 0; v < virtualNodes; v++ {
			top := uint32(fnv1a(fmt.Sprintf("%d/%d", id, v)) >> 32)
			if other, ok := seen[top]; ok && other != id {
				return handMade(1<<40, "shared-prefix", other, id, id+1)
			}
			seen[top] = id
		}
	}
	t.Fatal("no two servers share a 32-bit point prefix")
	return nil
}

// TestRingPlacementUnchanged pins consistent-hash placement and every pick
// to the reference ring: each deployment's arena holds the reference's
// points, top halves and servers in the same order, and every key picks
// the servers the reference picks — keys at, beside and around every
// point's top half, the ends of the circle and a thousand domains — with
// all servers alive and again with one dead. The deployments are testP's,
// one with two servers' points sharing a top half, and one with server IDs
// at the width limit of the key buffer.
func TestRingPlacementUnchanged(t *testing.T) {
	shared := sharedPrefixDeployment(t)
	wide := handMade(1<<41, "wide", math.MaxUint64, math.MaxUint64-1, math.MaxUint64-2)
	deps := append(slices.Clone(testP.Deployments), shared, wide)
	lb := NewLoadBalancer()
	lb.Prepare(&cdn.Platform{Deployments: deps})
	domains := []uint64{0, math.MaxUint64}
	for i := 0; i < 1000; i++ {
		domains = append(domains, fnv1a(fmt.Sprintf("c%d.cdn.example.net", i)))
	}
	sharedTops := 0
	for i, d := range deps {
		ref, at := oldRing(d), int(lb.off[i])
		if n := int(lb.off[i+1]) - at; n != len(ref.points) {
			t.Fatalf("%s: %d points, the reference has %d", d.Name, n, len(ref.points))
		}
		keys := slices.Clone(domains)
		for j, p := range ref.points {
			if lb.hi[at+j] != uint32(p>>32) || d.Servers[lb.pt[at+j]>>vnodeBits] != ref.servers[j] {
				t.Fatalf("%s: point %d moved", d.Name, j)
			}
			if pointHash(d.Servers, lb.pt[at+j]) != p {
				t.Fatalf("%s: point %d rehashes to another place", d.Name, j)
			}
			if j > 0 && lb.hi[at+j] == lb.hi[at+j-1] {
				sharedTops++
			}
			keys = append(keys, p-1, p, p+1, p&^0xffffffff, p|0xffffffff)
		}
		victim := d.Servers[len(d.Servers)/2]
		for _, alive := range []bool{true, false} {
			victim.SetAlive(alive)
			for _, key := range keys {
				if got, want := lb.pick(nil, i, key), ref.pick(key, ServersPerAnswer); !slices.Equal(got, want) {
					t.Fatalf("%s (server %d alive: %v): key %#x picks servers %v, the reference %v",
						d.Name, victim.ID, alive, key, serverIDs(got), serverIDs(want))
				}
			}
		}
		victim.SetAlive(true)
	}
	if sharedTops == 0 {
		t.Fatal("no two adjacent points share a top half: the full-hash path went untested")
	}
}
