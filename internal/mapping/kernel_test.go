package mapping

import (
	"fmt"
	"hash/fnv"
	"math"
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
// with a few deployments dead, which Best and BestWeighted must skip the
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
			rd, rs := rowSc.BestWeighted(eps, weights)
			pd, ps := pairSc.BestWeighted(eps, weights)
			if rd != pd || math.Float64bits(rs) != math.Float64bits(ps) {
				t.Fatalf("block %d: BestWeighted is %s at %v on the row path, %s at %v pairwise", i, rd.Name, rs, pd.Name, ps)
			}
		}
	}
}

// oldRing is newRing as it was: Sprintf keys through hash/fnv, an index
// sort. Kept as the reference for ring placement.
func oldRing(d *cdn.Deployment, vnodes int) *ring {
	r := &ring{}
	for _, s := range d.Servers {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(fmt.Sprintf("%d/%d", s.ID, v)))
			r.points = append(r.points, h.Sum64())
			r.servers = append(r.servers, s)
		}
	}
	sort.Sort(byPoint{r})
	return r
}

type byPoint struct{ *ring }

func (b byPoint) Len() int           { return len(b.points) }
func (b byPoint) Less(i, j int) bool { return b.points[i] < b.points[j] }
func (b byPoint) Swap(i, j int) {
	b.points[i], b.points[j] = b.points[j], b.points[i]
	b.servers[i], b.servers[j] = b.servers[j], b.servers[i]
}

// TestRingPlacementUnchanged pins consistent-hash placement across the
// ring rewrite: every point is hash/fnv's New64a over "<server>/<vnode>",
// sorted, and a thousand domains land on the servers the old ring gave
// them, on fifty deployments.
func TestRingPlacementUnchanged(t *testing.T) {
	lb := NewLoadBalancer()
	for _, d := range testP.Deployments[:50] {
		got, want := newRing(d, lb.VirtualNodes), oldRing(d, lb.VirtualNodes)
		if !slices.Equal(got.points, want.points) {
			t.Fatalf("%s: ring points moved", d.Name)
		}
		if !slices.Equal(got.servers, want.servers) {
			t.Fatalf("%s: ring points are the same but belong to other servers", d.Name)
		}
		for i := 0; i < 1000; i++ {
			key := fnv1a(fmt.Sprintf("c%d.cdn.example.net", i))
			if g, w := got.pick(key, lb.ServersPerAnswer), want.pick(key, lb.ServersPerAnswer); !slices.Equal(g, w) {
				t.Fatalf("%s: domain %d picks %v, the old ring picked %v", d.Name, i, g, w)
			}
		}
	}
	// Server IDs at the width limit still fit the key buffer.
	wide := testDeployment(9, 3)
	for i, s := range wide.Servers {
		s.ID = math.MaxUint64 - uint64(i)
	}
	if got, want := newRing(wide, lb.VirtualNodes), oldRing(wide, lb.VirtualNodes); !slices.Equal(got.points, want.points) {
		t.Fatal("ring points moved for 20-digit server IDs")
	}
}
