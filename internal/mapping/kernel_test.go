package mapping

import (
	"math"
	"slices"
	"testing"

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
