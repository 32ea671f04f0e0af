package mapping_test

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"eum/internal/cdn"
	"eum/internal/experiments"
	"eum/internal/mapping"
)

// TestStoredScoresPickNearTies holds the load-aware pick over the float32
// scores a head stores to the pick over the float64 scores they were
// rounded from, on every pick of the Small lab's balance-factor figures,
// frontier and brownout: wherever the two choose differently, the two
// candidates' float64 effective scores, score × (1 + β·u²), lie within the
// two roundings to float32, a factor of about 1 + 2^-23 — the stored
// scores only ever break a near-tie the other way.
func TestStoredScoresPickNearTies(t *testing.T) {
	lab := experiments.NewLab(experiments.Small, 1)
	// The figures' maps are built as this one is (EndUser, 800 ping
	// targets; β acts only in the pick), so every row a pick reads is, by
	// its order and scores, a head of this map, whose float64 scores are
	// ranked again here.
	ref := mapping.NewSystem(lab.World, lab.Platform, lab.Net, mapping.Config{Policy: mapping.EndUser, PingTargets: 800})
	sn := ref.Current()
	key := func(head []uint16, scores []float32) string {
		return string(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(head))), 2*len(head))) +
			string(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(scores))), 4*len(scores)))
	}
	scores := map[string][][]float64{}
	for tb, head := range mapping.FloatHeads(ref) {
		order, s := make([]uint16, len(head)), make([]float64, len(head))
		for k, r := range head {
			order[k], s[k] = uint16(r.Dep), r.Score
		}
		if !slices.Equal(order, sn.RowOrder(tb)) {
			t.Fatalf("table %d: the float64 ranking is not the stored order", tb)
		}
		k := key(order, sn.HeadScores(tb))
		if !slices.ContainsFunc(scores[k], func(v []float64) bool { return slices.Equal(v, s) }) {
			scores[k] = append(scores[k], s)
		}
	}

	// Each float32 is within 2^-24 of its float64; the products, within a
	// few float64 last places.
	quantum := (1 + math.Exp2(-24)) / (1 - math.Exp2(-24)) * (1 + 1e-12)
	picks, differ := 0, 0
	worst := 1.0
	defer mapping.SetLoadAwareProbe(func(lb *mapping.LoadBalancer, deps []*cdn.Deployment, c mapping.Row, demand float64, got *cdn.Deployment) {
		picks++
		variants, ok := scores[key(c.Head, c.Scores)]
		if !ok {
			t.Fatalf("pick %d reads a row that is no head of the reference map", picks)
		}
		// Every table whose head has this order and these scores must
		// agree with the pick up to a near-tie.
		for _, s := range variants {
			want, wantEff, gotEff := floatPick(lb.BalanceFactor, deps, c.Head, s, demand, got)
			if (want == nil) != (got == nil) {
				t.Fatalf("pick %d: the stored scores chose %v, the float64 scores %v", picks, got, want)
			}
			if want == got {
				continue
			}
			differ++
			ratio := gotEff / wantEff
			worst = max(worst, ratio)
			if ratio > quantum {
				t.Fatalf("pick %d: the stored scores chose %s at effective score %v over %s at %v, %v times better, past their rounding (%v)",
					picks, got.Name, gotEff, want.Name, wantEff, ratio, quantum)
			}
		}
	})()

	if _, _, err := experiments.BalanceFrontier(lab, nil, ""); err != nil {
		t.Fatal(err)
	}
	frontier := picks
	if _, _, err := experiments.BrownoutZipf(lab, nil); err != nil {
		t.Fatal(err)
	}
	if frontier == 0 || picks == frontier {
		t.Fatalf("%d frontier and %d brownout load-aware picks; want both", frontier, picks-frontier)
	}
	t.Logf("%d load-aware picks (%d frontier), %d chose otherwise than the float64 scores would, each by at most a factor of %v (the rounding allows %v)",
		picks, frontier, differ, worst, quantum)
}

// floatPick is the load-aware pick over float64 scores: the best of the
// first LoadAwareWindow live head entries with room, by score × (1 +
// β·u²), nil when none has room. It returns that pick's effective score
// and that of got, the pick the stored scores made.
func floatPick(beta float64, deps []*cdn.Deployment, head []uint16, scores []float64, demand float64, got *cdn.Deployment) (best *cdn.Deployment, bestEff, gotEff float64) {
	seen := 0
	for k, c := range head {
		d := deps[c]
		if !d.Alive() {
			continue
		}
		if seen++; seen > mapping.LoadAwareWindow {
			break
		}
		cap := d.Capacity()
		if cap <= 0 || d.Load()+demand > cap {
			continue
		}
		util := d.Load() / cap
		eff := scores[k] * (1 + beta*util*util)
		if d == got {
			gotEff = eff
		}
		if best == nil || eff < bestEff {
			best, bestEff = d, eff
		}
	}
	return best, bestEff, gotEff
}
