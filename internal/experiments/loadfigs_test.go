package experiments

import (
	"math"
	"testing"
)

// TestClosedLoopFlashCrowd is the load-aware contract at the pick: the
// assignments must spill while the surge lasts and return to proximity when
// it recedes.
func TestClosedLoopFlashCrowd(t *testing.T) {
	cfg := DefaultClosedLoopConfig()
	res, rep, err := ClosedLoopFlashCrowd(lab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Multiples) {
		t.Fatalf("rows = %d, want one per multiple (%d)", len(res.Rows), len(cfg.Multiples))
	}
	if len(rep.Rows) != len(res.Rows) {
		t.Fatalf("report rows = %d, want %d", len(rep.Rows), len(res.Rows))
	}

	// Demand spills at the peak and returns home afterwards.
	peak := 0.0
	for _, r := range res.Rows {
		if r.SpillFraction > peak {
			peak = r.SpillFraction
		}
	}
	if peak < 0.2 {
		t.Fatalf("peak spill fraction = %.3f, want >= 0.2 during a 4x surge", peak)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.SpillFraction != 0 {
		t.Fatalf("final spill fraction = %.3f, want 0 after the surge recedes", last.SpillFraction)
	}
	if last.RemapFraction != 0 {
		t.Fatalf("final remap fraction = %.3f, want 0 once reconverged", last.RemapFraction)
	}
	if !res.Reconverged {
		t.Fatal("assignments did not reconverge to the quiet baseline")
	}

	// Remaps are bounded: each surge block moves a handful of times over
	// the whole 12-round timeline, not once per round per block.
	var surgeBlocks int
	for _, c := range lab.World.Countries {
		if c.Code() == cfg.Country {
			surgeBlocks = len(c.Blocks)
		}
	}
	if surgeBlocks == 0 {
		t.Fatalf("no blocks in %s", cfg.Country)
	}
	if max := 7 * surgeBlocks; res.TotalRemaps > max {
		t.Fatalf("total remaps = %d over %d blocks, want <= %d", res.TotalRemaps, surgeBlocks, max)
	}
}

// TestBrownoutZipf checks the two shedding mechanisms apart: at beta=0 the
// browned-out deployment sheds only by hard capacity spill and stays pinned
// at capacity; with a balance factor, picks leave it before it saturates
// and it ends below that, at a bounded distance cost. At Small scale
// beta=2, the figure's setting, does not unpin it (EXPERIMENTS.md); 5 does.
func TestBrownoutZipf(t *testing.T) {
	rows, rep, err := BrownoutZipf(lab, []float64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rep.Rows) != 2 {
		t.Fatalf("rows = %d (report %d), want 2", len(rows), len(rep.Rows))
	}
	base, fb := rows[0], rows[1]
	if base.FinalTargetUtil < 0.99 {
		t.Fatalf("beta=0 final util = %.3f, want pinned at 1.0", base.FinalTargetUtil)
	}
	if fb.FinalTargetUtil >= base.FinalTargetUtil {
		t.Fatalf("beta=%g final util = %.3f, want below beta=0's %.3f", fb.Beta, fb.FinalTargetUtil, base.FinalTargetUtil)
	}

	// The distance price for shedding is bounded: the workload is global
	// and only one deployment's demand moves.
	if fb.MeanDistance > 1.25*base.MeanDistance {
		t.Fatalf("beta=%g mean distance %.1f vs %.1f at beta=0: shed cost too high",
			fb.Beta, fb.MeanDistance, base.MeanDistance)
	}
}

// TestBalanceFrontier checks the knob trades in the advertised direction —
// more balance factor buys less demand stranded above capacity, paid for in
// mapping distance and regional spill — and that its beta=0 row is the
// flash crowd at 2x: with no balance factor the picker is the flash crowd's.
func TestBalanceFrontier(t *testing.T) {
	betas := []float64{0, 2, 8}
	rows, rep, err := BalanceFrontier(lab, betas, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(betas) || len(rep.Rows) != len(betas) {
		t.Fatalf("rows = %d (report %d), want %d", len(rows), len(rep.Rows), len(betas))
	}
	base := rows[0]
	flash, _, err := FlashCrowd(lab, "DE")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flash {
		if f.LoadMultiple != 2 {
			continue
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
		if !near(base.MeanDistance, f.MeanDistance) || !near(base.P95Distance, f.P95Distance) ||
			!near(base.SpillFraction, f.SpillFraction) {
			t.Errorf("beta=0 row %.1f / %.1f mi, spill %.3f; flash crowd at 2x %.1f / %.1f mi, spill %.3f",
				base.MeanDistance, base.P95Distance, base.SpillFraction, f.MeanDistance, f.P95Distance, f.SpillFraction)
		}
	}
	for _, r := range rows[1:] {
		if r.OverloadShare >= base.OverloadShare {
			t.Errorf("beta=%g overload share %.3f, want < beta=0's %.3f",
				r.Beta, r.OverloadShare, base.OverloadShare)
		}
	}
	high := rows[len(rows)-1]
	if high.MeanDistance <= base.MeanDistance {
		t.Errorf("beta=%g mean distance %.1f, want > beta=0's %.1f (balance costs proximity)",
			high.Beta, high.MeanDistance, base.MeanDistance)
	}
	if high.SpillFraction <= base.SpillFraction {
		t.Errorf("beta=%g spill %.3f, want > beta=0's %.3f",
			high.Beta, high.SpillFraction, base.SpillFraction)
	}
}
