package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}} {
		if got := Quantile(sorted, c.q); !near(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile([]uint32{}, 0.5)) {
		t.Error("empty input should give NaN")
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v, want 3 (input need not be sorted)", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns: the driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates past both ends
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 52.5},
	} {
		q1, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
