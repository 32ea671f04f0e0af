package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyDataset(t *testing.T) {
	var d Dataset
	if d.Mean() != 0 || d.Median() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Error("empty dataset stats should all be 0")
	}
	if d.CDF(10) != nil {
		t.Error("empty CDF should be nil")
	}
	if d.LogHistogram(1, 100, 4) != nil {
		t.Error("empty histogram should be nil")
	}
	if d.FractionAtOrBelow(5) != 0 {
		t.Error("empty FractionAtOrBelow should be 0")
	}
}

func TestIgnoresBadSamples(t *testing.T) {
	var d Dataset
	d.Add(1, 0)
	d.Add(1, -3)
	d.Add(math.NaN(), 1)
	d.Add(1, math.NaN())
	if d.Len() != 0 {
		t.Errorf("bad samples retained: Len = %d", d.Len())
	}
}

func TestMeanWeighted(t *testing.T) {
	var d Dataset
	d.Add(10, 1)
	d.Add(20, 3)
	want := (10.0 + 60.0) / 4.0
	if got := d.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestPercentileUnweighted(t *testing.T) {
	var d Dataset
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.AddUnweighted(v)
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {60, 3}, {80, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileWeighted(t *testing.T) {
	var d Dataset
	d.Add(1, 99)
	d.Add(100, 1)
	if got := d.Median(); got != 1 {
		t.Errorf("Median = %v, want 1 (weight-dominated)", got)
	}
	if got := d.Percentile(99.5); got != 100 {
		t.Errorf("P99.5 = %v, want 100", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var d Dataset
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.AddUnweighted(v)
			}
		}
		if d.Len() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileAfterAdd(t *testing.T) {
	// Adding after a query must invalidate the sort cache.
	var d Dataset
	d.AddUnweighted(10)
	_ = d.Median()
	d.AddUnweighted(1)
	if got := d.Min(); got != 1 {
		t.Errorf("Min after post-query Add = %v, want 1", got)
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	var d Dataset
	for v := 1.0; v <= 10; v++ {
		d.AddUnweighted(v)
	}
	cases := []struct{ v, want float64 }{
		{0, 0}, {1, 0.1}, {5, 0.5}, {5.5, 0.5}, {10, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := d.FractionAtOrBelow(c.v); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FractionAtOrBelow(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestBoxStatsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Dataset
	for i := 0; i < 1000; i++ {
		d.Add(rng.ExpFloat64()*500, rng.Float64()*10)
	}
	b := d.BoxStats()
	if !(b.P5 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P95) {
		t.Errorf("box percentiles out of order: %+v", b)
	}
}

func TestCDFProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var d Dataset
	for i := 0; i < 5000; i++ {
		d.Add(rng.NormFloat64()*100+1000, 1+rng.Float64())
	}
	pts := d.CDF(50)
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].CumFraction < pts[i-1].CumFraction {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	last := pts[len(pts)-1]
	if math.Abs(last.CumFraction-1) > 1e-9 {
		t.Errorf("CDF does not reach 1: %v", last.CumFraction)
	}
	if last.Value != d.Max() {
		t.Errorf("CDF last value %v != max %v", last.Value, d.Max())
	}
}

func TestLogHistogramSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d Dataset
	for i := 0; i < 2000; i++ {
		d.Add(math.Pow(10, rng.Float64()*4), 1) // 1..10000
	}
	// Include out-of-range values that must be clamped.
	d.Add(0.5, 10)
	d.Add(1e6, 10)
	bins := d.LogHistogram(10, 10000, 5)
	var sum float64
	for _, b := range bins {
		if b.Fraction < 0 {
			t.Fatalf("negative bin fraction: %+v", b)
		}
		if b.Hi <= b.Lo {
			t.Fatalf("degenerate bin: %+v", b)
		}
		sum += b.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram fractions sum to %v, want 1", sum)
	}
	// Bin edges should be contiguous.
	for i := 1; i < len(bins); i++ {
		if math.Abs(bins[i].Lo-bins[i-1].Hi) > bins[i].Lo*1e-9 {
			t.Errorf("bins not contiguous at %d: %v vs %v", i, bins[i-1].Hi, bins[i].Lo)
		}
	}
}

func TestLogHistogramInvalidArgs(t *testing.T) {
	var d Dataset
	d.AddUnweighted(5)
	if d.LogHistogram(0, 100, 4) != nil {
		t.Error("lo=0 should return nil")
	}
	if d.LogHistogram(100, 10, 4) != nil {
		t.Error("hi<lo should return nil")
	}
	if d.LogHistogram(1, 100, 0) != nil {
		t.Error("binsPerDecade=0 should return nil")
	}
}

func TestPercentileMatchesFraction(t *testing.T) {
	// Percentile and FractionAtOrBelow are (approximately) inverse.
	rng := rand.New(rand.NewSource(4))
	var d Dataset
	for i := 0; i < 1000; i++ {
		d.Add(rng.Float64()*100, 1)
	}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		v := d.Percentile(p)
		f := d.FractionAtOrBelow(v)
		if f < p/100-1e-9 {
			t.Errorf("FractionAtOrBelow(P%v=%v) = %v < %v", p, v, f, p/100)
		}
	}
}
