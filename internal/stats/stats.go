// Package stats provides the statistical machinery the paper's evaluation
// relies on: demand-weighted percentiles and box stats (all box plots show
// the 5th/25th/50th/75th/95th percentiles), CDFs over weighted samples,
// log-bucketed histograms (the distance histograms use a log-10 x axis),
// and daily-mean time series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a value with an associated nonnegative weight (typically client
// demand). A plain observation has Weight 1.
type Sample struct {
	Value  float64
	Weight float64
}

// Dataset accumulates weighted samples and answers distributional queries.
// The zero value is an empty, ready-to-use dataset. Query methods sort the
// samples lazily and cache the sorted order until the next Add.
type Dataset struct {
	samples []Sample
	sorted  bool
	total   float64
}

// Add appends a weighted sample. Non-positive weights are ignored, matching
// the paper's convention that only blocks with non-zero demand count.
func (d *Dataset) Add(value, weight float64) {
	if weight <= 0 || math.IsNaN(value) || math.IsNaN(weight) {
		return
	}
	d.samples = append(d.samples, Sample{value, weight})
	d.total += weight
	d.sorted = false
}

// AddUnweighted appends a sample with weight 1.
func (d *Dataset) AddUnweighted(value float64) { d.Add(value, 1) }

// Merge appends every sample of other to d, leaving other unchanged.
// Merging per-shard datasets in shard order is how parallel sweeps combine
// worker-private accumulations (see internal/par); the result is exactly
// the dataset produced by issuing the same Adds to d directly — the total
// is re-accumulated sample by sample so even its floating-point rounding
// matches sequential insertion.
func (d *Dataset) Merge(other *Dataset) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	d.samples = append(d.samples, other.samples...)
	for _, s := range other.samples {
		d.total += s.Weight
	}
	d.sorted = false
}

// Len returns the number of retained samples.
func (d *Dataset) Len() int { return len(d.samples) }

// TotalWeight returns the sum of all sample weights.
func (d *Dataset) TotalWeight() float64 { return d.total }

func (d *Dataset) ensureSorted() {
	if d.sorted {
		return
	}
	sort.Slice(d.samples, func(i, j int) bool { return d.samples[i].Value < d.samples[j].Value })
	d.sorted = true
}

// Mean returns the weighted mean, or 0 for an empty dataset.
func (d *Dataset) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	var sum float64
	for _, s := range d.samples {
		sum += s.Value * s.Weight
	}
	return sum / d.total
}

// Percentile returns the weighted p-th percentile for p in [0, 100].
// It uses the inclusive definition: the smallest value v such that at least
// p% of the total weight lies at or below v. Returns 0 for empty datasets.
func (d *Dataset) Percentile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if p <= 0 {
		d.ensureSorted()
		return d.samples[0].Value
	}
	if p >= 100 {
		d.ensureSorted()
		return d.samples[len(d.samples)-1].Value
	}
	d.ensureSorted()
	target := d.total * p / 100
	var cum float64
	for _, s := range d.samples {
		cum += s.Weight
		if cum >= target {
			return s.Value
		}
	}
	return d.samples[len(d.samples)-1].Value
}

// Median returns the weighted 50th percentile.
func (d *Dataset) Median() float64 { return d.Percentile(50) }

// Min returns the smallest sample value, or 0 if empty.
func (d *Dataset) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0].Value
}

// Max returns the largest sample value, or 0 if empty.
func (d *Dataset) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1].Value
}

// FractionAtOrBelow returns the fraction of total weight with value <= v,
// i.e. the empirical CDF evaluated at v. Returns 0 for empty datasets.
func (d *Dataset) FractionAtOrBelow(v float64) float64 {
	if d.total == 0 {
		return 0
	}
	d.ensureSorted()
	// Binary search for the first sample > v, then sum the prefix weight.
	idx := sort.Search(len(d.samples), func(i int) bool { return d.samples[i].Value > v })
	var cum float64
	for i := 0; i < idx; i++ {
		cum += d.samples[i].Weight
	}
	return cum / d.total
}

// Box holds the five box-plot percentiles used in every box plot in the
// paper: 5th, 25th, 50th, 75th and 95th.
type Box struct {
	P5, P25, P50, P75, P95 float64
}

// BoxStats returns the five-number box summary of the dataset.
func (d *Dataset) BoxStats() Box {
	return Box{
		P5:  d.Percentile(5),
		P25: d.Percentile(25),
		P50: d.Percentile(50),
		P75: d.Percentile(75),
		P95: d.Percentile(95),
	}
}

// String renders the box as "p5/p25/p50/p75/p95".
func (b Box) String() string {
	return fmt.Sprintf("%.0f/%.0f/%.0f/%.0f/%.0f", b.P5, b.P25, b.P50, b.P75, b.P95)
}

// CDFPoint is one point of an empirical CDF: CumFraction of the total
// weight has Value <= Value.
type CDFPoint struct {
	Value       float64
	CumFraction float64
}

// CDF returns the empirical weighted CDF sampled at up to maxPoints evenly
// spaced weight quantiles (plus the exact min and max). maxPoints <= 0
// defaults to 100.
func (d *Dataset) CDF(maxPoints int) []CDFPoint {
	if len(d.samples) == 0 {
		return nil
	}
	if maxPoints <= 0 {
		maxPoints = 100
	}
	d.ensureSorted()
	pts := make([]CDFPoint, 0, maxPoints+1)
	var cum float64
	step := d.total / float64(maxPoints)
	next := step
	for i, s := range d.samples {
		cum += s.Weight
		if cum >= next || i == len(d.samples)-1 {
			pts = append(pts, CDFPoint{Value: s.Value, CumFraction: cum / d.total})
			for next <= cum {
				next += step
			}
		}
	}
	return pts
}

// HistogramBin is one bin of a histogram over [Lo, Hi) holding Fraction of
// the total weight.
type HistogramBin struct {
	Lo, Hi   float64
	Fraction float64
}

// LogHistogram builds a histogram with binsPerDecade log10-spaced bins
// between lo and hi (both > 0). Values below lo fall into the first bin and
// values at or above hi into the last, so the fractions always sum to 1 for
// a non-empty dataset. This mirrors the paper's distance histograms
// (Figs 5, 7), which use a log-10 distance axis.
func (d *Dataset) LogHistogram(lo, hi float64, binsPerDecade int) []HistogramBin {
	if lo <= 0 || hi <= lo || binsPerDecade <= 0 || d.total == 0 {
		return nil
	}
	decades := math.Log10(hi / lo)
	n := int(math.Ceil(decades * float64(binsPerDecade)))
	if n < 1 {
		n = 1
	}
	bins := make([]HistogramBin, n)
	logLo := math.Log10(lo)
	width := decades / float64(n)
	for i := range bins {
		bins[i].Lo = math.Pow(10, logLo+float64(i)*width)
		bins[i].Hi = math.Pow(10, logLo+float64(i+1)*width)
	}
	for _, s := range d.samples {
		var idx int
		if s.Value < lo {
			idx = 0
		} else {
			idx = int((math.Log10(s.Value) - logLo) / width)
			if idx >= n {
				idx = n - 1
			}
			if idx < 0 {
				idx = 0
			}
		}
		bins[idx].Fraction += s.Weight / d.total
	}
	return bins
}
