// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"math"
	"slices"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks, NaN for an empty slice.
func Quantile[T ~uint32 | ~float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// Median sorts a copy of xs and returns its median.
func Median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return Quantile(s, 0.5)
}

// Quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive): the rule the driver
// applies to a metric's values across runs. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}
