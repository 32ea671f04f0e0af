package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two buckets: bucket i counts
// observations v (in nanoseconds) with 2^(i-1) <= v < 2^i (bucket 0 takes
// v <= 0, which only a clock step backwards can produce). 64 buckets cover
// every representable duration, so no observation is ever dropped.
const histBuckets = 64

// Histogram is a latency distribution with power-of-two bucket boundaries,
// built to be stamped on the DNS query hot path: Observe is two atomic
// adds and a bit-length instruction — no locks, no allocation, no
// floating-point. Power-of-two buckets trade resolution (each bucket spans
// a 2x range) for that hot-path budget; at DNS serving latencies the
// boundaries land usefully (1µs, 2µs, 4µs ... 1ms, 2ms ...) and quantile
// estimates are within a factor of two, which is what operational
// dashboards need.
//
// Create histograms through Registry.Histogram. The zero value is usable
// directly in tests.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // total nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns)) // v in [2^(i-1), 2^i)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(ns int64) {
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns how many observations have been recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// BucketBound returns the exclusive upper bound, in nanoseconds, of bucket
// i (observations in bucket i are < BucketBound(i)). The last bucket is
// unbounded and reports the maximum int64.
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1) << uint(i)
}

// HistogramSnapshot is a copy of a histogram's state. The per-slot reads
// are individually atomic but not a global cut, so a snapshot taken beside
// racing observers is only approximately consistent. One ordering IS
// guaranteed: Snapshot reads Count before any bucket slot, and Observe
// increments the bucket slot before Count — so every observation included
// in Count is also in Buckets, and the bucket total never undercounts
// Count. The Prometheus exposition leans on that to keep cumulative bucket
// counts monotonic.
type HistogramSnapshot struct {
	// Buckets[i] counts observations with BucketBound(i-1) <= v <
	// BucketBound(i) (non-cumulative).
	Buckets [histBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// SumNanos is the total of all observed durations in nanoseconds.
	SumNanos int64
}

// Snapshot copies the histogram's current state. Count is read first (see
// the HistogramSnapshot invariant).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}
