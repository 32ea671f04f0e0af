package telemetry

import (
	"io"
	"sync"
	"testing"
)

// TestHistogramRaceHammer drives concurrent observers against concurrent
// snapshot/exposition readers. Run under -race (make race does) it proves
// the histogram's atomic-slot design: no locks to contend, no torn reads,
// and the final state accounts for every observation exactly once.
func TestHistogramRaceHammer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammer", "race hammer")

	const (
		writers   = 8
		perWriter = 20000
		readers   = 4
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Spread observations across many buckets.
				h.ObserveNanos((seed + int64(i)) % (1 << 22))
			}
		}(int64(w * 1009))
	}

	var rwg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				var total uint64
				for _, c := range s.Buckets {
					total += c
				}
				// The one guaranteed ordering (see HistogramSnapshot):
				// Count is read before the bucket slots, and Observe
				// bumps the bucket before Count, so the bucket total can
				// run ahead of Count mid-flight but never behind it.
				if total < s.Count {
					t.Errorf("bucket total %d undercounts Count %d", total, s.Count)
					return
				}
				if err := writePrometheusHistogram(io.Discard, "hammer", s); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	rwg.Wait()

	s := h.Snapshot()
	if want := uint64(writers * perWriter); s.Count != want {
		t.Fatalf("final count = %d, want %d", s.Count, want)
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("final bucket total %d != count %d", total, s.Count)
	}
	// Every observation is below 2^22 ns, so nothing lies past bucket 22.
	for i := 23; i < histBuckets; i++ {
		if s.Buckets[i] != 0 {
			t.Fatalf("bucket %d holds %d observations, beyond the largest observed", i, s.Buckets[i])
		}
	}
}
