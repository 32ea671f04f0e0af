package telemetry

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	var queries atomic.Uint64
	queries.Store(42)
	r.Counter("queries_total", "queries", queries.Load)
	r.Gauge("epoch", "map epoch", func() float64 { return 7 })
	h := r.Histogram("latency", "serve latency")
	h.Observe(3 * time.Microsecond)
	h.Observe(5 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["queries_total"] != 42 {
		t.Errorf("counter = %d, want 42", s.Counters["queries_total"])
	}
	if s.Gauges["epoch"] != 7 {
		t.Errorf("gauge = %v, want 7", s.Gauges["epoch"])
	}
	hs := s.Histograms["latency"]
	if hs.Count != 2 {
		t.Errorf("hist count = %d, want 2", hs.Count)
	}
	if want := int64(3*time.Microsecond + 5*time.Millisecond); hs.SumNanos != want {
		t.Errorf("hist sum = %d, want %d", hs.SumNanos, want)
	}

	queries.Add(1)
	if r.Snapshot().Counters["queries_total"] != 43 {
		t.Error("counter is not read-through")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "", func() float64 { return 0 })
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// 1ns lands in bucket 1 ([1,2)), 1000ns in bucket 10 ([512,1024)).
	h.ObserveNanos(1)
	h.ObserveNanos(1000)
	h.ObserveNanos(0) // bucket 0
	h.ObserveNanos(-5)
	s := h.Snapshot()
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[10] != 1 {
		t.Errorf("bucket layout wrong: b0=%d b1=%d b10=%d", s.Buckets[0], s.Buckets[1], s.Buckets[10])
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	// A huge value must clamp into the last bucket, not index out of range.
	h.ObserveNanos(math.MaxInt64)
	if got := h.Snapshot().Buckets[histBuckets-1]; got != 1 {
		t.Errorf("max value bucket = %d, want 1", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket bound 131072ns
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 > 200*time.Microsecond {
		t.Errorf("p50 = %v, want <= ~131µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 10*time.Millisecond {
		t.Errorf("p99 = %v, want >= 10ms", p99)
	}
	if m := s.Mean(); m < 4*time.Millisecond || m > 7*time.Millisecond {
		t.Errorf("mean = %v, want ~5ms", m)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "the a counter", func() uint64 { return 5 })
	r.Gauge("b", "the b gauge", func() float64 { return 2.5 })
	h := r.Histogram("lat", "latency")
	h.ObserveNanos(1 << 20) // bucket 21, bound 2^21ns
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP a_total the a counter",
		"# TYPE a_total counter",
		"a_total 5",
		"# TYPE b gauge",
		"b 2.5",
		"# TYPE lat histogram",
		`lat_bucket{le="+Inf"} 1`,
		"lat_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestJSONExpositionAndHandler: /metrics speaks one format. A client
// asking for JSON gets the Prometheus text exposition all the same.
func TestJSONExpositionAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", func() uint64 { return 9 })
	h := r.Histogram("lat", "")
	h.Observe(time.Millisecond)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"c_total 9", `lat_bucket{le="+Inf"} 1`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q in:\n%s", want, body)
		}
	}
}
