package telemetry

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegistrySnapshot reads a registry the one way it is read, a scrape
// of its exposition: each counter, gauge and histogram at its value when
// scraped, and a counter read through to its atomic on the next scrape.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	var queries atomic.Uint64
	queries.Store(42)
	r.Counter("queries_total", "queries", queries.Load)
	r.Gauge("epoch", "map epoch", func() float64 { return 7 })
	h := r.Histogram("latency", "serve latency")
	h.Observe(3 * time.Microsecond)
	h.Observe(5 * time.Millisecond)

	scrape := func() string {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	body := scrape()
	if got := exposedValue(t, body, "queries_total"); got != 42 {
		t.Errorf("counter = %v, want 42", got)
	}
	if got := exposedValue(t, body, "epoch"); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
	if got := exposedValue(t, body, "latency_count"); got != 2 {
		t.Errorf("hist count = %v, want 2", got)
	}
	if got, want := exposedValue(t, body, "latency_sum"), (3*time.Microsecond + 5*time.Millisecond).Seconds(); got != want {
		t.Errorf("hist sum = %v s, want %v s", got, want)
	}

	queries.Add(1)
	if got := exposedValue(t, scrape(), "queries_total"); got != 43 {
		t.Errorf("counter = %v after an add, want 43: not read through", got)
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

// TestHistogramQuantile reads a latency histogram's quantiles and mean the
// way a scraper does, off /metrics: a quantile is the upper bound of the
// first bucket whose cumulative count passes that share of the count, the
// mean is _sum over _count.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency")
	r.Histogram("idle", "never observed")
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket bound 131072ns
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if p50 := exposedQuantile(t, body, "lat", 0.5); p50 > 200*time.Microsecond {
		t.Errorf("p50 = %v, want <= ~131µs", p50)
	}
	if p99 := exposedQuantile(t, body, "lat", 0.99); p99 < 10*time.Millisecond {
		t.Errorf("p99 = %v, want >= 10ms", p99)
	}
	sum, count := exposedValue(t, body, "lat_sum"), exposedValue(t, body, "lat_count")
	if m := time.Duration(sum / count * 1e9); m < 4*time.Millisecond || m > 7*time.Millisecond {
		t.Errorf("mean = %v, want ~5ms", m)
	}
	if exposedQuantile(t, body, "idle", 0.5) != 0 || exposedValue(t, body, "idle_count") != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// exposedQuantile estimates the q-quantile of histogram name from its
// Prometheus exposition: the le bound of the first cumulative bucket
// holding more than q of the count, 0 when the count is 0.
func exposedQuantile(t *testing.T, body, name string, q float64) time.Duration {
	t.Helper()
	total := exposedValue(t, body, name+"_count")
	if total == 0 {
		return 0
	}
	rank := min(math.Floor(q*total), total-1)
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, cum, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseFloat(cum, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if n > rank {
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil { // +Inf
				return time.Duration(math.MaxInt64)
			}
			return time.Duration(bound * 1e9)
		}
	}
	t.Fatalf("histogram %s has no bucket past rank %v", name, rank)
	return 0
}

// exposedValue reads one sample line of the exposition.
func exposedValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("the exposition has no %s", name)
	return 0
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
