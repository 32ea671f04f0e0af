package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order. Histograms
// follow the Prometheus histogram convention: cumulative `_bucket` series
// with `le` boundaries in seconds, plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.metrics {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		switch m.kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter()); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, m.name,
				strconv.FormatFloat(m.gauge(), 'g', -1, 64)); err != nil {
				return err
			}
		case KindHistogram:
			if err := writePrometheusHistogram(w, m.name, m.hist.Snapshot()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePrometheusHistogram emits one histogram. Only buckets up to the
// highest populated one are listed (every DNS-latency distribution would
// otherwise drag 64 lines of zeros), followed by the mandatory +Inf.
func writePrometheusHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	// Derive the totals from the bucket slots themselves so the cumulative
	// series stays monotonic even when the snapshot raced an Observe
	// between its bucket and count increments.
	top, total := 0, uint64(0)
	for i, c := range s.Buckets {
		total += c
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		le := float64(BucketBound(i)) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name,
			strconv.FormatFloat(le, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, total, name,
		strconv.FormatFloat(float64(s.SumNanos)/1e9, 'g', -1, 64), name, total)
	return err
}

// Handler returns the /metrics HTTP handler, serving the Prometheus text
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
