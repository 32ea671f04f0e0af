package dnsserver

import (
	"fmt"
	"sync"
	"time"

	"eum/internal/telemetry"
)

// RegisterMetrics wires the server's live counters and a ServeDNS latency
// histogram into reg under the dnsserver_ namespace. The counters stay the
// atomics the serve loop already increments — the registry reads them only
// at scrape time — and the histogram stamp is two atomic adds around the
// handler call, so registration does not change the hot path's allocation
// or locking profile. Call before Serve; the latency histogram field is
// not synchronised against a running serve loop.
//
// Beyond the aggregate counters, every listener shard exports its own
// gauges under dnsserver_shard<i>_: the query total, a scrape-windowed qps
// rate, and the measured packets-per-wakeup ratio of its receive path. The
// registry has no label dimension, so the shard index is folded into the
// metric name.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	m := &s.Metrics
	reg.Counter("dnsserver_queries_total",
		"Well-formed DNS queries received.", m.Queries.Load)
	reg.Counter("dnsserver_responses_total",
		"Responses sent.", m.Responses.Load)
	reg.Counter("dnsserver_malformed_total",
		"Datagrams that failed to parse.", m.Malformed.Load)
	reg.Counter("dnsserver_dropped_total",
		"Queries the handler chose not to answer.", m.Dropped.Load)
	reg.Counter("dnsserver_deadline_drops_total",
		"Received datagrams discarded past the serve deadline.", m.DeadlineDrops.Load)
	reg.Counter("dnsserver_rate_limited_total",
		"Queries suppressed by response-rate limiting.", m.RateLimited.Load)
	reg.Counter("dnsserver_slips_total",
		"Rate-limited queries answered with a minimal TC=1 slip.", m.Slips.Load)
	reg.Counter("dnsserver_handler_panics_total",
		"Handler panics recovered by the serve loop.", m.HandlerPanics.Load)
	s.latency = reg.Histogram("dnsserver_serve_latency_seconds",
		"Handler (ServeDNS) latency per query.")

	reg.Gauge("dnsserver_listener_shards",
		"Number of shared-nothing listener shards.",
		func() float64 { return float64(len(s.shards)) })
	for _, sh := range s.shards {
		sh := sh
		prefix := fmt.Sprintf("dnsserver_shard%d_", sh.id)
		reg.Counter(prefix+"queries_total",
			"Well-formed queries received on this shard.", sh.Stats.Queries.Load)
		reg.Gauge(prefix+"packets_per_wakeup",
			"Datagrams received per receive syscall on this shard (1.0 on the single-datagram path).",
			func() float64 {
				w := sh.Stats.Wakeups.Load()
				if w == 0 {
					return 0
				}
				return float64(sh.Stats.BatchedPackets.Load()) / float64(w)
			})
		var win qpsWindow
		reg.Gauge(prefix+"qps",
			"Query rate on this shard over the last scrape interval.",
			func() float64 { return win.rate(sh.Stats.Queries.Load()) })
	}
}

// qpsWindow derives a rate gauge from a monotone counter: each read
// reports the counter's growth since the previous read divided by the
// elapsed wall time — i.e. the mean qps over the scrape interval. The
// first read primes the window and reports 0.
type qpsWindow struct {
	mu       sync.Mutex
	lastN    uint64
	lastTime time.Time
}

func (w *qpsWindow) rate(n uint64) float64 {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.lastTime.IsZero() {
		w.lastN, w.lastTime = n, now
		return 0
	}
	dt := now.Sub(w.lastTime).Seconds()
	dn := n - w.lastN
	w.lastN, w.lastTime = n, now
	if dt <= 0 {
		return 0
	}
	return float64(dn) / dt
}
