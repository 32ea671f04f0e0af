// Package telemetry is the process-wide observability plane: a metrics
// registry of lock-free counters, gauges and latency histograms that every
// serving-path package (dnsserver, authority, mapmaker, dnsclient, cdn,
// faultnet) wires its live counters into. The paper's entire evaluation
// (§5–§6) is built from exactly this kind of operational telemetry — query
// rates, cache behaviour, mapping latency, rollout health — so the
// registry is designed to sit on the query hot path without perturbing it:
// counters are read-through closures over the atomics the packages already
// maintain (registration costs the hot path nothing), and histograms stamp
// one observation with two atomic adds and no allocation.
//
// A Registry is read one way: WritePrometheus emits the text exposition
// format scraped at /metrics.
package telemetry

import (
	"fmt"
	"sync"
)

// Kind classifies a registered metric.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that can move both ways.
	KindGauge
	// KindHistogram is a latency/size distribution (see Histogram).
	KindHistogram
)

// metric is one registered metric: a name, help text, and exactly one of
// the three readers depending on kind.
type metric struct {
	name    string
	help    string
	kind    Kind
	counter func() uint64
	gauge   func() float64
	hist    *Histogram
}

// Registry holds named metrics. Registration takes a lock and happens at
// wiring time (before serving begins); reads on the serving path never
// touch the registry — packages keep updating their own atomics and the
// registry reads them only when scraped. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// Default is the process-wide registry commands register into. Tests
// should create private registries with NewRegistry instead.
var Default = NewRegistry()

// register adds m, panicking on a duplicate name: two subsystems claiming
// one metric name is a wiring bug better caught at startup than silently
// shadowed at scrape time.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers a read-through counter: read is invoked at scrape time
// (typically an atomic.Uint64's Load method), so the counter owner keeps
// its existing hot-path increment untouched.
func (r *Registry) Counter(name, help string, read func() uint64) {
	r.register(&metric{name: name, help: help, kind: KindCounter, counter: read})
}

// Gauge registers a read-through gauge.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.register(&metric{name: name, help: help, kind: KindGauge, gauge: read})
}

// Histogram creates, registers and returns a latency histogram. The
// returned histogram is safe to Observe concurrently from any number of
// goroutines while being scraped.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}
