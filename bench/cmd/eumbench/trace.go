package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanName names the layer call a span times.
type spanName uint8

// Data-plane spans: what a query costs inside the server, layer by layer,
// replayed in the harness over the workload's own packets. Control-plane
// spans: the stages of a publish, which run one after another, so their
// durations sum to the propagation time.
const (
	spanQuery spanName = iota
	spanUnpack
	spanServe
	spanPack
	spanMapAt // the last data-plane span: see lastDataPlaneSpan

	spanPublishFull
	spanPublishDelta
	spanFullBuild
	spanSync
	spanEncodeFull
	spanEncodeDelta
	spanHTTPFull
	spanHTTPDelta
	spanDecodeFull
	spanApplyDelta
	spanInstall
)

// lastDataPlaneSpan separates the per-query spans, of which only the first
// traceFileQueries requests' are written out, from the per-publish ones.
const lastDataPlaneSpan = spanMapAt

var spanNames = [...]string{
	spanQuery: "query", spanUnpack: "dnsmsg.unpack", spanServe: "authority.serve",
	spanPack: "dnsmsg.pack", spanMapAt: "mapping.mapat",
	spanPublishFull: "publish.full", spanPublishDelta: "publish.delta",
	spanFullBuild: "mapping.build", spanSync: "mapmaker.sync",
	spanEncodeFull: "mapwire.encode_full", spanEncodeDelta: "mapwire.encode_delta",
	spanHTTPFull: "mapdist.http_full", spanHTTPDelta: "mapdist.http_delta",
	spanDecodeFull: "mapwire.decode_full", spanApplyDelta: "mapwire.apply_delta",
	spanInstall: "mapping.install",
}

// span is one timed call into a layer, recorded by the harness around the
// call. Times are nanoseconds since the tracer started.
//
// A span holds no pointer, so the million preallocated spans of a traced
// run are memory the garbage collector never scans: tracing must not slow
// what it times.
type span struct {
	start, end int64
	parent     int32 // index of the causing span, -1 for a root
	request    int32 // spans of one query or one publish share it
	name       spanName
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name spanName, parent, request int32) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), parent: parent, request: request})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// add records a span whose duration was derived rather than bracketed
// (mapdist.http is the fetch minus the codec work inside it).
func (t *tracer) add(name spanName, parent, request int32, start int64, d time.Duration) {
	t.spans = append(t.spans, span{name: name, start: start, end: start + int64(d), parent: parent, request: request})
}

// mean duration of the spans called name, in ns; 0 when there are none.
func (t *tracer) mean(name spanName) float64 {
	sum, n := 0.0, 0
	for _, s := range t.spans {
		if s.name == name {
			sum += float64(s.end - s.start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// median returns the index of the span called name whose duration is the
// median of them (the upper one of an even count), -1 if there is none.
func (t *tracer) median(name spanName) int32 {
	var idx []int32
	for i, s := range t.spans {
		if s.name == name {
			idx = append(idx, int32(i))
		}
	}
	if len(idx) == 0 {
		return -1
	}
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Compare(t.spans[a].end-t.spans[a].start, t.spans[b].end-t.spans[b].start)
	})
	return idx[len(idx)/2]
}

// child returns the duration in ns of the span called name whose parent is
// the given span; 0 when there is none.
func (t *tracer) child(parent int32, name spanName) float64 {
	for _, s := range t.spans {
		if s.parent == parent && s.name == name {
			return float64(s.end - s.start)
		}
	}
	return 0
}

// traceFileQueries caps how many data-plane queries' spans are written out:
// every span is kept and counted in memory, but 200 000 queries' worth
// would make a 40 MB file nobody reads past the first page.
const traceFileQueries = 10_000

// write stores the spans as JSON lines-in-an-array: one
// [name, start_ns, end_ns, parent, request] per span. Data-plane spans
// beyond the first traceFileQueries requests are summarised by the header.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	keep := func(s span) bool { return s.request < traceFileQueries || s.name > lastDataPlaneSpan }
	written := 0
	for _, s := range t.spans {
		if keep(s) {
			written++
		}
	}
	fmt.Fprintf(w, "{\"spans_recorded\": %d, \"spans_written\": %d,\n", len(t.spans), written)
	fmt.Fprintf(w, " \"columns\": [\"index\", \"name\", \"start_ns\", \"end_ns\", \"parent_index\", \"request\"],\n \"spans\": [")
	first := true
	for i, s := range t.spans {
		if !keep(s) {
			continue
		}
		sep := ",\n"
		if first {
			sep, first = "\n", false
		}
		fmt.Fprintf(w, "%s  [%d, %q, %d, %d, %d, %d]", sep, i, spanNames[s.name], s.start, s.end, s.parent, s.request)
	}
	fmt.Fprintf(w, "\n ]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
