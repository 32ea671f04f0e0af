// Package mapdist is the map-distribution plane: it moves published
// snapshots from the MapMaker node to replica map servers over the admin
// HTTP plane, as mapwire images.
//
// The protocol is one idempotent GET with resumable epoch negotiation.
// A replica reports what it has
// (`?have=<epoch>&layout=<fingerprint>&lineage=<lineage>`); the publisher
// answers with nothing (204, already current), a delta image patching
// exactly that snapshot, or a full image when no delta is possible — first
// contact, a replica of another lineage (a publisher restart), a layout
// rebuilt for a new universe, or a change so large a full image is
// smaller. The publisher keeps no history: it cuts every delta from its
// current snapshot, whose rows record the epoch that last re-ranked them.
// The replica never needs to know which it asked for: the image header
// says what arrived, and a failed delta application just degrades the next
// request to `have=0`. A replica follows one publisher: two live
// publishers behind one address would each replace the other's map.
package mapdist

import (
	"net/http"
	"strconv"
	"sync/atomic"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/telemetry"
)

// Wire protocol constants shared by publisher and fetcher.
const (
	// SnapshotPath is the admin-plane route snapshots are served on.
	SnapshotPath = "/mapdist/snapshot"
	// Response headers describing the returned image.
	headerEpoch = "X-Mapdist-Epoch"
	headerKind  = "X-Mapdist-Kind"
)

// PublisherConfig tunes a Publisher. It has no fields left: the publisher
// keeps no history to size.
type PublisherConfig struct{}

// Publisher serves the system's current map snapshot — whole, or as a
// delta against whatever snapshot of its lineage a replica holds — on the
// MapMaker node's admin plane.
type Publisher struct {
	sys   *mapping.System
	codec *mapwire.Codec

	// cachedFull memoises the encoded full image of one snapshot, so a
	// fleet of replicas bootstrapping against it encodes it once.
	cachedFull atomic.Pointer[encodedImage]

	requests       atomic.Uint64
	fullImages     atomic.Uint64
	deltaImages    atomic.Uint64
	unchanged      atomic.Uint64
	fullBytes      atomic.Uint64
	deltaBytes     atomic.Uint64
	deltaMisses    atomic.Uint64
	encodeFailures atomic.Uint64
}

type encodedImage struct {
	base mapwire.Base
	data []byte
}

// NewPublisher builds a publisher over the system's snapshots, encoding
// against the given platform. Its codec encodes the roster only once the
// first replica asks (see mapwire.Codec).
func NewPublisher(sys *mapping.System, platform *cdn.Platform, _ PublisherConfig) *Publisher {
	return &Publisher{sys: sys, codec: mapwire.NewCodec(platform)}
}

// Observe does nothing: the publisher reads the system's current snapshot
// on every request. It is kept for MapMaker.SetOnPublish hooks.
func (p *Publisher) Observe(*mapping.Snapshot) {}

// ServeHTTP answers one snapshot fetch. Responses:
//
//	204 — the replica holds the current snapshot
//	200 — a mapwire image (X-Mapdist-Kind: full|delta)
//	500 — encoding failed (should not happen; counted)
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	cur := p.sys.Current()
	// A request naming no lineage (a client older than lineages, like the
	// benchmark harness's) is taken to hold the current one: a delta names
	// its lineage in its header, and the decoder refuses it against a base
	// of another.
	q := r.URL.Query()
	have := mapwire.Base{Lineage: cur.Lineage()}
	have.Epoch, _ = strconv.ParseUint(q.Get("have"), 10, 64)
	have.Layout, _ = strconv.ParseUint(q.Get("layout"), 16, 64)
	if l := q.Get("lineage"); l != "" {
		have.Lineage, _ = strconv.ParseUint(l, 16, 64)
	}

	w.Header().Set(headerEpoch, strconv.FormatUint(cur.Epoch(), 10))
	if have == mapwire.BaseOf(cur) {
		p.unchanged.Add(1)
		w.WriteHeader(http.StatusNoContent)
		return
	}

	if have.Epoch > 0 {
		data, ok, err := p.codec.EncodeDeltaSince(have, cur)
		if err != nil {
			p.encodeFailures.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if ok {
			p.deltaImages.Add(1)
			p.deltaBytes.Add(uint64(len(data)))
			p.respond(w, "delta", data)
			return
		}
		// Another lineage or layout, or a delta that would not pay for
		// itself: fall through to a full image.
		p.deltaMisses.Add(1)
	}

	data, err := p.fullImage(cur)
	if err != nil {
		p.encodeFailures.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	p.fullImages.Add(1)
	p.fullBytes.Add(uint64(len(data)))
	p.respond(w, "full", data)
}

// fullImage returns the encoded full image for sn, reusing the cached
// encoding when it is of the same snapshot.
func (p *Publisher) fullImage(sn *mapping.Snapshot) ([]byte, error) {
	base := mapwire.BaseOf(sn)
	if c := p.cachedFull.Load(); c != nil && c.base == base {
		return c.data, nil
	}
	data, err := p.codec.EncodeFull(sn)
	if err != nil {
		return nil, err
	}
	p.cachedFull.Store(&encodedImage{base: base, data: data})
	return data, nil
}

func (p *Publisher) respond(w http.ResponseWriter, kind string, data []byte) {
	w.Header().Set(headerKind, kind)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// RegisterMetrics wires the publisher's counters into reg under the
// mapdist_publish_ namespace.
func (p *Publisher) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("mapdist_publish_requests_total",
		"Snapshot fetches served on the distribution endpoint.", p.requests.Load)
	reg.Counter("mapdist_publish_full_total",
		"Full snapshot images served.", p.fullImages.Load)
	reg.Counter("mapdist_publish_delta_total",
		"Delta images served.", p.deltaImages.Load)
	reg.Counter("mapdist_publish_unchanged_total",
		"Fetches answered 204 (replica already current).", p.unchanged.Load)
	reg.Counter("mapdist_publish_full_bytes_total",
		"Bytes shipped as full images.", p.fullBytes.Load)
	reg.Counter("mapdist_publish_delta_bytes_total",
		"Bytes shipped as delta images.", p.deltaBytes.Load)
	reg.Counter("mapdist_publish_delta_miss_total",
		"Delta requests downgraded to a full image.", p.deltaMisses.Load)
	reg.Counter("mapdist_publish_encode_failures_total",
		"Snapshot encodings that failed (answered 500).", p.encodeFailures.Load)
}
