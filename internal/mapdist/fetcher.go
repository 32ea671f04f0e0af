package mapdist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/telemetry"
)

// ContextDialer dials with a context — the subset of net.Dialer the
// fetcher needs, satisfied by faultnet.Dialer for chaos tests.
type ContextDialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// FetcherConfig tunes a replica's snapshot fetcher.
type FetcherConfig struct {
	// Source is the publisher's admin address ("host:port"); the fetcher
	// requests http://<Source>/mapdist/snapshot.
	Source string
	// Interval between fetch attempts. Default 5s. A replica's map can
	// never be fresher than this, so config validation cross-checks it
	// against the staleness watchdog.
	Interval time.Duration
	// Timeout bounds one fetch (dial through body). Default Interval.
	Timeout time.Duration
	// Dialer optionally replaces the transport's dialer (fault injection).
	Dialer ContextDialer
}

// Fetcher keeps a replica's mapping system synchronised with a publisher:
// on every tick it offers its installed epoch, decodes whatever image
// comes back, and installs the result through the same atomic swap a
// local MapMaker would use. The serving plane cannot tell the difference
// — in particular, a partition that stops fetches walks the authority's
// degradation ladder exactly like a stalled local control plane, because
// Install is what advances PublishedAtNanos.
type Fetcher struct {
	// sys and codec are nil on a fetcher Boot has not finished yet: its
	// first image brings the platform the codec decodes against and the
	// map the system serves.
	sys      *mapping.System
	codec    *mapwire.Codec
	boot     mapping.Config
	url      string
	source   string
	interval time.Duration
	client   *http.Client

	fetches     atomic.Uint64
	failures    atomic.Uint64
	fullImages  atomic.Uint64
	deltaImages atomic.Uint64
	unchanged   atomic.Uint64
	fullBytes   atomic.Uint64
	deltaBytes  atomic.Uint64
	sourceEpoch atomic.Uint64
	lastSuccess atomic.Int64 // unix nanos of last successful fetch, 0 = never
	lastAttempt atomic.Int64
	lastError   atomic.Pointer[string]
	// forceFull poisons the next request to `have=0` after a failed delta
	// application, guaranteeing resync instead of a delta-error loop.
	forceFull atomic.Bool
}

// NewFetcher builds a fetcher feeding sys from the publisher at
// cfg.Source, decoding against the given platform. The publisher's
// snapshots are of another lineage than anything sys built, so the first
// one installs whatever its epoch, as does the first after a publisher
// restart. A replica that holds no world starts with Boot instead.
func NewFetcher(sys *mapping.System, platform *cdn.Platform, cfg FetcherConfig) (*Fetcher, error) {
	f, err := newFetcher(cfg)
	if err != nil {
		return nil, err
	}
	f.sys, f.codec = sys, mapwire.NewCodec(platform)
	return f, nil
}

// Boot builds a replica from nothing but its publisher: it fetches the
// publisher's current full image — retrying after bootRetry, doubling up
// to the interval, until one arrives or ctx ends — and returns the
// fetcher that keeps in sync the replica system (System) serving that
// image's map on the platform decoded from its roster (Platform). Images
// built for another platform are refused from then on, as fetch failures.
func Boot(ctx context.Context, cfg FetcherConfig, mcfg mapping.Config) (*Fetcher, error) {
	f, err := newFetcher(cfg)
	if err != nil {
		return nil, err
	}
	f.boot = mcfg
	for wait := min(bootRetry, f.interval); f.FetchOnce(ctx) != nil; wait = min(2*wait, f.interval) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
	return f, nil
}

func newFetcher(cfg FetcherConfig) (*Fetcher, error) {
	if cfg.Source == "" {
		return nil, errors.New("mapdist: fetcher needs a source address")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	// Keep-alives are off so every fetch re-dials: the dialer is the
	// fault-injection point in chaos tests, and in production a re-dial
	// per interval re-resolves a moved publisher at negligible cost.
	tr := &http.Transport{DisableKeepAlives: true}
	if cfg.Dialer != nil {
		tr.DialContext = cfg.Dialer.DialContext
	}
	return &Fetcher{
		url:      "http://" + cfg.Source + SnapshotPath,
		source:   cfg.Source,
		interval: cfg.Interval,
		client:   &http.Client{Transport: tr, Timeout: cfg.Timeout},
	}, nil
}

// Interval returns the configured fetch interval.
func (f *Fetcher) Interval() time.Duration { return f.interval }

// System returns the mapping system the fetcher installs into.
func (f *Fetcher) System() *mapping.System { return f.sys }

// Platform returns the platform the fetcher decodes against: the roster of
// the first image, on a fetcher Boot made.
func (f *Fetcher) Platform() *cdn.Platform { return f.codec.Platform() }

// bootRetry is the first wait after a failed boot fetch; it doubles up to
// the fetch interval, so a replica started a moment before its publisher
// boots within a second or so of the publisher answering.
const bootRetry = 100 * time.Millisecond

// Run fetches on every interval tick until ctx ends.
func (f *Fetcher) Run(ctx context.Context) {
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = f.FetchOnce(ctx)
		}
	}
}

// FetchOnce performs one fetch/decode/install cycle.
func (f *Fetcher) FetchOnce(ctx context.Context) error {
	f.fetches.Add(1)
	f.lastAttempt.Store(time.Now().UnixNano())
	err := f.fetch(ctx)
	if err != nil {
		f.failures.Add(1)
		msg := err.Error()
		f.lastError.Store(&msg)
		return err
	}
	f.lastSuccess.Store(time.Now().UnixNano())
	f.lastError.Store(nil)
	return nil
}

func (f *Fetcher) fetch(ctx context.Context) error {
	url := f.url + "?have=0"
	var cur *mapping.Snapshot
	if f.sys != nil {
		cur = f.sys.Current()
		have := cur.Epoch()
		if f.forceFull.Load() {
			have = 0
		}
		url = fmt.Sprintf("%s?have=%d&layout=%016x&lineage=%016x", f.url, have, cur.LayoutFingerprint(), cur.Lineage())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	if epoch, err := strconv.ParseUint(resp.Header.Get(headerEpoch), 10, 64); err == nil {
		f.sourceEpoch.Store(epoch)
	}
	switch resp.StatusCode {
	case http.StatusNoContent:
		if f.sys == nil {
			return errors.New("mapdist: publisher sent no image to boot from")
		}
		f.unchanged.Add(1)
		return nil
	case http.StatusOK:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("mapdist: publisher answered %s: %s", resp.Status, body)
	}

	// Decode straight off the body: rank tables land in the memory they
	// will be served from, and the image itself is never held.
	if resp.ContentLength < 0 {
		return errors.New("mapdist: publisher sent an image of unknown length")
	}
	if f.sys == nil {
		codec, sn, err := mapwire.DecodeBoot(resp.Body, resp.ContentLength)
		if err != nil {
			return err
		}
		f.codec, f.sys = codec, mapping.NewReplica(codec.Platform(), sn, f.boot)
		f.fullImages.Add(1)
		f.fullBytes.Add(uint64(resp.ContentLength))
		return nil
	}
	sn, hdr, err := f.codec.DecodeFrom(resp.Body, resp.ContentLength, cur)
	if err != nil {
		if errors.Is(err, mapwire.ErrDeltaBase) {
			// The install raced a local change (or the publisher served a
			// stale cached delta): next fetch asks for a full image.
			f.forceFull.Store(true)
		}
		return err
	}
	f.forceFull.Store(false)
	// Install is the same atomic swap a local build uses. It refuses only
	// an image no newer than the installed map of the same lineage, which
	// the publisher never sends: whatever did is a failed fetch.
	if !f.sys.Install(sn) {
		return fmt.Errorf("mapdist: image at epoch %d of lineage %016x does not supersede the installed epoch %d of lineage %016x",
			sn.Epoch(), sn.Lineage(), cur.Epoch(), cur.Lineage())
	}
	if hdr.Kind == mapwire.KindDelta {
		f.deltaImages.Add(1)
		f.deltaBytes.Add(uint64(resp.ContentLength))
	} else {
		f.fullImages.Add(1)
		f.fullBytes.Add(uint64(resp.ContentLength))
	}
	return nil
}

// EpochLag returns how many epochs the replica trails the publisher's
// last-seen epoch (0 when current or when no fetch has succeeded yet).
func (f *Fetcher) EpochLag() uint64 {
	src := f.sourceEpoch.Load()
	cur := f.sys.Current().Epoch()
	if src <= cur {
		return 0
	}
	return src - cur
}

// SyncStatus is a point-in-time view of the replica's distribution state,
// surfaced on /mapz.
type SyncStatus struct {
	Source         string    `json:"source"`
	SourceEpoch    uint64    `json:"source_epoch"`
	InstalledEpoch uint64    `json:"installed_epoch"`
	EpochLag       uint64    `json:"epoch_lag"`
	LastFetch      time.Time `json:"last_fetch,omitempty"`
	LastFetchAge   float64   `json:"last_fetch_age_seconds"`
	LastError      string    `json:"last_error,omitempty"`
	Fetches        uint64    `json:"fetches"`
	Failures       uint64    `json:"fetch_failures"`
	FullImages     uint64    `json:"full_images"`
	DeltaImages    uint64    `json:"delta_images"`
	Unchanged      uint64    `json:"unchanged"`
	FullBytes      uint64    `json:"full_bytes"`
	DeltaBytes     uint64    `json:"delta_bytes"`
}

// Status returns the current sync status.
func (f *Fetcher) Status() SyncStatus {
	st := SyncStatus{
		Source:         f.source,
		SourceEpoch:    f.sourceEpoch.Load(),
		InstalledEpoch: f.sys.Current().Epoch(),
		EpochLag:       f.EpochLag(),
		Fetches:        f.fetches.Load(),
		Failures:       f.failures.Load(),
		FullImages:     f.fullImages.Load(),
		DeltaImages:    f.deltaImages.Load(),
		Unchanged:      f.unchanged.Load(),
		FullBytes:      f.fullBytes.Load(),
		DeltaBytes:     f.deltaBytes.Load(),
	}
	if ns := f.lastSuccess.Load(); ns > 0 {
		st.LastFetch = time.Unix(0, ns)
		st.LastFetchAge = time.Since(st.LastFetch).Seconds()
	}
	if msg := f.lastError.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// RegisterMetrics wires the fetcher's counters and the replica-lag gauges
// into reg under the mapdist_ namespace.
func (f *Fetcher) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("mapdist_fetches_total",
		"Snapshot fetch attempts against the publisher.", f.fetches.Load)
	reg.Counter("mapdist_fetch_failures_total",
		"Fetch attempts that failed (network, decode, or publisher error).", f.failures.Load)
	reg.Counter("mapdist_full_images_total",
		"Full snapshot images installed.", f.fullImages.Load)
	reg.Counter("mapdist_delta_images_total",
		"Delta images applied and installed.", f.deltaImages.Load)
	reg.Counter("mapdist_unchanged_total",
		"Fetches answered 204 (already current).", f.unchanged.Load)
	reg.Counter("mapdist_full_bytes_total",
		"Bytes received as full images.", f.fullBytes.Load)
	reg.Counter("mapdist_delta_bytes_total",
		"Bytes received as delta images.", f.deltaBytes.Load)
	reg.Gauge("mapdist_replica_epoch_lag",
		"Epochs the replica trails the publisher's last-seen epoch.",
		func() float64 { return float64(f.EpochLag()) })
	reg.Gauge("mapdist_last_fetch_age_seconds",
		"Seconds since the last successful fetch (-1 = never).",
		func() float64 {
			ns := f.lastSuccess.Load()
			if ns == 0 {
				return -1
			}
			return time.Duration(time.Now().UnixNano() - ns).Seconds()
		})
}
