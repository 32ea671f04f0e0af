package mapdist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/telemetry"
	"eum/internal/world"
)

// metric reads a counter or gauge as /metrics exposes it.
func metric(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

var (
	distOnce sync.Once
	distW    *world.World
	distP    *cdn.Platform
	distCfg  = mapping.Config{Policy: mapping.EndUser, PingTargets: 100, PartitionMiles: 75}
)

func distFixture() (*world.World, *cdn.Platform) {
	distOnce.Do(func() {
		distW = world.MustGenerate(world.Config{Seed: 21, NumBlocks: 800})
		distP = cdn.MustGenerateUniverse(distW, cdn.Config{Seed: 21, NumDeployments: 60, ServersPerDeployment: 4})
	})
	return distW, distP
}

// shiftNet perturbs pings for chosen endpoints, emulating measurement
// refreshes that dirty single targets between publisher epochs.
type shiftNet struct {
	base  mapping.Prober
	shift map[uint64]float64
}

func (p *shiftNet) PingMs(a, b netmodel.Endpoint) float64 {
	return p.base.PingMs(a, b) + p.shift[a.ID] + p.shift[b.ID]
}

// dirtyOne shifts the ping target of the given LDNS on the publisher's
// system and rebuilds, returning the new (installed) snapshot.
func dirtyOne(t *testing.T, sys *mapping.System, prober *shiftNet, ldns int) *mapping.Snapshot {
	t.Helper()
	target, ok := sys.Builder().Scorer().TargetFor(distW.LDNSes[ldns].Endpoint())
	if !ok {
		t.Fatalf("no ping target for LDNS %d", ldns)
	}
	prober.shift[target.ID] += 15
	sys.Builder().MarkMeasurementsDirty(target.ID)
	return sys.Rebuild()
}

// sameRows fails unless every row of got equals the same row of want.
func sameRows(t *testing.T, got, want *mapping.Snapshot) {
	t.Helper()
	if got.LayoutFingerprint() != want.LayoutFingerprint() {
		t.Fatal("replica and publisher hold different layouts")
	}
	differ := 0
	for i := 0; i < want.Layout().Rows(); i++ {
		if !slices.Equal(got.RowOrder(i), want.RowOrder(i)) ||
			i < want.Tables() && !slices.Equal(got.HeadScores(i), want.HeadScores(i)) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d rows differ from the publisher's", differ, want.Layout().Rows())
	}
}

// newReplica boots a replica system from the test publisher — which ships
// it the publisher's current map in a full image — and returns it with its
// fetcher.
func newReplica(t *testing.T, srvURL string) (*mapping.System, *Fetcher) {
	t.Helper()
	f, err := Boot(context.Background(), FetcherConfig{Source: strings.TrimPrefix(srvURL, "http://")}, distCfg)
	if err != nil {
		t.Fatal(err)
	}
	return f.System(), f
}

// sameBlocks fails unless the replica's map answers every block's prefix
// with the row the publisher's answers it with.
func sameBlocks(t *testing.T, got, want *mapping.Snapshot, blocks []*world.ClientBlock) {
	t.Helper()
	for _, blk := range blocks {
		g, _ := got.ClientRow(blk.Prefix)
		wnt, _ := want.ClientRow(blk.Prefix)
		if !slices.Equal(g.Head, wnt.Head) || !slices.Equal(g.Tail, wnt.Tail) {
			t.Fatalf("block %v ranks differently on the replica at epoch %d", blk.Prefix, got.Epoch())
		}
	}
}

func TestPublisherFetcherSync(t *testing.T) {
	w, p := distFixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	srv := httptest.NewServer(pub)
	defer srv.Close()

	// The boot fetch ships a full image.
	repSys, fetcher := newReplica(t, srv.URL)
	ctx := context.Background()
	if got, want := repSys.Current().Epoch(), pubSys.Current().Epoch(); got != want {
		t.Fatalf("replica at epoch %d, publisher at %d", got, want)
	}
	st := fetcher.Status()
	if st.FullImages != 1 || st.DeltaImages != 0 {
		t.Fatalf("after first fetch: %d full / %d delta images", st.FullImages, st.DeltaImages)
	}

	// Nothing changed: the publisher answers 204.
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st = fetcher.Status(); st.Unchanged != 1 {
		t.Fatalf("unchanged fetches = %d, want 1", st.Unchanged)
	}

	// A one-target refresh ships as a delta, and the delta-applied replica
	// answers exactly like the publisher.
	want := dirtyOne(t, pubSys, prober, 5)
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st = fetcher.Status()
	if st.DeltaImages != 1 {
		t.Fatalf("delta images = %d, want 1 (status %+v)", st.DeltaImages, st)
	}
	if st.DeltaBytes == 0 || st.DeltaBytes*10 >= st.FullBytes {
		t.Fatalf("delta %d bytes vs full %d bytes: want <10%%", st.DeltaBytes, st.FullBytes)
	}
	got := repSys.Current()
	if got.Epoch() != want.Epoch() {
		t.Fatalf("replica epoch %d, want %d", got.Epoch(), want.Epoch())
	}
	sameBlocks(t, got, want, w.Blocks[:40])
	if lag := fetcher.EpochLag(); lag != 0 {
		t.Fatalf("epoch lag %d after sync", lag)
	}
}

// TestPublisherDeltaForLaggingReplica: the publisher keeps no history, so
// a replica any number of epochs behind gets a delta cut from the current
// snapshot: exactly the rows re-ranked since the replica's epoch.
func TestPublisherDeltaForLaggingReplica(t *testing.T) {
	w, p := distFixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	reg := telemetry.NewRegistry()
	pub.RegisterMetrics(reg)
	srv := httptest.NewServer(pub)
	defer srv.Close()

	repSys, fetcher := newReplica(t, srv.URL)
	ctx := context.Background()
	base := repSys.Current().Epoch()

	// Twenty epochs pass while the replica sleeps, refreshing three
	// targets in turn.
	for i := 0; i < 20; i++ {
		dirtyOne(t, pubSys, prober, []int{5, 40, 90}[i%3])
	}
	want := pubSys.Current()
	if want.Epoch() != base+20 {
		t.Fatalf("publisher at epoch %d, want %d", want.Epoch(), base+20)
	}
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st, misses := fetcher.Status(), metric(t, reg, "mapdist_publish_delta_miss_total"); st.FullImages != 1 || st.DeltaImages != 1 || misses != 0 {
		t.Fatalf("a replica 20 epochs behind got %d full / %d delta images, %v delta misses; want 1 / 1 / 0",
			st.FullImages, st.DeltaImages, misses)
	}
	// The replica's rows stamped after its old epoch are the ones the
	// delta carried, and they are exactly the publisher's re-ranked rows.
	got := repSys.Current()
	if rows, wantRows := got.ChangedSince(base), want.ChangedSince(base); len(wantRows) == 0 || !slices.Equal(rows, wantRows) {
		t.Fatalf("the delta carried rows %v, re-ranked since epoch %d: %v", rows, base, wantRows)
	}
	if got.Epoch() != want.Epoch() || got.Lineage() != want.Lineage() {
		t.Fatalf("replica at epoch %d lineage %016x, publisher at %d lineage %016x",
			got.Epoch(), got.Lineage(), want.Epoch(), want.Lineage())
	}
	sameRows(t, got, want)
}

// TestPublisherDeltaWithoutLineage: a request that names no lineage is
// taken to hold the publisher's own, so it still gets a delta; the header
// of that delta names the lineage, and a base of another is refused.
func TestPublisherDeltaWithoutLineage(t *testing.T) {
	w, p := distFixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	base := pubSys.Current()
	next := dirtyOne(t, pubSys, prober, 5)

	rec := httptest.NewRecorder()
	pub.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("%s?have=%d&layout=%016x", SnapshotPath, base.Epoch(), base.LayoutFingerprint()), nil))
	if kind := rec.Header().Get(headerKind); rec.Code != http.StatusOK || kind != "delta" {
		t.Fatalf("lineage-less request answered %d %q, want a delta", rec.Code, kind)
	}
	codec := mapwire.NewCodec(p)
	if got, err := codec.Decode(rec.Body.Bytes(), base); err != nil || !slices.Equal(got.ChangedSince(base.Epoch()), next.ChangedSince(base.Epoch())) {
		t.Fatalf("applying it to its base: %v", err)
	}
	other := mapping.NewSystem(w, p, netmodel.NewDefault(), distCfg).Current()
	if _, err := codec.Decode(rec.Body.Bytes(), other); !errors.Is(err, mapwire.ErrDeltaBase) {
		t.Fatalf("applying it to epoch %d of another lineage: %v", other.Epoch(), err)
	}
}

// TestReplicaFollowsPublisherRestart: the publisher restarts behind the
// same address with a fresh system — its epochs start again at 1, under
// another policy and other measurements. The first fetch after the restart
// must install the new publisher's map, and once the new epochs pass the
// old ones the replica must still hold exactly the live publisher's rows,
// never a mix of the two publishers'.
func TestReplicaFollowsPublisherRestart(t *testing.T) {
	w, p := distFixture()
	var live atomic.Pointer[Publisher]
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		live.Load().ServeHTTP(rw, r)
	}))
	defer srv.Close()
	ctx := context.Background()

	oldProber := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	oldSys := mapping.NewSystem(w, p, oldProber, distCfg)
	live.Store(NewPublisher(oldSys, p, PublisherConfig{}))
	for oldSys.Current().Epoch() < 6 {
		dirtyOne(t, oldSys, oldProber, 5)
	}
	repSys, fetcher := newReplica(t, srv.URL)
	if got := repSys.Current().Epoch(); got != 6 {
		t.Fatalf("replica at epoch %d before the restart, want 6", got)
	}

	// The restart: a new system refreshing another target, under NS.
	newProber := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	nsCfg := distCfg
	nsCfg.Policy = mapping.NSBased
	newSys := mapping.NewSystem(w, p, newProber, nsCfg)
	live.Store(NewPublisher(newSys, p, PublisherConfig{}))
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := repSys.Current(); got.Epoch() != 1 || got.Policy() != mapping.NSBased {
		t.Fatalf("first fetch after the restart left the replica at epoch %d under %v; the live publisher is at epoch 1 under %v",
			got.Epoch(), got.Policy(), mapping.NSBased)
	}
	for newSys.Current().Epoch() < 9 {
		dirtyOne(t, newSys, newProber, 40)
		if err := fetcher.FetchOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got, want := repSys.Current(), newSys.Current()
	if got.Epoch() != want.Epoch() || got.Policy() != want.Policy() {
		t.Fatalf("replica at epoch %d under %v, publisher at %d under %v",
			got.Epoch(), got.Policy(), want.Epoch(), want.Policy())
	}
	sameBlocks(t, got, want, w.Blocks)
	sameRows(t, got, want)
	if st := fetcher.Status(); st.Failures != 0 || st.EpochLag != 0 {
		t.Fatalf("after following the restart: %+v", st)
	}
}

// TestFetcherCountsRefusedInstall: an image Install refuses — an older
// epoch of the lineage the replica already serves, as a stale cache in
// front of the publisher would send — is a failed fetch whose error names
// both epochs and lineages, not a silent success.
func TestFetcherCountsRefusedInstall(t *testing.T) {
	w, p := distFixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	stale, err := mapwire.NewCodec(p).EncodeFull(pubSys.Current())
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	dirtyOne(t, pubSys, prober, 5)
	var serveStale atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !serveStale.Load() {
			pub.ServeHTTP(rw, r)
			return
		}
		rw.Header().Set("Content-Length", strconv.Itoa(len(stale)))
		_, _ = rw.Write(stale)
	}))
	defer srv.Close()

	repSys, fetcher := newReplica(t, srv.URL)
	ctx := context.Background()
	serveStale.Store(true)
	err = fetcher.FetchOnce(ctx)
	lineage := fmt.Sprintf("%016x", pubSys.Current().Lineage())
	if err == nil || !strings.Contains(err.Error(), "epoch 1 of lineage "+lineage) ||
		!strings.Contains(err.Error(), "epoch 2 of lineage "+lineage) {
		t.Fatalf("fetching an older image of the installed lineage: %v", err)
	}
	st := fetcher.Status()
	if st.Failures != 1 || st.LastError != err.Error() || st.FullImages != 1 || repSys.Current().Epoch() != 2 {
		t.Fatalf("after a refused install: epoch %d, status %+v", repSys.Current().Epoch(), st)
	}
}

// TestFetcherRejectsForeignPlatform: a replica serves the roster its first
// image carried, and a later image for another platform — a publisher
// restarted on another roster behind the same address — is a fetch
// failure, not an install.
func TestFetcherRejectsForeignPlatform(t *testing.T) {
	w, p := distFixture()
	var live atomic.Pointer[Publisher]
	live.Store(NewPublisher(mapping.NewSystem(w, p, netmodel.NewDefault(), distCfg), p, PublisherConfig{}))
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		live.Load().ServeHTTP(rw, r)
	}))
	defer srv.Close()
	repSys, fetcher := newReplica(t, srv.URL)
	booted := repSys.Current()
	if fetcher.Platform() == p || mapwire.PlatformFingerprint(fetcher.Platform()) != mapwire.PlatformFingerprint(p) {
		t.Fatal("the replica's platform is not a decoded copy of the publisher's roster")
	}

	otherP := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 77, NumDeployments: 60, ServersPerDeployment: 4})
	live.Store(NewPublisher(mapping.NewSystem(w, otherP, netmodel.NewDefault(), distCfg), otherP, PublisherConfig{}))
	if err := fetcher.FetchOnce(context.Background()); !errors.Is(err, mapwire.ErrPlatformMismatch) {
		t.Fatalf("fetch against a foreign platform: %v", err)
	}
	if repSys.Current() != booted {
		t.Fatalf("foreign image was installed (epoch %d)", repSys.Current().Epoch())
	}
	if st := fetcher.Status(); st.Failures != 1 || st.LastError == "" {
		t.Fatalf("status after failure: %+v", st)
	}
}

// TestRunRetriesBootFetch boots a replica before its publisher answers:
// the first three fetches are refused, and Boot must still return with the
// publisher's map within a second at a five-second interval — after which
// Run fetches on the interval's cadence.
func TestRunRetriesBootFetch(t *testing.T) {
	w, p := distFixture()
	pubSys := mapping.NewSystem(w, p, netmodel.NewDefault(), distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	var refused atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if refused.Add(1) <= 3 {
			http.Error(rw, "publisher not up yet", http.StatusServiceUnavailable)
			return
		}
		pub.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	f, err := Boot(ctx, FetcherConfig{Source: strings.TrimPrefix(srv.URL, "http://"), Interval: 5 * time.Second}, distCfg)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second || f.System().Current().Epoch() != pubSys.Current().Epoch() {
		t.Fatalf("replica at epoch %d %v after boot (status %+v)", f.System().Current().Epoch(), took, f.Status())
	}
	if st := f.Status(); st.Failures != 3 || st.Fetches != 4 || st.FullImages != 1 {
		t.Fatalf("boot took %d fetches, %d failures, %d full images; want 4, 3, 1", st.Fetches, st.Failures, st.FullImages)
	}
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	// Synced: the next fetch is a whole interval away, not a backoff step.
	time.Sleep(4 * bootRetry)
	if st := f.Status(); st.Fetches != 4 {
		t.Fatalf("%d fetches %v after the install; the interval is %v", st.Fetches, 4*bootRetry, f.Interval())
	}
}
