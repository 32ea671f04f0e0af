package mapdist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

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

// dirtyOne shifts one live ping target on the publisher and rebuilds,
// returning the new snapshot (already installed and observed).
func dirtyOne(t *testing.T, sys *mapping.System, prober *shiftNet, pub *Publisher) *mapping.Snapshot {
	t.Helper()
	target, ok := sys.Builder().Scorer().TargetFor(distW.LDNSes[5].Endpoint())
	if !ok {
		t.Fatal("no ping target for LDNS 5")
	}
	prober.shift[target.ID] += 15
	sys.Builder().MarkMeasurementsDirty(target.ID)
	sn := sys.Rebuild()
	pub.Observe(sn)
	return sn
}

// newReplica builds a replica system over the same world/platform and a
// fetcher pointed at the test publisher.
func newReplica(t *testing.T, srvURL string) (*mapping.System, *Fetcher) {
	t.Helper()
	w, p := distFixture()
	sys := mapping.NewReplica(w, p, netmodel.NewDefault(), distCfg)
	f, err := NewFetcher(sys, p, FetcherConfig{Source: strings.TrimPrefix(srvURL, "http://")})
	if err != nil {
		t.Fatal(err)
	}
	return sys, f
}

func TestPublisherFetcherSync(t *testing.T) {
	w, p := distFixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	srv := httptest.NewServer(pub)
	defer srv.Close()

	repSys, fetcher := newReplica(t, srv.URL)
	if got := repSys.Current().Epoch(); got != 0 {
		t.Fatalf("bootstrapped replica at epoch %d, want 0", got)
	}
	ctx := context.Background()

	// First fetch ships a full image.
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
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
	want := dirtyOne(t, pubSys, prober, pub)
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
	for _, blk := range w.Blocks[:40] {
		g, wnt := got.RankOf(blk.ID, true), want.RankOf(blk.ID, true)
		if !slices.Equal(g.Head, wnt.Head) || !slices.Equal(g.Tail, wnt.Tail) {
			t.Fatalf("block %d ranks differently after delta apply", blk.ID)
		}
	}
	if lag := fetcher.EpochLag(); lag != 0 {
		t.Fatalf("epoch lag %d after sync", lag)
	}
}

func TestPublisherFallsBackToFullWhenBaseEvicted(t *testing.T) {
	w, p := distFixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{History: 4})
	srv := httptest.NewServer(pub)
	defer srv.Close()

	repSys, fetcher := newReplica(t, srv.URL)
	ctx := context.Background()
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	base := repSys.Current().Epoch()

	// Publish far past the retention ring while the replica sleeps.
	for i := 0; i < 8; i++ {
		dirtyOne(t, pubSys, prober, pub)
	}
	if pub.Retained() > 4 {
		t.Fatalf("retained %d snapshots, history cap 4", pub.Retained())
	}
	if err := fetcher.FetchOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st := fetcher.Status()
	if st.FullImages != 2 || st.DeltaImages != 0 {
		t.Fatalf("evicted base should force a full image: %d full / %d delta", st.FullImages, st.DeltaImages)
	}
	if pub.DeltaMisses() == 0 {
		t.Fatal("publisher never counted the delta miss")
	}
	if got := repSys.Current().Epoch(); got != base+8 {
		t.Fatalf("replica at epoch %d, want %d", got, base+8)
	}
}

func TestFetcherRejectsForeignPlatform(t *testing.T) {
	w, p := distFixture()
	pubSys := mapping.NewSystem(w, p, netmodel.NewDefault(), distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	srv := httptest.NewServer(pub)
	defer srv.Close()

	otherP := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 77, NumDeployments: 60, ServersPerDeployment: 4})
	repSys := mapping.NewReplica(w, otherP, netmodel.NewDefault(), distCfg)
	fetcher, err := NewFetcher(repSys, otherP, FetcherConfig{Source: strings.TrimPrefix(srv.URL, "http://")})
	if err != nil {
		t.Fatal(err)
	}
	if err := fetcher.FetchOnce(context.Background()); err == nil {
		t.Fatal("fetch against a foreign platform succeeded")
	}
	if got := repSys.Current().Epoch(); got != 0 {
		t.Fatalf("foreign image was installed (epoch %d)", got)
	}
	if st := fetcher.Status(); st.Failures != 1 || st.LastError == "" {
		t.Fatalf("status after failure: %+v", st)
	}
}

// TestRunRetriesBootFetch starts a replica before its publisher answers:
// the first three fetches are refused, and the replica must still have the
// publisher's map within a second at a five-second interval — then fall
// back to the interval's cadence.
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

	repSys := mapping.NewReplica(w, p, netmodel.NewDefault(), distCfg)
	f, err := NewFetcher(repSys, p, FetcherConfig{Source: strings.TrimPrefix(srv.URL, "http://"), Interval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	start := time.Now()
	for repSys.Current().Epoch() != pubSys.Current().Epoch() {
		if time.Since(start) > time.Second {
			t.Fatalf("replica still at epoch %d a second after boot (status %+v)", repSys.Current().Epoch(), f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := f.Status(); st.Failures != 3 || st.Fetches != 4 || st.FullImages != 1 {
		t.Fatalf("boot took %d fetches, %d failures, %d full images; want 4, 3, 1", st.Fetches, st.Failures, st.FullImages)
	}
	// Synced: the next fetch is a whole interval away, not a backoff step.
	time.Sleep(4 * bootRetry)
	if st := f.Status(); st.Fetches != 4 {
		t.Fatalf("%d fetches %v after the install; the interval is %v", st.Fetches, 4*bootRetry, f.Interval())
	}
}
