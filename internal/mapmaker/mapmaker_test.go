package mapmaker

import (
	"context"
	"log"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/telemetry"
	"eum/internal/world"
)

var (
	testW   = world.MustGenerate(world.Config{Seed: 7, NumBlocks: 600})
	testNet = netmodel.NewDefault()
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

func newMapMaker(t testing.TB, cfg Config) *MapMaker {
	t.Helper()
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	sys := mapping.NewSystem(testW, p, testNet, mapping.Config{Policy: mapping.EndUser, PingTargets: 100})
	return New(sys, cfg)
}

// TestPublishEpochsMonotonic: every Publish installs a strictly newer
// epoch.
func TestPublishEpochsMonotonic(t *testing.T) {
	mm := newMapMaker(t, Config{})
	reg := telemetry.NewRegistry()
	mm.RegisterMetrics(reg)
	last := mm.Current().Epoch()
	for i := 0; i < 5; i++ {
		sn := mm.Publish()
		if sn.Epoch() <= last {
			t.Fatalf("publish %d: epoch %d did not advance past %d", i, sn.Epoch(), last)
		}
		if mm.Current() != sn {
			t.Fatalf("publish %d: published snapshot is not current", i)
		}
		last = sn.Epoch()
	}
	// NewSystem's first map, then five.
	if mm.Published() != 6 {
		t.Fatalf("Published = %d, want 6", mm.Published())
	}
	if metric(t, reg, "mapmaker_last_build_seconds") <= 0 {
		t.Fatal("mapmaker_last_build_seconds not recorded")
	}
}

// TestSyncCoalesces: any number of notifications between builds fold into
// one rebuild, and a Sync with none pending publishes nothing.
func TestSyncCoalesces(t *testing.T) {
	mm := newMapMaker(t, Config{})
	e0 := mm.Current().Epoch()

	for i := 0; i < 10; i++ {
		mm.NotifyMeasurement(uint64(i))
	}
	sn := mm.Sync()
	if sn.Epoch() != e0+1 {
		t.Fatalf("10 notifications cost %d epochs, want 1", sn.Epoch()-e0)
	}
	if again := mm.Sync(); again != sn {
		t.Fatalf("clean Sync rebuilt: epoch %d -> %d", sn.Epoch(), again.Epoch())
	}
	if mm.Published() != 2 {
		t.Fatalf("Published = %d, want 2 (the first map and one rebuild)", mm.Published())
	}
}

// TestHealthSignalFlow checks liveness end to end through a publish: the
// deployment a client maps to goes down, the next published epoch routes
// the client around it, and its recovery brings the client home. Liveness
// is read per pick, so the map itself need not change.
func TestHealthSignalFlow(t *testing.T) {
	mm := newMapMaker(t, Config{})
	sys := mm.System()

	blk := testW.Blocks[0]
	req := mapping.Request{Domain: "health.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
	before, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	home := before.Deployment

	setAlive := func(alive bool) {
		for _, s := range home.Servers {
			s.SetAlive(alive)
		}
	}

	e0 := mm.Current().Epoch()
	setAlive(false)
	sn := mm.Publish()
	if sn.Epoch() <= e0 {
		t.Fatalf("publish after the outage did not advance: epoch %d after %d", sn.Epoch(), e0)
	}
	after, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Deployment == home {
		t.Fatal("client still mapped to dead deployment")
	}
	if after.Epoch != sn.Epoch() {
		t.Fatalf("decision epoch %d, want published %d", after.Epoch, sn.Epoch())
	}

	setAlive(true)
	mm.Publish()
	back, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if back.Deployment != home {
		t.Fatalf("client did not return home after recovery: %s", back.Deployment.Name)
	}
}

// TestMeasurementRefreshRecomputes: a measurement notification must make
// the next build re-rank the scoring tables, visible as one more full
// build on the builder; a periodic publish with none pending re-ranks
// nothing.
func TestMeasurementRefreshRecomputes(t *testing.T) {
	mm := newMapMaker(t, Config{})
	b := mm.System().Builder()
	st0 := b.BuildStats()

	mm.Publish()
	st1 := b.BuildStats()
	if st1.Full != st0.Full || st1.RerankedTables != st0.RerankedTables {
		t.Fatalf("periodic publish re-ranked tables: builds %+v → %+v", st0, st1)
	}

	mm.NotifyMeasurement()
	sn := mm.Sync()
	if st2 := b.BuildStats(); st2.Full != st1.Full+1 {
		t.Fatalf("measurement publish: full builds %d → %d, want +1", st1.Full, st2.Full)
	}
	if mm.Current() != sn {
		t.Fatal("measurement publish not installed")
	}
}

// TestRunPublishesOnCadence: the production loop publishes periodically,
// then stops with its context.
func TestRunPublishesOnCadence(t *testing.T) {
	mm := newMapMaker(t, Config{Interval: 5 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		mm.Run(ctx)
		close(done)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for mm.Published() < 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done

	if mm.Published() < 4 {
		t.Fatalf("Published = %d after cadence window, want >= 4 (the first map and three ticks)", mm.Published())
	}
}

// TestBuildFailureKeepsLastGood: a panicking build must not tear down the
// published map or advance the publish counter — the data plane keeps
// serving the last good snapshot, and the failure is counted on /metrics
// and logged with its cause.
func TestBuildFailureKeepsLastGood(t *testing.T) {
	mm := newMapMaker(t, Config{})
	reg := telemetry.NewRegistry()
	mm.RegisterMetrics(reg)
	good := mm.Publish()
	var logged strings.Builder
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	mm.SetBuildFault(func() { panic("pipeline crash") })
	mm.NotifyMeasurement()
	if sn := mm.Publish(); sn != good {
		t.Fatalf("failed build replaced the published snapshot: epoch %d -> %d",
			good.Epoch(), sn.Epoch())
	}
	if mm.Current() != good {
		t.Fatal("current snapshot changed after a failed build")
	}
	if mm.Published() != 2 {
		t.Fatalf("Published = %d, want 2 (failed builds must not count)", mm.Published())
	}
	if mm.BuildFailures() != 1 {
		t.Fatalf("BuildFailures = %d, want 1", mm.BuildFailures())
	}
	if got := metric(t, reg, "mapmaker_build_failures_total"); got != 1 {
		t.Fatalf("mapmaker_build_failures_total = %v, want the failure recorded", got)
	}
	if got := metric(t, reg, "mapmaker_published_total"); got != 2 {
		t.Fatalf("mapmaker_published_total = %v, want 2", got)
	}
	if !strings.Contains(logged.String(), "pipeline crash") {
		t.Fatalf("the failed build logged %q, want its cause", logged.String())
	}
}

// TestFailedBuildRetainsDirty: a failed build leaves its work pending, so
// the next Sync, with no new notification, retries it.
func TestFailedBuildRetainsDirty(t *testing.T) {
	mm := newMapMaker(t, Config{})
	e0 := mm.Current().Epoch()

	mm.SetBuildFault(func() { panic("transient") })
	mm.NotifyMeasurement()
	if sn := mm.Sync(); sn.Epoch() != e0 {
		t.Fatalf("failed Sync advanced the epoch to %d", sn.Epoch())
	}

	mm.SetBuildFault(nil)
	// No new notification: the retained one alone must trigger the rebuild.
	if sn := mm.Sync(); sn.Epoch() != e0+1 {
		t.Fatalf("recovered Sync epoch = %d, want %d", sn.Epoch(), e0+1)
	}
}

// TestRunSurvivesBuildPanics: the Run loop keeps publishing after builds
// panic mid-flight.
func TestRunSurvivesBuildPanics(t *testing.T) {
	mm := newMapMaker(t, Config{Interval: time.Millisecond})
	var n atomic.Uint64
	mm.SetBuildFault(func() {
		if n.Add(1) <= 2 {
			panic("crash")
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); mm.Run(ctx) }()

	e0 := mm.Current().Epoch()
	deadline := time.After(5 * time.Second)
	for mm.Current().Epoch() == e0 {
		select {
		case <-deadline:
			t.Fatal("Run loop never recovered from panicking builds")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done

	if mm.BuildFailures() < 2 {
		t.Fatalf("BuildFailures = %d, want >= 2", mm.BuildFailures())
	}
	if mm.Current().Epoch() <= e0 {
		t.Fatal("no fresh snapshot after recovery")
	}
}
