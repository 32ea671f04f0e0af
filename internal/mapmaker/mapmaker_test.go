package mapmaker

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

var (
	testW   = world.MustGenerate(world.Config{Seed: 7, NumBlocks: 600})
	testNet = netmodel.NewDefault()
)

func newMapMaker(t testing.TB, pol mapping.Policy) (*MapMaker, *cdn.Platform) {
	t.Helper()
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	sys := mapping.NewSystem(testW, p, testNet, mapping.Config{Policy: pol, PingTargets: 100})
	return New(sys, Config{}), p
}

// TestPublishEpochsMonotonic: every Publish installs a strictly newer
// epoch.
func TestPublishEpochsMonotonic(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.EndUser)
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
	if mm.Published() != 5 {
		t.Fatalf("Published = %d, want 5", mm.Published())
	}
	if mm.LastBuildDuration() <= 0 {
		t.Fatal("LastBuildDuration not recorded")
	}
}

// TestSyncCoalesces: any number of signals between builds fold into one
// rebuild, and a Sync with no pending signals publishes nothing.
func TestSyncCoalesces(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.EndUser)
	e0 := mm.Current().Epoch()

	for i := 0; i < 10; i++ {
		mm.Notify(ReasonHealth)
	}
	sn := mm.Sync()
	if sn.Epoch() != e0+1 {
		t.Fatalf("10 notifications cost %d epochs, want 1", sn.Epoch()-e0)
	}
	if again := mm.Sync(); again != sn {
		t.Fatalf("clean Sync rebuilt: epoch %d -> %d", sn.Epoch(), again.Epoch())
	}
	if mm.Published() != 1 {
		t.Fatalf("Published = %d, want 1", mm.Published())
	}
}

// TestHealthSignalFlow wires a health monitor's change callback into the
// change feed and checks the loop end to end: an outage makes the feed
// dirty, Sync publishes a fresh epoch, and the data plane routes the
// client around the dead deployment.
func TestHealthSignalFlow(t *testing.T) {
	mm, p := newMapMaker(t, mapping.EndUser)
	sys := mm.System()

	blk := testW.Blocks[0]
	req := mapping.Request{Domain: "health.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
	before, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	home := before.Deployment

	t0 := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	faults := &cdn.ScheduledFaults{}
	for _, s := range home.Servers {
		faults.Add(s.ID, t0.Add(time.Minute), t0.Add(3*time.Minute))
	}
	mon, err := cdn.NewMonitor(p, faults, 10*time.Second, mm.OnDeploymentChange)
	if err != nil {
		t.Fatal(err)
	}

	mon.Tick(t0)
	e0 := mm.Sync().Epoch()

	if changed, _ := mon.Tick(t0.Add(time.Minute)); changed != 1 {
		t.Fatalf("outage not detected: changed=%d", changed)
	}
	sn := mm.Sync()
	if sn.Epoch() <= e0 {
		t.Fatalf("health event did not publish: epoch %d after %d", sn.Epoch(), e0)
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
}

// TestSetPolicyFlowsThroughFeed: the flip is recorded immediately but the
// served policy only changes when the pipeline publishes.
func TestSetPolicyFlowsThroughFeed(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.NSBased)
	sys := mm.System()

	mm.SetPolicy(mapping.EndUser)
	if got := sys.Policy(); got != mapping.NSBased {
		t.Fatalf("policy flipped before publish: %v", got)
	}
	sn := mm.Sync()
	if sn.Policy() != mapping.EndUser || sys.Policy() != mapping.EndUser {
		t.Fatalf("policy after Sync = %v (snapshot %v), want EU", sys.Policy(), sn.Policy())
	}
}

// TestMeasurementRefreshRecomputes: a measurement signal must make the
// next build re-rank the scoring tables, visible as one more full build on
// the builder; a health-only publish re-ranks nothing.
func TestMeasurementRefreshRecomputes(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.EndUser)
	b := mm.System().Builder()
	st0 := b.BuildStats()

	mm.Notify(ReasonHealth)
	mm.Sync()
	st1 := b.BuildStats()
	if st1.Full != st0.Full || st1.RerankedTables != st0.RerankedTables {
		t.Fatalf("health-only publish re-ranked tables: builds %+v → %+v", st0, st1)
	}

	mm.Notify(ReasonMeasurement)
	sn := mm.Sync()
	if st2 := b.BuildStats(); st2.Full != st1.Full+1 {
		t.Fatalf("measurement publish: full builds %d → %d, want +1", st1.Full, st2.Full)
	}
	if mm.Current() != sn {
		t.Fatal("measurement publish not installed")
	}
}

// TestRunPublishesOnCadence: the production loop publishes periodically
// and reacts to the change feed, then stops with its context.
func TestRunPublishesOnCadence(t *testing.T) {
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	sys := mapping.NewSystem(testW, p, testNet, mapping.Config{Policy: mapping.EndUser, PingTargets: 100})
	mm := New(sys, Config{Interval: 5 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		mm.Run(ctx)
		close(done)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for mm.Published() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	mm.Notify(ReasonHealth)
	cancel()
	<-done

	if mm.Published() < 3 {
		t.Fatalf("Published = %d after cadence window, want >= 3", mm.Published())
	}
}

// TestBuildFailureKeepsLastGood: a panicking build must not tear down the
// published map or advance the publish counter — the data plane keeps
// serving the last good snapshot and the failure is recorded.
func TestBuildFailureKeepsLastGood(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.EndUser)
	good := mm.Publish()

	mm.SetBuildFault(func() { panic("pipeline crash") })
	mm.Notify(ReasonMeasurement)
	if sn := mm.Publish(); sn != good {
		t.Fatalf("failed build replaced the published snapshot: epoch %d -> %d",
			good.Epoch(), sn.Epoch())
	}
	if mm.Current() != good {
		t.Fatal("current snapshot changed after a failed build")
	}
	if mm.Published() != 1 {
		t.Fatalf("Published = %d, want 1 (failed builds must not count)", mm.Published())
	}
	if mm.BuildFailures() != 1 {
		t.Fatalf("BuildFailures = %d, want 1", mm.BuildFailures())
	}
	f := mm.LastBuildFailure()
	if f == nil || f.Err == nil {
		t.Fatalf("LastBuildFailure = %+v, want recorded error", f)
	}
	if f.Reasons&ReasonMeasurement == 0 || f.Reasons&ReasonPeriodic == 0 {
		t.Fatalf("failure reasons = %b, want measurement|periodic", f.Reasons)
	}
}

// TestFailedBuildRetainsDirty: the reasons a failed build claimed stay
// pending, so the next build (here a Sync with no new signals) retries them.
func TestFailedBuildRetainsDirty(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.EndUser)
	e0 := mm.Current().Epoch()

	mm.SetBuildFault(func() { panic("transient") })
	mm.Notify(ReasonHealth)
	if sn := mm.Sync(); sn.Epoch() != e0 {
		t.Fatalf("failed Sync advanced the epoch to %d", sn.Epoch())
	}

	mm.SetBuildFault(nil)
	// No new Notify: the retained reasons alone must trigger the rebuild.
	if sn := mm.Sync(); sn.Epoch() != e0+1 {
		t.Fatalf("recovered Sync epoch = %d, want %d", sn.Epoch(), e0+1)
	}
}

// TestRunSurvivesBuildPanics: the Run loop keeps publishing after builds
// panic mid-flight.
func TestRunSurvivesBuildPanics(t *testing.T) {
	mm, _ := newMapMaker(t, mapping.EndUser)
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
		mm.Notify(ReasonHealth)
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
