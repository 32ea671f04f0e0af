package mapmaker

import (
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
)

// shiftProber wraps the network model and lets a test mutate the measured
// ping of paths touching specific endpoints — a stand-in for a measurement
// sweep refreshing one ping target's vector.
type shiftProber struct {
	base *netmodel.Model

	mu    sync.Mutex
	shift map[uint64]float64
}

func (p *shiftProber) PingMs(a, b netmodel.Endpoint) float64 {
	ms := p.base.PingMs(a, b)
	p.mu.Lock()
	ms += p.shift[a.ID] + p.shift[b.ID]
	p.mu.Unlock()
	return ms
}

func (p *shiftProber) setShift(id uint64, ms float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shift == nil {
		p.shift = map[uint64]float64{}
	}
	p.shift[id] = ms
}

// TestIncrementalBuildOneTarget is the incremental-build regression test:
// after one ping target's measurement changes, a NotifyMeasurement-scoped
// publish must re-rank only the tables that target serves (counter on the
// builder), and the resulting snapshot must be bitwise-equal to a cold
// full build over the same measurements at the same epoch.
func TestIncrementalBuildOneTarget(t *testing.T) {
	prober := &shiftProber{base: testNet}
	platform := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 100, PartitionMiles: 75}
	sys := mapping.NewSystem(testW, platform, prober, cfg)
	mm := New(sys, Config{})
	sc := sys.Scorer()

	// Pick a ping target that certainly backs a published table: the first
	// universe endpoint (LDNS 0) always represents its own partition, so
	// the target standing in for it is interned onto a live segment.
	targetEp, ok := sc.TargetFor(testW.LDNSes[0].Endpoint())
	if !ok {
		t.Fatal("clustering off")
	}
	targetID := targetEp.ID
	if _, ok := sc.TargetIndex(targetID); !ok {
		t.Fatal("TargetFor returned a non-target")
	}

	tables := sys.Current().Tables()

	// Warm republish with no signals beyond the cadence: the arena must be
	// shared wholesale — an incremental build re-ranking nothing.
	st0 := sys.Builder().BuildStats()
	mm.Publish()
	st1 := sys.Builder().BuildStats()
	want := st0
	want.Incremental++
	if st1 != want {
		t.Fatalf("warm publish: builds %+v → %+v, want one incremental re-ranking nothing", st0, st1)
	}

	// Mutate the target's measurement and feed a scoped refresh.
	prober.setShift(targetID, 40)
	mm.NotifyMeasurement(targetID)
	sn := mm.Sync()

	// LDNS 0's is the first segment of the layout, so its endpoint also
	// ranks its region's tail: one incremental build re-ranking one head (of
	// the layout's many) and that one tail, nothing else.
	st2 := sys.Builder().BuildStats()
	want.Incremental++
	want.RerankedTables++
	want.RerankedTails++
	if st2 != want {
		t.Fatalf("scoped refresh: builds %+v → %+v, want %+v (of %d tables)", st1, st2, want, tables)
	}

	// Bitwise equality with a cold full build at the same epoch over the
	// same (mutated) measurements.
	cold := mapping.NewSnapshotBuilder(testW, platform, prober, cfg).Build(sn.Epoch(), sn.Policy())
	if cold.Epoch() != sn.Epoch() || cold.Policy() != sn.Policy() {
		t.Fatal("cold rebuild epoch/policy mismatch")
	}
	checkEqual := func(got, want mapping.Row, what string) {
		t.Helper()
		if !slices.Equal(got.Head, want.Head) {
			t.Fatalf("%s: incremental head %v, cold %v", what, got.Head, want.Head)
		}
		if !slices.Equal(got.Tail, want.Tail) {
			t.Fatalf("%s: incremental tail differs from the cold build's", what)
		}
	}
	clientRow := func(sn *mapping.Snapshot, p netip.Prefix) mapping.Row { r, _ := sn.ClientRow(p); return r }
	resolverRow := func(sn *mapping.Snapshot, a netip.Addr) mapping.Row { r, _ := sn.ResolverRow(a); return r }
	for _, b := range testW.Blocks {
		checkEqual(clientRow(sn, b.Prefix), clientRow(cold, b.Prefix), "block "+b.Prefix.String())
	}
	for _, l := range testW.LDNSes {
		checkEqual(resolverRow(sn, l.Addr), resolverRow(cold, l.Addr), "ldns "+l.Addr.String())
	}
	unknownClient, unknownLDNS := netip.MustParsePrefix("255.255.255.0/24"), netip.MustParseAddr("198.51.100.9")
	checkEqual(clientRow(sn, unknownClient), clientRow(cold, unknownClient), "client fallback")
	checkEqual(resolverRow(sn, unknownLDNS), resolverRow(cold, unknownLDNS), "ldns fallback")

	// An unscoped measurement refresh still re-ranks everything.
	mm.NotifyMeasurement()
	mm.Sync()
	st3 := sys.Builder().BuildStats()
	if st3.Full != st2.Full+1 {
		t.Fatalf("unscoped refresh: full builds %d→%d, want +1", st2.Full, st3.Full)
	}
	if got := st3.RerankedTables - st2.RerankedTables; got != uint64(tables) {
		t.Fatalf("unscoped refresh re-ranked %d tables, want all %d", got, tables)
	}
}

// TestIncrementalScopeSurvivesFailedBuild: a build that crashes after
// claiming a scoped measurement refresh must not lose the scope — the
// retry re-ranks the dirty target's tables.
func TestIncrementalScopeSurvivesFailedBuild(t *testing.T) {
	prober := &shiftProber{base: testNet}
	platform := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	sys := mapping.NewSystem(testW, platform, prober,
		mapping.Config{Policy: mapping.EndUser, PingTargets: 100, PartitionMiles: 75})
	mm := New(sys, Config{})
	sc := sys.Scorer()

	targetEp, ok := sc.TargetFor(testW.LDNSes[0].Endpoint())
	if !ok {
		t.Fatal("clustering off")
	}
	targetID := targetEp.ID

	mm.SetBuildFault(func() { panic("injected build crash") })
	prober.setShift(targetID, 25)
	mm.NotifyMeasurement(targetID)
	before := sys.Current()
	if mm.Sync() != before {
		t.Fatal("failed build replaced the published snapshot")
	}
	if mm.BuildFailures() != 1 {
		t.Fatalf("BuildFailures = %d, want 1", mm.BuildFailures())
	}

	mm.SetBuildFault(nil)
	sn := mm.Sync() // reasons and scope were re-armed
	if sn == before {
		t.Fatal("retry did not publish")
	}
	cold := mapping.NewSnapshotBuilder(testW, platform, prober,
		mapping.Config{Policy: mapping.EndUser, PingTargets: 100, PartitionMiles: 75}).
		Build(sn.Epoch(), sn.Policy())
	for i := 0; i < len(testW.Blocks); i += 7 {
		b := testW.Blocks[i]
		got, _ := sn.ClientRow(b.Prefix)
		want, _ := cold.ClientRow(b.Prefix)
		if !slices.Equal(got.Head, want.Head) || !slices.Equal(got.Tail, want.Tail) {
			t.Fatalf("block %v ranking diverged after failed-build retry", b.Prefix)
		}
	}
}

// parkProber wraps the network model and, once armed, parks every
// measurement until released: a build in flight that a test can hold open.
type parkProber struct {
	base    *netmodel.Model
	armed   atomic.Bool
	entered chan struct{} // closed by the first parked measurement
	once    sync.Once
	release chan struct{}
}

func (p *parkProber) PingMs(a, b netmodel.Endpoint) float64 {
	if p.armed.Load() {
		p.once.Do(func() { close(p.entered) })
		<-p.release
	}
	return p.base.PingMs(a, b)
}

// TestMeasurementMarkDuringBuild: a scoped measurement mark made while a
// full build is running neither waits for that build nor is lost by it —
// the next build re-ranks exactly the marked target's table.
func TestMeasurementMarkDuringBuild(t *testing.T) {
	prober := &parkProber{base: testNet, entered: make(chan struct{}), release: make(chan struct{})}
	platform := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	sys := mapping.NewSystem(testW, platform, prober,
		mapping.Config{Policy: mapping.EndUser, PingTargets: 100, PartitionMiles: 75})
	mm := New(sys, Config{})
	targetEp, ok := sys.Scorer().TargetFor(testW.LDNSes[0].Endpoint())
	if !ok {
		t.Fatal("clustering off")
	}

	prober.armed.Store(true)
	mm.NotifyMeasurement()
	built := make(chan struct{})
	go func() { defer close(built); mm.Sync() }()
	select {
	case <-prober.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the full build never measured anything")
	}

	marked := make(chan struct{})
	go func() { defer close(marked); mm.NotifyMeasurement(targetEp.ID) }()
	select {
	case <-marked:
	case <-time.After(2 * time.Second):
		close(prober.release)
		t.Fatal("NotifyMeasurement waited for the running build")
	}
	prober.armed.Store(false)
	close(prober.release)
	<-built

	st0 := sys.Builder().BuildStats()
	mm.Sync()
	st1 := sys.Builder().BuildStats()
	if st1.Full != st0.Full || st1.Incremental != st0.Incremental+1 || st1.RerankedTables != st0.RerankedTables+1 {
		t.Fatalf("build after a mid-build mark: builds %+v → %+v, want one incremental re-ranking one table", st0, st1)
	}
}
