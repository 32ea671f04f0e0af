package mapmaker

import (
	"sync"
	"testing"

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
	full0, inc0, rr0 := sys.Builder().BuildStats()
	mm.Publish()
	full1, inc1, rr1 := sys.Builder().BuildStats()
	if full1 != full0 || inc1 != inc0+1 || rr1 != rr0 {
		t.Fatalf("warm publish: builds full %d→%d inc %d→%d reranked %d→%d, want one incremental re-ranking nothing",
			full0, full1, inc0, inc1, rr0, rr1)
	}

	// Mutate the target's measurement and feed a scoped refresh.
	prober.setShift(targetID, 40)
	mm.NotifyMeasurement(targetID)
	sn := mm.Sync()

	full2, inc2, rr2 := sys.Builder().BuildStats()
	if full2 != full1 {
		t.Fatalf("scoped refresh triggered a full build (%d→%d)", full1, full2)
	}
	if inc2 != inc1+1 {
		t.Fatalf("scoped refresh: incremental builds %d→%d, want +1", inc1, inc2)
	}
	if got := rr2 - rr1; got != 1 {
		t.Fatalf("scoped refresh re-ranked %d tables, want exactly the dirty target's 1 (of %d)", got, tables)
	}

	// Bitwise equality with a cold full build at the same epoch over the
	// same (mutated) measurements.
	cold := mapping.NewSnapshotBuilder(testW, platform, prober, cfg).Build(sn.Epoch(), sn.Policy())
	if cold.Epoch() != sn.Epoch() || cold.Policy() != sn.Policy() {
		t.Fatal("cold rebuild epoch/policy mismatch")
	}
	checkEqual := func(id uint64, client bool, what string) {
		t.Helper()
		got, want := sn.RankOf(id, client), cold.RankOf(id, client)
		if len(got) != len(want) {
			t.Fatalf("%s %d: %d ranked vs cold %d", what, id, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s %d rank %d: incremental deployment %d/%v, cold %d/%v", what, id, j,
					got[j].Dep, got[j].Score(), want[j].Dep, want[j].Score())
			}
		}
	}
	for _, b := range testW.Blocks {
		checkEqual(b.ID, true, "block")
	}
	for _, l := range testW.LDNSes {
		checkEqual(l.ID, false, "ldns")
	}
	checkEqual(^uint64(0)-9, true, "client fallback")
	checkEqual(^uint64(0)-9, false, "ldns fallback")

	// An unscoped measurement refresh still re-ranks everything.
	mm.Notify(ReasonMeasurement)
	mm.Sync()
	full3, _, rr3 := sys.Builder().BuildStats()
	if full3 != full2+1 {
		t.Fatalf("unscoped refresh: full builds %d→%d, want +1", full2, full3)
	}
	if rr3-rr2 != uint64(tables) {
		t.Fatalf("unscoped refresh re-ranked %d tables, want all %d", rr3-rr2, tables)
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
		got, want := sn.RankOf(b.ID, true), cold.RankOf(b.ID, true)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("block %v rank %d diverged after failed-build retry", b.Prefix, j)
			}
		}
	}
}
