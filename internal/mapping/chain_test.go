package mapping

import (
	"reflect"
	"slices"
	"testing"

	"eum/internal/netmodel"
)

// shiftNet perturbs the base network model's pings for chosen endpoints,
// emulating measurement sweeps that keep refreshing targets.
type shiftNet struct {
	base  Prober
	shift map[uint64]float64
}

func (p *shiftNet) PingMs(a, b netmodel.Endpoint) float64 {
	return p.base.PingMs(a, b) + p.shift[a.ID] + p.shift[b.ID]
}

// TestArenaChainCompaction drives a long run of one-target incremental
// builds: the delta-arena chain must stay bounded by maxArenaChain
// (compacting back to a single base arena at the cap), no build may fall
// back to a full re-rank, and the final snapshot must still match a cold
// full build over the same accumulated measurements.
func TestArenaChainCompaction(t *testing.T) {
	prober := &shiftNet{base: testNet, shift: map[uint64]float64{}}
	cfg := Config{Policy: EndUser, PingTargets: 500, PartitionMiles: 75}
	b := NewSnapshotBuilder(testW, testP, prober, cfg)
	sn := b.Build(1, EndUser)

	// A spread of ping targets that certainly back live tables: the
	// targets standing in for partition representatives.
	var targets []uint64
	seen := map[uint64]bool{}
	for i := 0; i < len(testW.LDNSes) && len(targets) < 5; i += 17 {
		if ep, ok := b.Scorer().TargetFor(testW.LDNSes[i].Endpoint()); ok && !seen[ep.ID] {
			seen[ep.ID] = true
			targets = append(targets, ep.ID)
		}
	}
	if len(targets) < 2 {
		t.Fatalf("only %d distinct targets found", len(targets))
	}

	// Phase 1: one-target refreshes. The chain grows one delta per build
	// and compacts at the length cap.
	rounds := maxArenaChain + maxArenaChain/2
	compacted := false
	epoch := uint64(2)
	for i := 0; i < rounds; i++ {
		id := targets[i%len(targets)]
		prober.shift[id] += 3
		b.MarkMeasurementsDirty(id)
		sn = b.Build(epoch, EndUser)
		epoch++
		if n := sn.ArenaChainLen(); n > maxArenaChain {
			t.Fatalf("build %d: arena chain grew to %d (cap %d)", i, n, maxArenaChain)
		} else if n == 1 && i > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("chain never compacted back to a single arena")
	}

	// Phase 2: broad refreshes (every known target at once). The size
	// trigger must compact long before the length cap: accumulated deltas
	// never outweigh the base, so resident overhead stays under 2x.
	base := sn.lay.ArenaLen()
	for i := 0; i < 12; i++ {
		for _, id := range targets {
			prober.shift[id] += 1
		}
		b.MarkMeasurementsDirty(targets...)
		sn = b.Build(epoch, EndUser)
		epoch++
		if delta := sn.deltaEntries(); delta > base {
			t.Fatalf("broad build %d: %d delta entries outweigh the %d-entry base", i, delta, base)
		}
	}
	if st := b.BuildStats(); st.Full != 1 || st.Incremental != uint64(rounds+12) {
		t.Fatalf("builds: %d full / %d incremental, want 1 / %d", st.Full, st.Incremental, rounds+12)
	}

	cold := NewSnapshotBuilder(testW, testP, prober, cfg).Build(sn.Epoch(), EndUser)
	check := func(row func(*Snapshot) Row, what string) {
		t.Helper()
		got, want := flat(row(sn)), flat(row(cold))
		if len(got) != len(want) {
			t.Fatalf("%s: %d ranked vs cold %d", what, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s rank %d: %s, cold %s", what, j, depOf(got[j]).Name, depOf(want[j]).Name)
			}
		}
		if g, w := row(sn).Scores, row(cold).Scores; !slices.Equal(g, w) {
			t.Fatalf("%s: head scores %v, cold %v", what, g, w)
		}
	}
	for _, blk := range testW.Blocks {
		check(func(sn *Snapshot) Row { return blockRow(sn, blk) }, "block "+blk.Prefix.String())
	}
	for _, l := range testW.LDNSes {
		check(func(sn *Snapshot) Row { return ldnsRow(sn, l) }, "ldns "+l.Addr.String())
	}
}

// heldBytes sums capacity × element size over every array reachable from
// v, each counted once by its address, passing over the fields skip names.
func heldBytes(v reflect.Value, skip map[string]bool, seen map[uintptr]bool) uint64 {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return heldBytes(v.Elem(), skip, seen)
		}
	case reflect.Struct:
		n := uint64(0)
		for i := 0; i < v.NumField(); i++ {
			if !skip[v.Type().Field(i).Name] {
				n += heldBytes(v.Field(i), skip, seen)
			}
		}
		return n
	case reflect.Slice:
		if v.Cap() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := uint64(v.Cap()) * uint64(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k == reflect.Struct || k == reflect.Slice || k == reflect.Pointer {
			for i := 0; i < v.Len(); i++ {
				n += heldBytes(v.Index(i), skip, seen)
			}
		}
		return n
	}
	return 0
}

// TestMemoryBytesCountsColumns: MemoryBytes is the storage a snapshot
// holds — every array reachable from it, at capacity times element size,
// but the platform's deployments and the index (System.IndexBytes) — after
// a full build, after incremental builds that chain
// arenas, and after a compaction forced past maxArenaChain.
func TestMemoryBytesCountsColumns(t *testing.T) {
	skip := map[string]bool{"deps": true, "Index": true}
	check := func(sn *Snapshot, what string) {
		t.Helper()
		if got, want := sn.MemoryBytes(), heldBytes(reflect.ValueOf(sn), skip, map[uintptr]bool{}); got != want {
			t.Fatalf("%s (chain of %d): MemoryBytes %d, the snapshot holds %d", what, sn.ArenaChainLen(), got, want)
		}
	}
	prober := &shiftNet{base: testNet, shift: map[uint64]float64{}}
	b := NewSnapshotBuilder(testW, testP, prober, Config{Policy: EndUser, PingTargets: 500, PartitionMiles: 75})
	sn := b.Build(1, EndUser)
	check(sn, "full build")
	target, _ := b.Scorer().TargetFor(testW.LDNSes[0].Endpoint())
	chained := false
	for epoch := uint64(2); epoch < 2+maxArenaChain; epoch++ {
		prober.shift[target.ID]++
		b.MarkMeasurementsDirty(target.ID)
		sn = b.Build(epoch, EndUser)
		if sn.ArenaChainLen() > 1 {
			chained = true
			check(sn, "incremental build")
		} else if chained {
			check(sn, "compaction")
			return
		}
	}
	t.Fatalf("%d one-target builds never compacted the chain", maxArenaChain)
}
