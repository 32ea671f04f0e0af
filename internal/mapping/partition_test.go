package mapping

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"eum/internal/geo"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// TestPartitionIdentityEquivalence is the partition-equivalence property
// test: with the similarity threshold at 0 (identity partitioning — every
// endpoint its own partition), the partitioned, interned-arena snapshot
// must return byte-identical heads and first live picks to the
// pre-partition per-endpoint tables, whose contract is the scorer's own
// ranking for the same endpoint. Checked for every block and every LDNS,
// not a sample, each looked up by the address a query carries.
func TestPartitionIdentityEquivalence(t *testing.T) {
	sys := NewSystem(testW, testP, testNet, Config{Policy: EndUser, PingTargets: 1000})
	sn := sys.Current()
	sc := sys.Scorer()

	if got, want := sn.Partitions(), sn.Endpoints(); got != want {
		t.Fatalf("identity partitioning: %d partitions for %d endpoints", got, want)
	}

	checkEndpoint := func(ep netmodel.Endpoint, row Row, what string) {
		t.Helper()
		got := row.Head
		want := sc.Rank(ep)
		if len(got) != sn.lay.TableLen {
			t.Fatalf("%s %d: head of %d, want %d", what, ep.ID, len(got), sn.lay.TableLen)
		}
		want = want[:len(got)]
		if len(got) != len(want) {
			t.Fatalf("%s %d: %d ranked, want %d", what, ep.ID, len(got), len(want))
		}
		for j := range got {
			if depOf(got[j]) != depOf(want[j]) || got[j].Score() != want[j].Score() {
				t.Fatalf("%s %d rank %d: %s/%v, want %s/%v", what, ep.ID, j,
					depOf(got[j]).Name, got[j].Score(), depOf(want[j]).Name, want[j].Score())
			}
		}
		// The first live entry of the row is the reference table's.
		gotD, gotS := sn.FirstLive(row)
		var wantD = gotD
		var wantS = gotS
		for _, r := range want {
			if depOf(r).Alive() {
				wantD, wantS = depOf(r), r.Score()
				break
			}
		}
		if gotD != wantD || gotS != wantS {
			t.Fatalf("%s %d: FirstLive = %v/%v, want %v/%v", what, ep.ID, gotD, gotS, wantD, wantS)
		}
	}

	for _, b := range testW.Blocks {
		checkEndpoint(b.Endpoint(), blockRow(sn, b), "block")
	}
	for _, l := range testW.LDNSes {
		checkEndpoint(l.Endpoint(), ldnsRow(sn, l), "ldns")
	}
}

// TestPartitionThresholdClusters: with a similarity threshold set, nearby
// same-AS endpoints collapse into shared partitions (fewer partitions than
// endpoints), every endpoint still resolves to a table, and the interned
// arena stays bounded by the ping-target set.
func TestPartitionThresholdClusters(t *testing.T) {
	sys := NewSystem(testW, testP, testNet,
		Config{Policy: EndUser, PingTargets: 1000, PartitionMiles: 100})
	sn := sys.Current()

	if sn.Partitions() >= sn.Endpoints() {
		t.Fatalf("threshold partitioning did not cluster: %d partitions for %d endpoints",
			sn.Partitions(), sn.Endpoints())
	}
	if sn.Tables() > 1000+2 {
		t.Fatalf("interning failed: %d tables for 1000 ping targets", sn.Tables())
	}
	for i := 0; i < len(testW.Blocks); i += 97 {
		b := testW.Blocks[i]
		r, ok := sn.ClientRow(b.Prefix)
		if !ok || r.Len() != len(testP.Deployments) {
			t.Fatalf("block %v: row has %d candidates (found %v), want %d", b.Prefix, r.Len(), ok, len(testP.Deployments))
		}
		if d, _ := sn.FirstLive(r); d == nil {
			t.Fatalf("block %v: no live deployment", b.Prefix)
		}
	}

	// Partition sharing must respect the routing signature: two blocks in
	// the same partition share a rank table (same backing segment).
	seen := map[int32][]Ranked{}
	shared := 0
	for _, b := range testW.Blocks {
		p, ok := sn.lay.Index.client(b.Prefix)
		if !ok {
			t.Fatalf("block %v not indexed", b.Prefix)
		}
		if prev, ok := seen[p]; ok {
			cur := sn.row(p).Head
			if &prev[0] != &cur[0] {
				t.Fatalf("partition %d: table backing changed between lookups", p)
			}
			shared++
		} else {
			seen[p] = sn.row(p).Head
		}
	}
	if shared == 0 {
		t.Fatal("no two blocks shared a partition at a 100-mile threshold")
	}
}

// TestNearestTargetMatchesLinearScan pins the latitude-band nearest-target
// search to the semantics of the linear argmin it replaced: smallest
// distance, ties to the lowest target index. It also runs over a world
// whose top blocks, and so ping targets, sit in threes at one point: ties
// in distance that only the index breaks, which the chord floor must not
// turn away.
func TestNearestTargetMatchesLinearScan(t *testing.T) {
	stacked := world.MustGenerate(world.Config{Seed: 9, NumBlocks: 3000})
	top := slices.Clone(stacked.Blocks)
	slices.SortStableFunc(top, func(a, b *world.ClientBlock) int { return cmp.Compare(b.Demand, a.Demand) })
	for k := 0; k+2 < 700; k += 9 {
		top[k+1].Loc, top[k+2].Loc = top[k].Loc, top[k].Loc
	}
	for _, w := range []*world.World{testW, stacked} {
		sc := NewScorer(w, testP, testNet, 700)
		linear := func(ep netmodel.Endpoint) int {
			best, bestD := 0, distanceFor(sc, 0, ep)
			for i := 1; i < len(sc.targets); i++ {
				if d := distanceFor(sc, i, ep); d < bestD {
					best, bestD = i, d
				}
			}
			return best
		}
		ties := 0
		for i, tgt := range sc.targets {
			ep := tgt
			ep.ID = 1 << 40 // not a target's own ID: found by distance alone
			if got, want := sc.nearestTarget(ep), linear(ep); got != want {
				t.Fatalf("the point of target %d: nearestTarget = %d, linear scan = %d", i, got, want)
			} else if got != i {
				ties++
			}
		}
		if w == stacked && ties == 0 {
			t.Fatal("no two ping targets share a point")
		}
		for i := 0; i < len(w.Blocks); i += 13 {
			ep := w.Blocks[i].Endpoint()
			if got, want := sc.nearestTarget(ep), linear(ep); got != want {
				t.Fatalf("block %d: nearestTarget = %d, linear scan = %d", ep.ID, got, want)
			}
		}
		for _, l := range w.LDNSes {
			ep := l.Endpoint()
			if got, want := sc.nearestTarget(ep), linear(ep); got != want {
				t.Fatalf("ldns %d: nearestTarget = %d, linear scan = %d", ep.ID, got, want)
			}
		}
	}
}

// TestSnapshotMemoryAccounting: the reported footprint covers the arena
// and indexes, and stays far below a map-of-slices layout (which cost a
// map entry plus a slice header per endpoint).
func TestSnapshotMemoryAccounting(t *testing.T) {
	sys := NewSystem(testW, testP, testNet,
		Config{Policy: EndUser, PingTargets: 500, PartitionMiles: 50})
	sn := sys.Current()
	if sn.MemoryBytes() == 0 || sys.IndexBytes() == 0 {
		t.Fatal("zero memory accounting")
	}
	// The per-endpoint cost of everything but the target-bounded arena
	// chain — the index (12 bytes a v4 leaf, 20 a resolver), the table maps
	// and the row headers — must be a few bytes per endpoint.
	arena := uint64(sn.lay.ArenaLen()) * uint64(unsafe.Sizeof(Ranked{}))
	perEndpoint := float64(sn.MemoryBytes()+sys.IndexBytes()-arena) / float64(sn.Endpoints())
	if perEndpoint > 24 {
		t.Fatalf("index cost %.1f bytes/endpoint, want a few", perEndpoint)
	}
}

func distanceFor(sc *Scorer, i int, ep netmodel.Endpoint) float64 {
	return geo.Distance(ep.Loc, sc.targets[i].Loc)
}
