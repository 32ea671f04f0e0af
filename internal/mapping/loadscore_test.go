package mapping

import (
	"math"
	"slices"
	"testing"

	"eum/internal/cdn"
)

// rankTablesEqual compares every block's and LDNS's rank table (and Best)
// across two snapshots, entry by entry — deployment identity and exact
// score bits.
func rankTablesEqual(t *testing.T, a, b *Snapshot, wantEqual bool, what string) bool {
	t.Helper()
	equal := true
	check := func(id uint64, client bool) {
		ra, rb := flat(a.RankOf(id, client)), flat(b.RankOf(id, client))
		if len(ra) != len(rb) {
			t.Fatalf("%s: endpoint %d table lengths %d vs %d", what, id, len(ra), len(rb))
		}
		for j := range ra {
			if depOf(ra[j]) != depOf(rb[j]) || ra[j].Score() != rb[j].Score() {
				equal = false
				if wantEqual {
					t.Fatalf("%s: endpoint %d rank %d: %s/%v vs %s/%v", what, id, j,
						depOf(ra[j]).Name, ra[j].Score(), depOf(rb[j]).Name, rb[j].Score())
				}
				return
			}
		}
	}
	for _, blk := range testW.Blocks {
		check(blk.Endpoint().ID, true)
	}
	for _, l := range testW.LDNSes {
		check(l.Endpoint().ID, false)
	}
	return equal
}

// TestBalanceZeroByteIdentical is the β=0 property test (the load-scoring
// analogue of TestPartitionIdentityEquivalence): a builder with
// BalanceFactor 0 must produce byte-identical rank tables to the
// pre-load-scoring builder regardless of platform load, and a β>0 builder
// at zero utilization must match them too (stable sort, factor 1
// everywhere). Under load the β>0 builder must diverge — spilling hot
// deployments down its tables — while keeping raw ping scores intact, and
// must reconverge byte-identically once the load recedes.
func TestBalanceZeroByteIdentical(t *testing.T) {
	base := NewSystem(testW, testP, testNet, Config{Policy: EndUser, PingTargets: 600})
	loaded := NewSystem(testW, testP, testNet,
		Config{Policy: EndUser, PingTargets: 600, BalanceFactor: 2})
	testP.ResetLoad()
	defer testP.ResetLoad()

	snA0 := base.Rebuild()
	snB0 := loaded.Rebuild()
	rankTablesEqual(t, snA0, snB0, true, "zero-load β=2 vs β=0")

	// Overload the deployment nearest to the first block: util 2.0.
	hot := depOf(snA0.RankOf(testW.Blocks[0].Endpoint().ID, true).Head[0])
	hot.Servers[0].AddLoad(2 * hot.Capacity())

	snA1 := base.Rebuild()
	rankTablesEqual(t, snA0, snA1, true, "β=0 under load vs β=0 idle")

	snB1 := loaded.Rebuild()
	if rankTablesEqual(t, snA1, snB1, false, "") {
		t.Fatal("β=2 tables unchanged under overload — no spill happened")
	}
	// The overloaded deployment must shed head positions: strictly fewer
	// blocks rank it first under β=2 (factor 9 at util 2) than under
	// proximity. (It may keep blocks whose next-nearest alternative is
	// more than 9× the ping away — spill never beats a 9× detour.)
	heads := func(sn *Snapshot) int {
		n := 0
		for _, blk := range testW.Blocks {
			if depOf(sn.RankOf(blk.Endpoint().ID, true).Head[0]) == hot {
				n++
			}
		}
		return n
	}
	if ha, hb := heads(snA1), heads(snB1); hb >= ha {
		t.Errorf("overloaded %s heads %d tables under β=2, %d under proximity — no shed",
			hot.Name, hb, ha)
	}
	// Stored scores stay raw ping milliseconds: in the head — whose members
	// the composite order chose, not proximity — every score is the
	// scorer's ping for that deployment, and the tail holds the proximity
	// tail's entries, re-ordered.
	ep := testW.Blocks[0].Endpoint()
	ra, rb := snA1.RankOf(ep.ID, true), snB1.RankOf(ep.ID, true)
	for _, r := range rb.Head {
		if want := base.Scorer().Score(depOf(r), ep); r.Score() != want {
			t.Fatalf("stored head score for %s = %v, want raw ping %v", depOf(r).Name, r.Score(), want)
		}
	}
	sorted := func(tail []Ranked) []Ranked {
		tail = slices.Clone(tail)
		slices.SortFunc(tail, compareRanked)
		return tail
	}
	if !slices.Equal(sorted(ra.Tail), sorted(rb.Tail)) {
		t.Fatal("β=2 tail does not hold the proximity tail's entries")
	}

	// Load recedes: the β>0 map reconverges to the proximity map exactly.
	testP.ResetLoad()
	snB2 := loaded.Rebuild()
	rankTablesEqual(t, snA0, snB2, true, "β=2 after recede vs β=0")
}

// TestLoadRebuildCounters pins the build-path accounting: an idle β>0
// republish shares the previous arena chain (incremental, near-free); a
// utilization change forces a load rebuild (counted separately from
// measurement-driven full builds); MarkLoadDirty forces one even when the
// quantized vector is unchanged.
func TestLoadRebuildCounters(t *testing.T) {
	testP.ResetLoad()
	defer testP.ResetLoad()
	sys := NewSystem(testW, testP, testNet,
		Config{Policy: EndUser, PingTargets: 600, BalanceFactor: 1})
	b := sys.Builder()

	st0 := b.BuildStats()
	loads0, _ := b.LoadStats()

	// Idle republish: vector unchanged, arenas shared wholesale.
	sn1 := sys.Rebuild()
	sn2 := sys.Rebuild()
	if &sn1.rows[0][0] != &sn2.rows[0][0] {
		t.Error("idle β>0 republish did not share the previous arena")
	}
	st1 := b.BuildStats()
	if st1.Full != st0.Full || st1.Incremental != st0.Incremental+2 {
		t.Errorf("idle republishes: %+v → %+v", st0, st1)
	}

	// Sub-quantum load drift must not force a re-rank.
	d := testP.Deployments[0]
	d.Servers[0].AddLoad(d.Capacity() / (8 * utilQuantum))
	sn3 := sys.Rebuild()
	if &sn2.rows[0][0] != &sn3.rows[0][0] {
		t.Error("sub-quantum load drift forced a re-rank")
	}

	// A visible utilization change forces a load rebuild, not a full build.
	d.Servers[0].AddLoad(d.Capacity())
	sys.Rebuild()
	full2 := b.BuildStats().Full
	loads1, _ := b.LoadStats()
	if loads1 != loads0+1 {
		t.Errorf("loadRebuilds = %d, want %d", loads1, loads0+1)
	}
	if full2 != st1.Full {
		t.Errorf("load change bumped fullBuilds %d→%d", st1.Full, full2)
	}

	// MarkLoadDirty forces a re-rank even with the vector unchanged.
	b.MarkLoadDirty()
	sys.Rebuild()
	if loads2, _ := b.LoadStats(); loads2 != loads1+1 {
		t.Errorf("MarkLoadDirty loadRebuilds = %d, want %d", loads2, loads1+1)
	}
}

// staticUtil is a test UtilizationSource with per-deployment values and a
// global freshness flag.
type staticUtil struct {
	utils map[*cdn.Deployment]float64
	fresh bool
}

func (s *staticUtil) Utilization(d *cdn.Deployment) (float64, bool) {
	return s.utils[d], s.fresh
}

// TestStaleLoadSignalFallsBackToProximity: when every load signal is stale
// (dead telemetry feed), a β>0 build must ignore the garbage — tables come
// out byte-identical to proximity-only — and the tripwire counter must
// fire.
func TestStaleLoadSignalFallsBackToProximity(t *testing.T) {
	testP.ResetLoad()
	defer testP.ResetLoad()
	base := NewSystem(testW, testP, testNet, Config{Policy: EndUser, PingTargets: 600})

	src := &staticUtil{utils: map[*cdn.Deployment]float64{}, fresh: true}
	hot := depOf(base.Current().RankOf(testW.Blocks[0].Endpoint().ID, true).Head[0])
	src.utils[hot] = 3

	sys := NewSystem(testW, testP, testNet,
		Config{Policy: EndUser, PingTargets: 600, BalanceFactor: 2})
	sys.SetUtilizationSource(src)

	// Fresh signal: the hot deployment spills.
	snFresh := sys.Rebuild()
	if d, _ := snFresh.Best(testW.Blocks[0].Endpoint().ID, true); d == hot {
		t.Fatalf("fresh overload signal ignored: %s still heads the table", hot.Name)
	}

	// Feed dies: same utilization values, ok=false. The build must degrade
	// to proximity-only, not keep acting on the stale reading.
	src.fresh = false
	snStale := sys.Rebuild()
	rankTablesEqual(t, base.Current(), snStale, true, "stale-signal build vs proximity")
	if _, stale := sys.Builder().LoadStats(); stale == 0 {
		t.Error("stale-signal tripwire counter did not fire")
	}
}

func TestQuantizeUtil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0},
		{0, 0},
		{math.NaN(), 0},
		{math.Inf(1), utilMax},
		{100, utilMax},
		{0.5, 0.5},
		{1.0 / 300, 0},               // below half a quantum rounds to 0
		{0.7501 * 1 / 64 * 64, 0.75}, // on-grid value unchanged
	}
	for _, tc := range cases {
		if got := quantizeUtil(tc.in); got != tc.want {
			t.Errorf("quantizeUtil(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
