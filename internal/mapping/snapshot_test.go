package mapping

import (
	"net/netip"
	"testing"

	"eum/internal/netmodel"
)

// TestSnapshotCANSDedupe is the regression test for the CANS duplicate-
// candidate bug: the old lazy path appended the full NS ranking after the
// bestWeighted winner, so the winning deployment appeared twice in the
// candidate list handed to the load balancer. Snapshot CANS lists must
// start with the weighted winner and contain each deployment exactly once.
func TestSnapshotCANSDedupe(t *testing.T) {
	sys := newSystem(t, ClientAwareNS)
	sn := sys.Current()
	if sn.Policy() != ClientAwareNS {
		t.Fatalf("snapshot policy = %v, want CANS", sn.Policy())
	}

	checked := 0
	for _, l := range testW.LDNSes {
		row := sn.CANSCandidates(l.Addr)
		if row.Head == nil {
			if len(l.Blocks) > 0 {
				t.Fatalf("LDNS %v has %d blocks but no CANS candidates", l.Addr, len(l.Blocks))
			}
			continue
		}
		checked++
		var cands []Ranked
		row.Walk(func(_ int, c Ranked) bool {
			cands = append(cands, c)
			return true
		})
		seen := make(map[uint64]bool, len(cands))
		for _, c := range cands {
			if seen[depOf(c).ID] {
				t.Fatalf("LDNS %v: deployment %s appears twice in CANS candidates", l.Addr, depOf(c).Name)
			}
			seen[depOf(c).ID] = true
		}
		// The winner leads, and it is the traffic-weighted optimum.
		eps := make([]netmodel.Endpoint, len(l.Blocks))
		weights := make([]float64, len(l.Blocks))
		for i, b := range l.Blocks {
			eps[i] = b.Endpoint()
			weights[i] = b.Demand
		}
		win, _ := sys.Scorer().bestWeighted(eps, weights)
		if int(cands[0].Dep) != win {
			t.Fatalf("LDNS %v: candidate[0] = deployment %d, want weighted winner %d",
				l.Addr, cands[0].Dep, win)
		}
		// Every platform deployment is reachable for capacity spill.
		if len(cands) != len(testP.Deployments) {
			t.Fatalf("LDNS %v: %d candidates, want %d (winner + deduped NS rank)",
				l.Addr, len(cands), len(testP.Deployments))
		}
	}
	if checked == 0 {
		t.Fatal("no LDNS with CANS candidates")
	}
}

// TestSnapshotMatchesScorer checks the published tables against the
// scoring layer they were built from: for a sample of blocks and LDNSes,
// the head of the snapshot's row must be the head of the scorer's ranking
// for the same endpoint.
func TestSnapshotMatchesScorer(t *testing.T) {
	sys := newSystem(t, EndUser)
	sn := sys.Current()
	sc := sys.Scorer()

	for i := 0; i < len(testW.Blocks); i += 257 {
		b := testW.Blocks[i]
		got := blockRow(sn, b).Head
		want := sc.Rank(b.Endpoint())[:sn.lay.TableLen]
		if len(got) != len(want) {
			t.Fatalf("block %v: %d ranked, want %d", b.Prefix, len(got), len(want))
		}
		for j := range got {
			if depOf(got[j]) != depOf(want[j]) || got[j].Score() != want[j].Score() {
				t.Fatalf("block %v rank %d: %s/%g, want %s/%g", b.Prefix, j,
					depOf(got[j]).Name, got[j].Score(), depOf(want[j]).Name, want[j].Score())
			}
		}
	}
	for i := 0; i < len(testW.LDNSes); i += 61 {
		l := testW.LDNSes[i]
		got := ldnsRow(sn, l).Head
		want := sc.Rank(l.Endpoint())
		if len(got) == 0 || depOf(got[0]) != depOf(want[0]) {
			t.Fatalf("LDNS %v: top-ranked mismatch", l.Addr)
		}
	}
}

// TestSnapshotFallbackTables: endpoints the map was not built for share
// the per-kind fallback table anchored at the fallback location.
func TestSnapshotFallbackTables(t *testing.T) {
	sys := newSystem(t, EndUser)
	sn := sys.Current()
	if r, ok := sn.ResolverRow(netip.MustParseAddr("198.51.100.9")); ok || r.Head == nil {
		t.Fatalf("unknown LDNS address: found %v, fallback head %v", ok, r.Head)
	}
	client, ok := sn.ClientRow(netip.MustParsePrefix("255.255.255.0/24"))
	if ok || client.Head == nil {
		t.Fatalf("unknown client subnet: found %v, fallback head %v", ok, client.Head)
	}
	if d, _ := sn.FirstLive(client); d == nil {
		t.Fatal("no live deployment for the fallback table")
	}
}

// TestSnapshotInstallOrdering: an older build can never clobber a newer
// published map, no matter the install order.
func TestSnapshotInstallOrdering(t *testing.T) {
	sys := newSystem(t, EndUser)
	older := sys.Builder().Build(sys.Current().Epoch(), EndUser)
	if sys.Install(older) {
		t.Fatal("installed a snapshot at the already-current epoch")
	}
	cur := sys.Current()
	newer := sys.Rebuild()
	if sys.Current() != newer {
		t.Fatal("rebuild did not install the newer snapshot")
	}
	if newer.Epoch() <= cur.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", cur.Epoch(), newer.Epoch())
	}
	if sys.Install(cur) {
		t.Fatal("reinstalled an orphaned older snapshot")
	}
}

// TestMapEpochPinned: MapAt against a pinned snapshot keeps answering at
// that epoch while the system publishes newer maps — the contract the
// deterministic simulations rely on.
func TestMapEpochPinned(t *testing.T) {
	sys := newSystem(t, EndUser)
	pinned := sys.Current()
	blk := publicBlock(t)
	req := Request{Domain: "pin.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}

	sys.Rebuild()
	sys.Rebuild()
	r, err := sys.MapAt(pinned, req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != pinned.Epoch() {
		t.Fatalf("pinned decision epoch = %d, want %d", r.Epoch, pinned.Epoch())
	}
	cur, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Epoch != sys.Current().Epoch() {
		t.Fatalf("current decision epoch = %d, want %d", cur.Epoch, sys.Current().Epoch())
	}
	if cur.Epoch <= r.Epoch {
		t.Fatalf("current epoch %d not newer than pinned %d", cur.Epoch, r.Epoch)
	}
}

// TestMapCANSNoDuplicateCandidates exercises the full Map path under the
// CANS policy for every known LDNS — the load balancer must receive the
// deduped list and answer successfully.
func TestMapCANSNoDuplicateCandidates(t *testing.T) {
	sys := newSystem(t, ClientAwareNS)
	served := 0
	for i := 0; i < len(testW.LDNSes); i += 17 {
		l := testW.LDNSes[i]
		r, err := sys.Map(Request{Domain: "cans.net", LDNS: l.Addr})
		if err != nil {
			t.Fatalf("LDNS %v: %v", l.Addr, err)
		}
		if r.Deployment == nil || len(r.Servers) == 0 {
			t.Fatalf("LDNS %v: empty decision", l.Addr)
		}
		served++
	}
	if served == 0 {
		t.Fatal("no LDNS served")
	}
}
