package mapping

import (
	"net/netip"
	"testing"
)

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
		got := blockRow(sn, b)
		want := stored(sc.Rank(b.Endpoint())[:sn.lay.TableLen])
		if len(got.Head) != len(want.Head) {
			t.Fatalf("block %v: %d ranked, want %d", b.Prefix, len(got.Head), len(want.Head))
		}
		for j := range got.Head {
			if got.Head[j] != want.Head[j] || got.Scores[j] != want.Scores[j] {
				t.Fatalf("block %v rank %d: %s/%g, want %s/%g", b.Prefix, j,
					depOf(got.Head[j]).Name, got.Scores[j], depOf(want.Head[j]).Name, want.Scores[j])
			}
		}
	}
	for i := 0; i < len(testW.LDNSes); i += 61 {
		l := testW.LDNSes[i]
		got := ldnsRow(sn, l).Head
		want := sc.Rank(l.Endpoint())
		if len(got) == 0 || depOf(got[0]) != depOf(want[0].Dep) {
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
	if d := sn.FirstLive(client); d == nil {
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

// TestRebuildFollowsInstalledEpoch: a snapshot installed from outside
// Rebuild moves the epoch the next Rebuild builds at, so that build is
// newer, installs, and is the one the system serves.
func TestRebuildFollowsInstalledEpoch(t *testing.T) {
	sys := newSystem(t, EndUser)
	sys.Install(sys.Builder().Build(sys.Current().Epoch()+1, EndUser))
	before := sys.Current()
	rebuilt := sys.Rebuild()
	if rebuilt.Epoch() != before.Epoch()+1 || sys.Current() != rebuilt {
		t.Fatalf("before %d rebuilt %d current %d installed=%v",
			before.Epoch(), rebuilt.Epoch(), sys.Current().Epoch(), sys.Current() == rebuilt)
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
