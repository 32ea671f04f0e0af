package layers

import (
	"context"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"testing"

	"eum/bench/internal/gen"
	"eum/bench/internal/load"
)

// The benchmark's whole in-process chain on a small universe: a generated
// packet unpacks, the authority's packed answer parses with the generator's
// own parser, and its addresses are the mapping system's — for full /24s,
// truncated /20s and queries with no subnet alike.
func TestWireAnswerEqualsMappingAnswer(t *testing.T) {
	u, _, _ := Generate(Spec{Seed: 3, Blocks: 600, Deployments: 40})
	sys := u.NewSystem()
	auth, err := NewAuthority(sys)
	if err != nil {
		t.Fatal(err)
	}
	src := gen.NewSource(gen.Mix{Domains: 30, ECSShare: 0.8, TruncShare: 0.3}, u.Blocks(), Zone)
	stream := src.Stream(3, 0)
	owned := u.ServerAddrs()
	snap := sys.Current()
	var msg Message
	buf := make([]byte, 0, 4096)
	kinds := map[int]int{}
	for i := 0; i < 500; i++ {
		q := stream.Next()
		if err := msg.Unpack(src.AppendPacket(nil, q)); err != nil {
			t.Fatalf("generated packet does not unpack: %v", err)
		}
		wire, err := auth.Serve(&msg).Pack(buf)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := load.Answers(wire, nil)
		if !ok {
			t.Fatalf("query %d (%v): not a NOERROR response", i, q)
		}
		want, err := sys.Answer(snap, gen.Name(q.Domain, Zone), q.Subnet)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, netip.Addr.Compare)
		slices.SortFunc(want, netip.Addr.Compare)
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("query %d (%v): wire %v, mapping %v", i, q, got, want)
		}
		if _, ok := owned[got[0]]; !ok {
			t.Fatalf("answer %v is not a platform address", got[0])
		}
		kinds[q.Subnet.Bits()]++
	}
	if kinds[24] == 0 || kinds[20] == 0 || kinds[-1] == 0 {
		t.Errorf("stream did not cover /24, /20 and no-subnet queries: %v", kinds)
	}
}

// A delta published through the MapMaker reaches a twin replica over HTTP,
// and the codec round-trips both image kinds.
func TestPublishFetchInstall(t *testing.T) {
	u, _, _ := Generate(Spec{Seed: 3, Blocks: 600, Deployments: 40, PartitionMiles: 50})
	sys, twin := u.NewSystem(), u.NewSystem()
	mm := NewMapMaker(sys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewPublisher(sys, mm)}
	go srv.Serve(ln)
	defer srv.Close()

	twin.BootstrapReplica()
	fetcher, err := NewFetcher(twin, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fetch := func() {
		t.Helper()
		if err := fetcher.FetchOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := twin.Current().Epoch(), sys.Current().Epoch(); got != want {
			t.Fatalf("twin at epoch %d, publisher at %d", got, want)
		}
	}
	fetch()
	targets := sys.PingTargets(4)
	if len(targets) == 0 {
		t.Fatal("no ping targets")
	}
	prev := sys.Current()
	mm.NotifyMeasurement(targets[0])
	next := mm.Sync()
	if next.Epoch() != prev.Epoch()+1 {
		t.Fatalf("Sync after a notification published epoch %d after %d", next.Epoch(), prev.Epoch())
	}
	codec := u.NewCodec()
	delta, ok, err := codec.EncodeDelta(prev, next)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok %v, err %v", ok, err)
	}
	full, err := codec.EncodeFull(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta)*10 > len(full) {
		t.Errorf("one-target delta is %d bytes beside a %d-byte full image", len(delta), len(full))
	}
	if sn, err := codec.Decode(delta, twin.Current()); err != nil || sn.Epoch() != next.Epoch() {
		t.Fatalf("delta decode: epoch %v, err %v", sn, err)
	}
	fetch()
	if sh := sys.Shape(); sh.Tables == 0 || sh.Partitions == 0 || sh.SnapshotBytes == 0 || sh.IndexBytes == 0 {
		t.Errorf("Shape = %+v", sh)
	}
}
