package load

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"eum/bench/internal/gen"
)

// reply builds a response to query q with the given rcode and one A record
// per address, the owner name compressed to the question.
func reply(q []byte, rcode byte, addrs ...netip.Addr) []byte {
	// Cut the query after its question: skip the name, type and class.
	end := skipName(q, 12) + 4
	r := append([]byte(nil), q[:end]...)
	r[2], r[3] = 0x84, rcode
	r[6], r[7] = 0, byte(len(addrs))
	r[10], r[11] = 0, 0
	for _, a := range addrs {
		a4 := a.As4()
		r = append(r, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 20, 0, 4)
		r = append(r, a4[:]...)
	}
	return r
}

var (
	owned    = netip.MustParseAddr("198.51.100.7")
	stranger = netip.MustParseAddr("192.0.2.1")
	testSrc  = gen.NewSource(gen.Mix{Domains: 10, ECSShare: 0.5},
		[]gen.Block{{Prefix: netip.MustParsePrefix("10.1.2.0/24"), Demand: 1}}, "cdn.example.net")
)

func TestAnswersAndCheckReply(t *testing.T) {
	q := testSrc.AppendPacket(nil, gen.Query{Domain: 3})
	set := map[netip.Addr]struct{}{owned: {}}
	var scratch []netip.Addr
	for _, c := range []struct {
		name string
		pkt  []byte
		want bool
	}{
		{"owned address", reply(q, 0, stranger, owned), true},
		{"only a stranger's address", reply(q, 0, stranger), false},
		{"no answer", reply(q, 0), false},
		{"SERVFAIL", reply(q, 2, owned), false},
		{"a query, not a response", q, false},
		{"truncated mid-record", reply(q, 0, owned)[:len(reply(q, 0, owned))-3], false},
	} {
		if got := CheckReply(c.pkt, set, &scratch); got != c.want {
			t.Errorf("%s: CheckReply = %v, want %v", c.name, got, c.want)
		}
	}
	if !CheckReply(reply(q, 0), nil, &scratch) {
		t.Error("with no owned set, an empty NOERROR reply is correct")
	}
	addrs, ok := Answers(reply(q, 0, stranger, owned), nil)
	if !ok || len(addrs) != 2 || addrs[0] != stranger || addrs[1] != owned {
		t.Errorf("Answers = %v, %v", addrs, ok)
	}
}

// serve answers every datagram on a fresh loopback socket through answer
// (nil drops it) until the test ends.
func serve(t *testing.T, answer func(n int, q []byte) []byte) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 4096)
		for n := 0; ; n++ {
			m, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if r := answer(n, buf[:m]); r != nil {
				_, _ = pc.WriteTo(r, from)
			}
		}
	}()
	return pc.LocalAddr().String()
}

func TestClosedLoopAccountsForEveryQuery(t *testing.T) {
	addr := serve(t, func(_ int, q []byte) []byte { return reply(q, 0, owned) })
	rec, err := Run(Config{
		Server: addr, Source: testSrc, Seed: 1, Sockets: 2, Window: 8,
		Duration: 200 * time.Millisecond, Owned: map[netip.Addr]struct{}{owned: {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || rec.Attempted == 0 || uint64(len(rec.Samples)) != rec.Attempted {
		t.Fatalf("attempted %d, answered %d, failed %d: want every query answered", rec.Attempted, len(rec.Samples), rec.Failed)
	}
	for _, s := range rec.Samples {
		if s.Nanos == 0 || s.At() > 2*time.Second {
			t.Fatalf("implausible sample %+v", s)
		}
	}
}

func TestClosedLoopCountsLossAndWrongAnswers(t *testing.T) {
	// Query 5 is dropped, query 9 gets SERVFAIL; the loop must write both
	// off, keep its window full and finish.
	addr := serve(t, func(n int, q []byte) []byte {
		switch n {
		case 5:
			return nil
		case 9:
			return reply(q, 2)
		}
		return reply(q, 0, owned)
	})
	rec, err := Run(Config{
		Server: addr, Source: testSrc, Seed: 1, Sockets: 1, Window: 4,
		Duration: 100 * time.Millisecond, Owned: map[netip.Addr]struct{}{owned: {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Timeouts != 1 || rec.Failed != 2 {
		t.Errorf("timeouts %d, failed %d; want 1 and 2", rec.Timeouts, rec.Failed)
	}
	if uint64(len(rec.Samples))+rec.Failed != rec.Attempted {
		t.Errorf("attempted %d != answered %d + failed %d", rec.Attempted, len(rec.Samples), rec.Failed)
	}
}

// A lost query stays outstanding for Timeout, longer than the 65536 IDs take
// to wrap at loopback rates. The loop must not hand the live ID to a new
// query: it did once, counted the slot twice and never finished.
func TestClosedLoopSurvivesIDWrapOverLostQuery(t *testing.T) {
	addr := serve(t, func(n int, q []byte) []byte {
		if n == 5 {
			return nil
		}
		return reply(q, 0, owned)
	})
	done := make(chan *Recording, 1)
	go func() {
		rec, err := Run(Config{
			Server: addr, Source: testSrc, Seed: 1, Sockets: 1, Window: 32,
			Duration: 1500 * time.Millisecond, Owned: map[netip.Addr]struct{}{owned: {}},
		})
		if err != nil {
			t.Error(err)
		}
		done <- rec
	}()
	var rec *Recording
	select {
	case rec = <-done:
	case <-time.After(1500*time.Millisecond + 3*Timeout):
		t.Fatal("the loop did not finish: a lost query's slot was counted twice")
	}
	if rec == nil {
		return
	}
	if rec.Attempted <= 1<<16 {
		t.Skipf("only %d queries sent: the IDs did not wrap on this machine", rec.Attempted)
	}
	if rec.Timeouts != 1 || rec.Failed != 1 || uint64(len(rec.Samples))+rec.Failed != rec.Attempted {
		t.Errorf("attempted %d, answered %d, failed %d, timeouts %d; want one timeout and the rest answered",
			rec.Attempted, len(rec.Samples), rec.Failed, rec.Timeouts)
	}
}
