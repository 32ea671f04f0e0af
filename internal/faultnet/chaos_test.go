package faultnet_test

import (
	"context"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/faultnet"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// combinedFaults fails a server when either injector does.
type combinedFaults struct{ a, b cdn.FaultInjector }

func (c combinedFaults) Failed(s *cdn.Server, now time.Time) bool {
	return c.a.Failed(s, now) || c.b.Failed(s, now)
}

// epochCheckHandler wraps the authority with the wire-level epoch
// invariant check.
type epochCheckHandler struct {
	auth       *authority.Authority
	sys        *mapping.System
	violations *atomic.Uint64
}

func (h *epochCheckHandler) ServeDNS(remote netip.AddrPort, q *dnsmsg.Message) *dnsmsg.Message {
	lo := h.sys.Current().Epoch()
	resp := h.auth.ServeDNS(remote, q)
	hi := h.sys.Current().Epoch()
	if resp == nil || resp.RCode != dnsmsg.RCodeSuccess {
		return resp
	}
	for _, rr := range resp.Additionals {
		txt, ok := rr.Data.(*dnsmsg.TXT)
		if !ok || len(txt.Strings) != 2 || txt.Strings[0] != "epoch" {
			continue
		}
		e, err := strconv.ParseUint(txt.Strings[1], 10, 64)
		if err != nil || e < lo || e > hi {
			h.violations.Add(1)
		}
	}
	return resp
}

// TestChaosServingPlane is the chaos harness: the full UDP stack — real
// sockets, the serve loop, retrying client — under simultaneous
//
//   - transport faults: >=10% packet loss each way, duplication,
//     reordering, latency jitter (faultnet);
//   - server faults: a scheduled whole-deployment outage plus random
//     per-server failures, health probing feeding the change feed, a
//     server flipping on the first probe that disagrees;
//   - control-plane churn: continuous MapMaker republishing every few
//     milliseconds with every 7th build panicking.
//
// It asserts the resilience contract end to end: at least 99% of lookups
// succeed, every answer's snapshot epoch was live at decision time, and the
// MapMaker survived its build crashes.
//
// "pooled" runs the single-shard layout; the sharded variant runs the same storm against a 4-shard server,
// clients spread across the shards — the resilience contract must hold
// regardless of the serving-plane layout.
func TestChaosServingPlane(t *testing.T) {
	t.Run("pooled", func(t *testing.T) { runChaosServingPlane(t, 1) })
	t.Run("sharded-4", func(t *testing.T) { runChaosServingPlane(t, 4) })
}

func runChaosServingPlane(t *testing.T, shards int) {
	w := world.MustGenerate(world.Config{Seed: 7, NumBlocks: 400})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 7, NumDeployments: 12, ServersPerDeployment: 4})
	sys := mapping.NewSystem(w, p, netmodel.NewDefault(),
		mapping.Config{Policy: mapping.EndUser, TTL: 2 * time.Second, PingTargets: 100})
	mm := mapmaker.New(sys, mapmaker.Config{Interval: time.Hour})

	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	auth.SetEpochDebug(true)
	// Publishes run every few ms, so the watchdog stays fresh; it is armed
	// anyway so the degraded paths are live code under chaos.
	auth.SetDegradeConfig(authority.DegradeConfig{StaleAfter: 30 * time.Second})

	// Health: deployment 0 scheduled hard-down for a window mid-test, every
	// server also failing randomly ~10% of 50ms epochs.
	start := time.Now()
	sched := &cdn.ScheduledFaults{}
	for _, srv := range p.Deployments[0].Servers {
		sched.Add(srv.ID, start.Add(300*time.Millisecond), start.Add(900*time.Millisecond))
	}
	rand := &cdn.RandomFaults{P: 0.1, EpochLength: 50 * time.Millisecond, Seed: 7}
	mon, err := cdn.NewMonitor(p, combinedFaults{sched, rand}, time.Millisecond, mm.OnDeploymentChange)
	if err != nil {
		t.Fatal(err)
	}

	var epochViolations atomic.Uint64
	handler := &epochCheckHandler{auth: auth, sys: sys, violations: &epochViolations}

	// Transport: >=10% loss both directions, duplication, reordering,
	// latency jitter — on every server socket and every client socket.
	inj := faultnet.NewInjector(faultnet.Config{
		Seed: 7, DropProb: 0.10, DupProb: 0.05, ReorderProb: 0.10,
		ReorderDelay: 2 * time.Millisecond,
		Latency:      500 * time.Microsecond, Jitter: time.Millisecond,
	})
	conns := make([]net.PacketConn, shards)
	addrs := make([]string, shards)
	for i := range conns {
		inner, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = inj.WrapPacketConn(inner)
		addrs[i] = inner.LocalAddr().String()
	}
	srv, err := dnsserver.NewConns(conns, handler, dnsserver.Config{
		ServeDeadline: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()

	// Control-plane churn: republish every ~5ms, ticking health probes in
	// the same loop; every 7th build panics via the fault hook.
	churnStop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		builds := 0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-churnStop:
				return
			case <-tick.C:
			}
			builds++
			if builds%7 == 0 {
				mm.SetBuildFault(func() { panic("chaos: build crash") })
			} else {
				mm.SetBuildFault(nil)
			}
			mon.Tick(time.Now())
			mm.Publish()
		}
	}()

	// Load: 8 resolvers x 100 ECS queries each, retrying with jittered
	// backoff through the lossy path, spread across the shards.
	const clients, perClient = 8, 100
	var failures, total atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &dnsclient.Client{
				Timeout: 250 * time.Millisecond, Retries: 5,
				BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
				Seed:   uint64(g + 1),
				Dialer: inj.NewDialer(),
			}
			server := addrs[g%shards]
			for i := 0; i < perClient; i++ {
				total.Add(1)
				block := w.Blocks[(g*perClient+i*13)%len(w.Blocks)]
				resp, err := c.Lookup(context.Background(), server,
					"img.cdn.example.net", dnsmsg.TypeA, block.Prefix)
				if err != nil || resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(churnStop)
	churn.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	success := 1 - float64(failures.Load())/float64(total.Load())
	t.Logf("chaos run: %d queries, %.2f%% success, %d failures", total.Load(), success*100, failures.Load())
	t.Logf("transport: forwarded=%d dropped=%d duplicated=%d delayed=%d",
		inj.Stats.Forwarded.Load(), inj.Stats.Dropped.Load(),
		inj.Stats.Duplicated.Load(), inj.Stats.Delayed.Load())
	t.Logf("server: queries=%d responses=%d deadline_drops=%d rate_limited=%d panics=%d",
		srv.Metrics.Queries.Load(), srv.Metrics.Responses.Load(),
		srv.Metrics.DeadlineDrops.Load(),
		srv.Metrics.RateLimited.Load(), srv.Metrics.HandlerPanics.Load())
	t.Logf("authority: stale=%d fallback=%d servfails=%d level=%v",
		auth.StaleAnswers.Load(), auth.FallbackAnswers.Load(),
		auth.DegradeServfails.Load(), auth.Degradation())
	t.Logf("mapmaker: published=%d build_failures=%d; health: probes=%d transitions=%d",
		mm.Published(), mm.BuildFailures(), mon.Probes(), mon.Transitions())

	if success < 0.99 {
		t.Errorf("success rate %.4f < 0.99", success)
	}
	if v := epochViolations.Load(); v != 0 {
		t.Errorf("%d answers carried an epoch outside their serve window", v)
	}
	for _, st := range srv.ShardStats() {
		if st.Queries == 0 {
			t.Errorf("shard %d saw no queries — load not spread across shards", st.Shard)
		}
	}
	if mm.BuildFailures() == 0 {
		t.Error("no build failures injected — chaos hook not exercised")
	}
	if mm.Published() < 50 {
		t.Errorf("published only %d snapshots — map churn too slow", mm.Published())
	}
	if mon.Transitions() == 0 {
		t.Error("no health transitions — server faults not exercised")
	}
}
