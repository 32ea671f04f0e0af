package faultnet_test

import (
	"context"
	"math"
	"net"
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

// TestLoadChaos is the load-feedback chaos drill: the full UDP serving
// stack with the closed feedback loop live — per-answer demand
// accounting, EWMA load monitor, load-aware map rebuilds — under
//
//   - a regional flash crowd (the middle phase hammers one country's
//     blocks),
//   - a deployment brownout (the hottest deployment drops to 15%
//     capacity mid-surge, then recovers),
//   - >=10% packet loss with duplication and reordering on every socket,
//   - continuous map churn (a publish every few milliseconds).
//
// The resilience contract: at least 99% of lookups still succeed, the
// monitor never violates its own damping window (zero oscillation-window
// violations), the loop demonstrably engaged (threshold crossings
// happened), and when the load feed is killed at the end the builder
// degrades to proximity-only scoring via the stale-signal tripwire
// instead of acting on dead gauges — while queries keep succeeding.
func TestLoadChaos(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 400})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 11, NumDeployments: 12, ServersPerDeployment: 4})
	sys := mapping.NewSystem(w, p, netmodel.NewDefault(), mapping.Config{
		Policy: mapping.EndUser, TTL: 500 * time.Millisecond, PingTargets: 100,
		BalanceFactor: 2,
	})
	mm := mapmaker.New(sys, mapmaker.Config{Interval: time.Hour})
	lm := mapmaker.NewLoadMonitor(mm, mapmaker.LoadSignalConfig{
		EnterUtil:  0.8,
		Hysteresis: 0.3,
		EWMA:       150 * time.Millisecond,
		// Aggressive republish cadence so the loop reacts within the
		// test's short phases; the window-violation tripwire still must
		// hold at any cadence.
		MinRepublish: 50 * time.Millisecond,
		MaxSignalAge: 400 * time.Millisecond,
	})
	sys.SetUtilizationSource(lm)

	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	// Close the loop through the real answer path: every answer records one
	// demand unit against the deployment it handed out.
	auth.SetAnswerDemand(1)

	// Transport: >=10% loss both directions, duplication, reordering.
	inj := faultnet.NewInjector(faultnet.Config{
		Seed: 11, DropProb: 0.10, DupProb: 0.05, ReorderProb: 0.10,
		ReorderDelay: 2 * time.Millisecond,
		Latency:      500 * time.Microsecond, Jitter: time.Millisecond,
	})
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := inner.LocalAddr().String()
	srv, err := dnsserver.NewConns([]net.PacketConn{inj.WrapPacketConn(inner)}, auth, dnsserver.Config{
		ServeDeadline: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	// Map churn: a publish every 5ms for the whole run. Each build reads
	// the monitor's smoothed gauges, so load-aware rebuilds and the stale
	// fence both run constantly under fire.
	churnStop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-churnStop:
				return
			case <-tick.C:
				mm.Publish()
			}
		}
	}()
	defer func() {
		close(churnStop)
		churn.Wait()
	}()

	// The feedback loop's sampling goroutine, as cmd/eumdns runs it: decay
	// the cumulative demand counters toward a rate, then sample.
	tickStop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		const every = 10 * time.Millisecond
		decay := math.Exp(-float64(every) / float64(lm.Config().EWMA))
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tickStop:
				return
			case now := <-tick.C:
				p.ScaleLoad(decay)
				lm.Tick(p, now)
			}
		}
	}()

	// lookupBurst fires clients*perClient ECS lookups drawn from blocks,
	// retrying through the lossy path, and tallies failures.
	var failures, total atomic.Uint64
	lookupBurst := func(clients, perClient int, blocks []*world.ClientBlock) {
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
				for i := 0; i < perClient; i++ {
					total.Add(1)
					block := blocks[(g*perClient+i*13)%len(blocks)]
					resp, err := c.Lookup(context.Background(), addr,
						"img.cdn.example.net", dnsmsg.TypeA, block.Prefix)
					if err != nil || resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
						failures.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
	}

	// Phase A — baseline: global traffic warms the demand gauges.
	lookupBurst(4, 50, w.Blocks)

	// Phase B — flash crowd + brownout: the country with the most blocks
	// surges, and mid-surge the currently hottest deployment browns out to
	// 15% capacity.
	var surge *world.Country
	for _, c := range w.Countries {
		if surge == nil || len(c.Blocks) > len(surge.Blocks) {
			surge = c
		}
	}
	var hot *cdn.Deployment
	for _, d := range p.Deployments {
		if hot == nil || d.Load() > hot.Load() {
			hot = d
		}
	}
	hot.SetCapacityFactor(0.15)
	lookupBurst(8, 60, surge.Blocks)
	hot.SetCapacityFactor(1)

	// Phase C — kill the load feed: stop the sampling goroutine and let
	// every gauge age past MaxSignalAge while churn keeps rebuilding. The
	// builder must fall back to proximity-only scoring (tripwire counts
	// up) and serving must not degrade.
	close(tickStop)
	ticker.Wait()
	time.Sleep(lm.Config().MaxSignalAge + 200*time.Millisecond)
	staleBefore := lm.StaleSignals()
	lookupBurst(4, 50, w.Blocks)
	// One more churn interval so at least one build definitely ran after
	// the burst began.
	time.Sleep(20 * time.Millisecond)

	success := 1 - float64(failures.Load())/float64(total.Load())
	loadRebuilds, builderStale := sys.Builder().LoadStats()
	t.Logf("load chaos: %d queries, %.2f%% success, %d failures", total.Load(), success*100, failures.Load())
	t.Logf("monitor: notifies=%d damped=%d crossings=%d window_violations=%d overloaded=%d",
		lm.Notifies(), lm.Damped(), lm.Crossings(), lm.WindowViolations(), lm.Overloaded())
	t.Logf("builder: load_rebuilds=%d stale_signals=%d (monitor tripwire %d); published=%d",
		loadRebuilds, builderStale, lm.StaleSignals(), mm.Published())
	t.Logf("transport: forwarded=%d dropped=%d duplicated=%d",
		inj.Stats.Forwarded.Load(), inj.Stats.Dropped.Load(), inj.Stats.Duplicated.Load())

	if success < 0.99 {
		t.Errorf("success rate %.4f < 0.99", success)
	}
	if v := lm.WindowViolations(); v != 0 {
		t.Errorf("window violations = %d, want 0 (notification outside the damping window)", v)
	}
	if lm.Crossings() == 0 {
		t.Error("no overload crossings — the feedback loop never engaged")
	}
	if lm.Notifies() == 0 {
		t.Error("no load notifies reached the change feed")
	}
	if lm.StaleSignals() <= staleBefore {
		t.Errorf("stale-signal tripwire did not advance after the feed died (%d -> %d)",
			staleBefore, lm.StaleSignals())
	}
	if mm.Published() < 50 {
		t.Errorf("published only %d snapshots — map churn too slow", mm.Published())
	}
	// Oscillation guard: a surge-and-recede plus one brownout gives each
	// deployment a handful of overload transitions, not dozens. The bound
	// is loose because wall-clock timing under load varies, but it fails
	// loudly if the loop thrashes every tick.
	for _, d := range p.Deployments {
		if f := lm.Flips(d.ID); f > 20 {
			t.Errorf("deployment %s flipped overload state %d times — oscillating", d.Name, f)
		}
	}
}
