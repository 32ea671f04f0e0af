package faultnet_test

import (
	"context"
	"math"
	"net"
	"net/netip"
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

// TestLoadChaos is the load-aware picking chaos drill: the full UDP serving
// stack with load-aware picks live — per-answer demand accounting, the
// decay that turns it into a rate, the balance factor re-ranking each
// answer's first live candidates — under
//
//   - a regional flash crowd (the middle phase hammers one country's
//     blocks),
//   - a deployment brownout (the hottest deployment drops to 15%
//     capacity mid-surge, then recovers),
//   - >=10% packet loss with duplication and reordering on every socket,
//   - continuous map churn (a publish every few milliseconds).
//
// The resilience contract: at least 99% of lookups still succeed, and when
// the load feed is killed at the end queries keep succeeding. And the
// balance factor demonstrably acted: some surge answers passed over a
// deployment ranked ahead of theirs that still had a fifth of its capacity
// free. Hard capacity spill (β = 0) passes a deployment over only when the
// answer's demand does not fit in it, so that count is 0 without β.
func TestLoadChaos(t *testing.T) {
	const (
		beta = 2
		// demand is what each answer records on its primary server (whose
		// capacity is 1): small enough that the drill's few hundred
		// answers load the platform without saturating all of it, which
		// leaves the picker a choice.
		demand = 0.05
		// decayTau drains the demand counters into a rate, on eumdns's
		// time constant.
		decayTau = 30 * time.Second
	)
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 400})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 11, NumDeployments: 12, ServersPerDeployment: 4})
	sys := mapping.NewSystem(w, p, netmodel.NewDefault(), mapping.Config{
		Policy: mapping.EndUser, TTL: 500 * time.Millisecond, PingTargets: 100,
		BalanceFactor: beta,
	})
	mm := mapmaker.New(sys, mapmaker.Config{Interval: time.Hour})

	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	// Close the loop through the real answer path: every answer records
	// demand against the deployment it handed out.
	auth.SetAnswerDemand(demand)

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

	// Map churn: a publish every 5ms for the whole run, so picks read a
	// freshly installed snapshot under fire.
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

	// The load feed, as cmd/eumdns runs it: decay the cumulative demand
	// counters toward a rate.
	tickStop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		const every = 10 * time.Millisecond
		decay := math.Exp(-float64(every) / float64(decayTau))
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-tick.C:
				p.ScaleLoad(decay)
			}
		}
	}()

	// passedWithRoom counts answers that passed over a deployment ranked
	// ahead of theirs while it had at least a fifth of its capacity free,
	// read as each answer arrives. Hard spill passes a deployment over
	// only when the demand does not fit, and the decay frees under 0.1%
	// of a load per 10 ms tick, so without β the count stays 0.
	var passedWithRoom atomic.Uint64
	serving := map[netip.Addr]*cdn.Deployment{}
	for _, d := range p.Deployments {
		for _, srv := range d.Servers {
			serving[srv.Addr] = d
		}
	}
	checkPick := func(block *world.ClientBlock, resp *dnsmsg.Message) {
		a, ok := resp.Answers[0].Data.(*dnsmsg.A)
		if !ok {
			return
		}
		picked := serving[a.Addr]
		row, _ := sys.Current().ClientRow(block.Prefix)
		row.Walk(func(_ int, c uint16) bool {
			ahead := p.Deployments[c]
			if ahead == picked {
				return false
			}
			if ahead.Load()+demand <= 0.8*ahead.Capacity() {
				passedWithRoom.Add(1)
				return false
			}
			return true
		})
	}

	// lookupBurst fires clients*perClient ECS lookups drawn from blocks,
	// retrying through the lossy path, and tallies failures; with check
	// set it also checks every answer's pick (checkPick).
	var failures, total atomic.Uint64
	lookupBurst := func(clients, perClient int, blocks []*world.ClientBlock, check bool) {
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
					} else if check {
						checkPick(block, resp)
					}
				}
			}(g)
		}
		wg.Wait()
	}

	// Phase A — baseline: global traffic warms the demand gauges.
	lookupBurst(4, 50, w.Blocks, false)

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
	lookupBurst(8, 60, surge.Blocks, true)
	hot.SetCapacityFactor(1)

	// Phase C — kill the load feed: stop the decay goroutine, so the
	// demand counters only grow. Serving must not degrade.
	close(tickStop)
	ticker.Wait()
	lookupBurst(4, 50, w.Blocks, false)

	success := 1 - float64(failures.Load())/float64(total.Load())
	t.Logf("load chaos: %d queries, %.2f%% success, %d failures; published=%d",
		total.Load(), success*100, failures.Load(), mm.Published())
	t.Logf("balance factor %g: %d surge answers passed over a deployment with room", float64(beta), passedWithRoom.Load())
	t.Logf("transport: forwarded=%d dropped=%d duplicated=%d",
		inj.Stats.Forwarded.Load(), inj.Stats.Dropped.Load(), inj.Stats.Duplicated.Load())

	if success < 0.99 {
		t.Errorf("success rate %.4f < 0.99", success)
	}
	if mm.Published() < 50 {
		t.Errorf("published only %d snapshots — map churn too slow", mm.Published())
	}
	if passedWithRoom.Load() == 0 {
		t.Error("no surge answer passed over a deployment with room — the balance factor never acted")
	}
}
