package mapdist

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/authority"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/faultnet"
	"eum/internal/mapping"
	"eum/internal/netmodel"
)

// distReplica is one serving node of the cluster test: its own mapping
// system fed only by the fetcher, an authority with the degradation
// ladder armed, and a real UDP listener.
type distReplica struct {
	sys     *mapping.System
	auth    *authority.Authority
	fetcher *Fetcher
	srv     *dnsserver.Server
	addr    string
}

// TestDistClusterPartitionHeal runs the distribution plane end to end: a
// MapMaker node publishing a churning map over HTTP, three replicas
// fetching it over a faultnet-controlled control network, and a
// round-robin stub resolver querying all three over real UDP sockets.
//
// The drill: converge, then cut the control network completely. Replicas
// must keep answering (>=99% success) while walking the degradation
// ladder independently — the data plane never sees the partition. After
// the heal, every replica must reconverge on the publisher's frozen
// epoch within two fetch intervals.
func TestDistClusterPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster drill takes a few seconds")
	}
	w, p := distFixture()
	const fetchEvery = 200 * time.Millisecond

	// MapMaker node: the publisher serves encoded snapshots over a real
	// TCP listener, exactly like the admin plane mounts it.
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	pubSys := mapping.NewSystem(w, p, prober, distCfg)
	pub := NewPublisher(pubSys, p, PublisherConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: pub}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	// Rotating one-target refreshes churn the map every 100ms, so the
	// stream carries deltas while replicas are connected.
	var targets []uint64
	seen := map[uint64]bool{}
	for i := 0; i < len(w.LDNSes) && len(targets) < 5; i += 13 {
		if ep, ok := pubSys.Builder().Scorer().TargetFor(w.LDNSes[i].Endpoint()); ok && !seen[ep.ID] {
			seen[ep.ID] = true
			targets = append(targets, ep.ID)
		}
	}
	if len(targets) < 2 {
		t.Fatalf("only %d distinct ping targets", len(targets))
	}
	churnStop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			case <-tick.C:
			}
			id := targets[i%len(targets)]
			prober.shift[id] += 2
			pubSys.Builder().MarkMeasurementsDirty(id)
			pub.Observe(pubSys.Rebuild())
		}
	}()

	// The control network: every replica fetches through this injector's
	// dialer, so SetPartitioned cuts MapMaker->replica distribution while
	// leaving the client-facing UDP plane untouched.
	ctrl := faultnet.NewInjector(faultnet.Config{Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	replicas := make([]*distReplica, 3)
	for i := range replicas {
		sys := mapping.NewReplica(w, p, netmodel.NewDefault(), distCfg)
		auth, err := authority.New("cdn.example.net", sys)
		if err != nil {
			t.Fatal(err)
		}
		auth.SetDegradeConfig(authority.DegradeConfig{
			StaleAfter:    500 * time.Millisecond,
			FallbackAfter: 1500 * time.Millisecond,
			ServfailAfter: time.Hour,
			StaleTTL:      time.Second,
		})
		// Boot: nothing built, and nothing fresh to serve until the first
		// install — a replica that has never reached its publisher sits on
		// the fallback rung from its first millisecond.
		if st := sys.Builder().BuildStats(); st != (mapping.BuildStats{}) {
			t.Fatalf("replica %d built at boot: %+v", i, st)
		}
		if lvl := auth.Degradation(); sys.Current().Epoch() != 0 || lvl != authority.DegradeFallback {
			t.Fatalf("replica %d boots at epoch %d, %v; want epoch 0, fallback", i, sys.Current().Epoch(), lvl)
		}
		fetcher, err := NewFetcher(sys, p, FetcherConfig{
			Source:   ln.Addr().String(),
			Interval: fetchEvery,
			Timeout:  150 * time.Millisecond,
			Dialer:   ctrl.NewDialer(),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := dnsserver.Listen("127.0.0.1:0", auth)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		go fetcher.Run(ctx)
		replicas[i] = &distReplica{
			sys: sys, auth: auth, fetcher: fetcher, srv: srv,
			addr: srv.Addr().String(),
		}
		defer srv.Close()
	}

	// The anycast VIP stand-in: one resolver rotating across all three
	// replicas with per-server health tracking.
	rr, err := dnsclient.NewRoundRobin(&dnsclient.Client{
		Timeout: 250 * time.Millisecond, Retries: 1,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Seed: 1,
	}, dnsclient.RoundRobinConfig{}, replicas[0].addr, replicas[1].addr, replicas[2].addr)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: converge. Every replica must install images and start
	// applying deltas from the churn stream.
	deadline := time.Now().Add(5 * time.Second)
	for {
		behind := 0
		for _, r := range replicas {
			st := r.fetcher.Status()
			if r.sys.Current().Epoch() == 0 || st.DeltaImages < 1 {
				behind++
			}
		}
		if behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			for i, r := range replicas {
				t.Logf("replica %d: epoch=%d status=%+v", i, r.sys.Current().Epoch(), r.fetcher.Status())
			}
			t.Fatal("replicas never converged onto the delta stream")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: total partition of the control network. The publisher keeps
	// churning; replicas must keep answering from their last map and walk
	// the staleness ladder on their own clocks.
	ctrl.SetPartitioned(true)
	partitionAt := time.Now()
	var total, failures atomic.Uint64
	queryUntil := partitionAt.Add(1600 * time.Millisecond)
	for time.Now().Before(queryUntil) {
		for i := 0; i < 10; i++ {
			total.Add(1)
			blk := w.Blocks[(int(total.Load())*17)%len(w.Blocks)]
			resp, err := rr.Lookup(ctx, "img.cdn.example.net", dnsmsg.TypeA, blk.Prefix)
			if err != nil || resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
				failures.Add(1)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	success := 1 - float64(failures.Load())/float64(total.Load())
	t.Logf("partition: %d queries, %.2f%% success, partition_dropped=%d",
		total.Load(), success*100, ctrl.Stats.PartitionDropped.Load())
	if success < 0.99 {
		t.Errorf("success rate %.4f < 0.99 during partition", success)
	}
	for i, r := range replicas {
		if lvl := r.auth.Degradation(); lvl < authority.DegradeStale {
			t.Errorf("replica %d never degraded (level %v) during a %v partition",
				i, lvl, time.Since(partitionAt))
		}
		if st := r.fetcher.Status(); st.Failures == 0 {
			t.Errorf("replica %d counted no fetch failures while partitioned", i)
		}
	}

	// Phase 3: freeze the publisher, heal, and require convergence on its
	// final epoch within two fetch intervals.
	close(churnStop)
	churn.Wait()
	final := pubSys.Current().Epoch()
	healAt := time.Now()
	ctrl.SetPartitioned(false)
	for {
		converged := 0
		for _, r := range replicas {
			if r.sys.Current().Epoch() == final {
				converged++
			}
		}
		if converged == len(replicas) {
			break
		}
		if time.Since(healAt) > 2*fetchEvery {
			for i, r := range replicas {
				t.Logf("replica %d: epoch=%d (want %d) status=%+v",
					i, r.sys.Current().Epoch(), final, r.fetcher.Status())
			}
			t.Fatalf("replicas did not reconverge within two fetch intervals (%v)", 2*fetchEvery)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("heal: reconverged on epoch %d in %v", final, time.Since(healAt))

	for i, r := range replicas {
		if lag := r.fetcher.EpochLag(); lag != 0 {
			t.Errorf("replica %d epoch lag %d after heal", i, lag)
		}
	}
	fullB, deltaB := pub.BytesShipped()
	t.Logf("publisher shipped %d full bytes, %d delta bytes (retained %d)", fullB, deltaB, pub.Retained())
	if fullB == 0 || deltaB == 0 {
		t.Errorf("expected both full and delta traffic, got full=%d delta=%d", fullB, deltaB)
	}
	if deltaB >= fullB {
		t.Errorf("delta bytes %d not below full bytes %d", deltaB, fullB)
	}
}
