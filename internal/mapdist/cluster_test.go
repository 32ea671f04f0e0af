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

// pubNode is the MapMaker node of the cluster test: a system, the prober
// its churn shifts, and the publisher serving it.
type pubNode struct {
	sys    *mapping.System
	prober *shiftNet
	pub    *Publisher
}

// sameMap reports whether two snapshots are one map: the same epoch of the
// same lineage.
func sameMap(a, b *mapping.Snapshot) bool {
	return a.Lineage() == b.Lineage() && a.Epoch() == b.Epoch()
}

// TestDistClusterPartitionHeal runs the distribution plane end to end: a
// MapMaker node publishing a churning map over HTTP, three replicas
// fetching it over a faultnet-controlled control network, and a
// round-robin stub resolver querying all three over real UDP sockets.
//
// The drill: converge, then restart the publisher behind the same
// listener — a fresh system whose epochs start again at 1 — and require
// every replica on the new lineage within two fetch intervals. Then cut
// the control network completely. Replicas must keep answering (>=99%
// success throughout) while walking the degradation ladder independently
// — the data plane never sees the partition. After the heal, every
// replica must reconverge on the publisher's frozen map within two fetch
// intervals.
func TestDistClusterPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster drill takes a few seconds")
	}
	w, p := distFixture()
	const fetchEvery = 200 * time.Millisecond

	// MapMaker node: the publisher serves encoded snapshots over a real
	// TCP listener, exactly like the admin plane mounts it. A restart
	// replaces the whole node behind the same listener.
	var live atomic.Pointer[pubNode]
	var nodes []*pubNode
	startPublisher := func() *pubNode {
		prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
		sys := mapping.NewSystem(w, p, prober, distCfg)
		n := &pubNode{sys: sys, prober: prober, pub: NewPublisher(sys, p, PublisherConfig{})}
		nodes = append(nodes, n)
		live.Store(n)
		return n
	}
	startPublisher()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		live.Load().pub.ServeHTTP(rw, r)
	})}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	// Rotating one-target refreshes churn the map every 100ms, so the
	// stream carries deltas while replicas are connected.
	var targets []uint64
	seen := map[uint64]bool{}
	for i := 0; i < len(w.LDNSes) && len(targets) < 5; i += 13 {
		if ep, ok := live.Load().sys.Builder().Scorer().TargetFor(w.LDNSes[i].Endpoint()); ok && !seen[ep.ID] {
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
			id, n := targets[i%len(targets)], live.Load()
			n.prober.shift[id] += 2
			n.sys.Builder().MarkMeasurementsDirty(id)
			n.sys.Rebuild()
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
		// Boot: a replica holds no world and builds nothing; it fetches the
		// publisher's map, roster and index before it serves.
		fetcher, err := Boot(ctx, FetcherConfig{
			Source:   ln.Addr().String(),
			Interval: fetchEvery,
			Timeout:  150 * time.Millisecond,
			Dialer:   ctrl.NewDialer(),
		}, distCfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := fetcher.System()
		if sys.Builder() != nil || sys.Scorer() != nil || !sameMap(sys.Current(), live.Load().sys.Current()) {
			t.Fatalf("replica %d booted with a builder, or off the publisher's map", i)
		}
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

	// Queries run from here to the heal: ten every 20ms, round-robin over
	// the replicas, and at least 99% must succeed.
	var total, failures atomic.Uint64
	queriesStop, queriesDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(queriesDone)
		for {
			select {
			case <-queriesStop:
				return
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			for i := 0; i < 10; i++ {
				blk := w.Blocks[(int(total.Add(1))*17)%len(w.Blocks)]
				resp, err := rr.Lookup(ctx, "img.cdn.example.net", dnsmsg.TypeA, blk.Prefix)
				if err != nil || resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
					failures.Add(1)
				}
			}
		}
	}()

	// Phase 2: restart the publisher. The new system's epochs start again
	// at 1, below every replica's; the churn moves to it. Each replica's
	// next fetch must install the new lineage.
	old := live.Load().sys.Current()
	restarted := startPublisher()
	restartAt := time.Now()
	for {
		moved := 0
		for _, r := range replicas {
			if r.sys.Current().Lineage() == restarted.sys.Current().Lineage() {
				moved++
			}
		}
		if moved == len(replicas) {
			break
		}
		if time.Since(restartAt) > 2*fetchEvery {
			for i, r := range replicas {
				t.Logf("replica %d: epoch=%d lineage=%016x status=%+v",
					i, r.sys.Current().Epoch(), r.sys.Current().Lineage(), r.fetcher.Status())
			}
			t.Fatalf("replicas still on lineage %016x (epoch %d) two fetch intervals after the restart",
				old.Lineage(), old.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("restart: every replica left epoch %d for the new lineage in %v", old.Epoch(), time.Since(restartAt))

	// Phase 3: total partition of the control network. The publisher keeps
	// churning; replicas must keep answering from their last map and walk
	// the staleness ladder on their own clocks.
	ctrl.SetPartitioned(true)
	partitionAt := time.Now()
	time.Sleep(1600 * time.Millisecond)
	close(queriesStop)
	<-queriesDone
	success := 1 - float64(failures.Load())/float64(total.Load())
	t.Logf("restart and partition: %d queries, %.2f%% success, partition_dropped=%d",
		total.Load(), success*100, ctrl.Stats.PartitionDropped.Load())
	if success < 0.99 {
		t.Errorf("success rate %.4f < 0.99 through the restart and the partition", success)
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

	// Phase 4: freeze the publisher, heal, and require convergence on its
	// final map within two fetch intervals.
	close(churnStop)
	churn.Wait()
	final := restarted.sys.Current()
	healAt := time.Now()
	ctrl.SetPartitioned(false)
	for {
		converged := 0
		for _, r := range replicas {
			if sameMap(r.sys.Current(), final) {
				converged++
			}
		}
		if converged == len(replicas) {
			break
		}
		if time.Since(healAt) > 2*fetchEvery {
			for i, r := range replicas {
				t.Logf("replica %d: epoch=%d (want %d) status=%+v",
					i, r.sys.Current().Epoch(), final.Epoch(), r.fetcher.Status())
			}
			t.Fatalf("replicas did not reconverge within two fetch intervals (%v)", 2*fetchEvery)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("heal: reconverged on epoch %d in %v", final.Epoch(), time.Since(healAt))

	for i, r := range replicas {
		if lag := r.fetcher.EpochLag(); lag != 0 {
			t.Errorf("replica %d epoch lag %d after heal", i, lag)
		}
	}
	var fullB, deltaB uint64
	for _, n := range nodes {
		f, d := n.pub.BytesShipped()
		fullB, deltaB = fullB+f, deltaB+d
	}
	t.Logf("publishers shipped %d full bytes, %d delta bytes", fullB, deltaB)
	if fullB == 0 || deltaB == 0 {
		t.Errorf("expected both full and delta traffic, got full=%d delta=%d", fullB, deltaB)
	}
	if deltaB >= fullB {
		t.Errorf("delta bytes %d not below full bytes %d", deltaB, fullB)
	}
}
