package main

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"time"

	"eum/bench/internal/gen"
	"eum/bench/internal/load"
	"eum/bench/internal/procfs"
	"eum/bench/internal/stats"
)

// Serve-phase constants. The measured spans come from -seconds; these are
// the fixed parts around them.
const (
	// Set-up is timed setupEarly times before anything else and setupLate
	// times after the load, each time from nothing and thrown away; setup_s
	// is the median of them all. This machine's clock moves by a tenth or
	// more for seconds at a time, so repetitions made back to back share
	// one spell of it, and repetitions half a minute apart do not.
	setupEarly = 2
	setupLate  = 3
	// oracleQueries are checked against the mapping plane before timing.
	oracleQueries = 2000
	// loadWindow is the outstanding queries per socket in the throughput
	// phase: enough to keep the server busy across generator stalls, below
	// what one socket buffer holds.
	loadWindow = 32
	warmup     = 3 * time.Second
	rttWarmup  = 500 * time.Millisecond
	// generatorBusy is the share of the phase the generator spent with
	// replies to handle, above which it, not the server, may have set the
	// rate.
	generatorBusy = 0.85
)

// run is one invocation: one workload, one seed.
type run struct {
	wl      workload
	seed    int64
	seconds int
	tr      *tracer // nil unless -trace 1

	eumdns, scratch, outDir string

	// serveCPUs and genCPUs are disjoint; both empty means one CPU and
	// no pinning.
	serveCPUs, genCPUs []int

	plane *plane
	// setups and readies are the complete set-ups timed so far, in
	// seconds, and the server's share of each.
	setups, readies []float64
	churn           []uint64 // ping targets whose refresh re-ranks a table
	source          *gen.Source
	owned           map[netip.Addr]struct{}

	began         time.Time
	oracleChecked int
	attempted     uint64
	failed        uint64
	wrong         uint64

	e2e, layer metricSet
	notes      []string
}

func (r *run) pinned() bool { return len(r.serveCPUs) > 0 }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// splitCPUs divides the CPUs this process may run on into the serving set
// (the first half, at least one) and the generator set (the rest).
func splitCPUs() (serve, gen []int, err error) {
	st, err := procfs.ReadStatus(os.Getpid())
	if err != nil {
		return nil, nil, err
	}
	cpus, err := procfs.ParseCPUList(st.CPUsAllowed)
	if err != nil {
		return nil, nil, err
	}
	if len(cpus) < 2 {
		return nil, nil, nil
	}
	n := len(cpus) / 2
	return cpus[:n], cpus[n:], nil
}

// pinGenerator moves this process onto the generator CPUs and checks that
// the kernel agrees.
func (r *run) pinGenerator() error {
	if !r.pinned() {
		return nil
	}
	if err := procfs.PinSelf(r.genCPUs); err != nil {
		return err
	}
	runtime.GOMAXPROCS(len(r.genCPUs))
	return r.checkPinned(os.Getpid(), r.genCPUs, "generator")
}

func (r *run) checkPinned(pid int, want []int, who string) error {
	if !r.pinned() {
		return nil
	}
	st, err := procfs.ReadStatus(pid)
	if err != nil {
		return err
	}
	if st.CPUsAllowed != procfs.CPUList(want) {
		return fmt.Errorf("%s runs on CPUs %s, want %s: refusing to measure unpinned",
			who, st.CPUsAllowed, procfs.CPUList(want))
	}
	return nil
}

// timeSetups times n complete set-ups.
func (r *run) timeSetups(n int) error {
	for i := 0; i < n; i++ {
		if err := r.timeSetup(); err != nil {
			return err
		}
	}
	return nil
}

// timeSetup performs one complete set-up from nothing and throws it away:
// the harness's share (generate the universe, build the first map, start
// the publisher) and the server's (start eumdns, its standby build, the full
// fetch, the install, a verified answer at the publisher's epoch).
func (r *run) timeSetup() error {
	t := time.Now()
	p, err := newPlane(r.wl.spec(r.seed))
	if err != nil {
		return err
	}
	defer p.close()
	started := time.Now()
	c, err := r.startReplica(p)
	if err != nil {
		return err
	}
	defer c.stop()
	if err := r.awaitReady(c, p, time.Minute); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t).Seconds())
	r.readies = append(r.readies, time.Since(started).Seconds())
	return nil
}

// servePhase starts the replica, checks its answers, and measures it under
// closed-loop load.
func (r *run) servePhase() error {
	srv, err := r.startReplica(r.plane)
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := r.awaitReady(srv, r.plane, time.Minute); err != nil {
		return err
	}
	if err := r.checkPinned(srv.pid(), r.serveCPUs, "eumdns"); err != nil {
		return err
	}

	// The map has not moved since the replica fetched it, so the harness's
	// current snapshot is the one every oracle answer must match.
	if err := r.oracle(srv, r.plane, oracleQueries); err != nil {
		return err
	}

	before, err := r.scrape(srv)
	if err != nil {
		return err
	}
	stopPublisher := r.startPublisher()
	defer stopPublisher()
	stopLag := func() uint64 { return 0 }
	if r.tr != nil {
		stopLag = watchEpochLag(srv.admin)
	}

	qpsWindows := max(2, r.seconds*3/4)
	rttSpan := time.Duration(max(1, r.seconds-qpsWindows)) * time.Second
	if err := r.throughput(srv, qpsWindows); err != nil {
		return err
	}
	if err := r.roundTrip(srv, rttSpan); err != nil {
		return err
	}
	stopPublisher()
	lagMax := stopLag()

	after, err := r.scrape(srv)
	if err != nil {
		return err
	}
	r.e2e.add("server_rss_mb", "MB", float64(after.status.PeakRSSKiB)/1024)
	if r.tr != nil {
		r.liveLayerMetrics(before, after)
		r.layer.add("mapdist.epoch_lag_max", "count", float64(lagMax))
	}
	return nil
}

// watchEpochLag samples the replica's epoch lag off /mapz twice a second
// until the returned function is called, which reports the largest seen.
func watchEpochLag(admin string) (stop func() uint64) {
	quit, done := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		var worst uint64
		for {
			select {
			case <-quit:
				done <- worst
				return
			case <-tick.C:
				if s, err := scrapeSync(admin); err == nil {
					worst = max(worst, s.EpochLag)
				}
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-done
	}
}

// startPublisher keeps the map moving as the workload says: a warm
// republish on the product's cadence, or a scoped measurement refresh every
// churnEvery. The returned stop function waits for the goroutine to end and
// may be called twice.
func (r *run) startPublisher() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	every := republishEvery
	var targets []uint64
	if r.wl.churnEvery > 0 {
		every = r.wl.churnEvery
		targets = r.churn
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		next := int(uint64(r.seed) % uint64(max(1, len(targets))))
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if targets == nil {
				r.plane.mm.Publish()
				continue
			}
			ids := make([]uint64, r.wl.churnTargets)
			for i := range ids {
				ids[i] = targets[next%len(targets)]
				next++
			}
			r.plane.mm.NotifyMeasurement(ids...)
			r.plane.mm.Sync()
		}
	}()
	stopped := false
	return func() {
		if !stopped {
			stopped = true
			close(quit)
			<-done
		}
	}
}

// count folds a phase's tallies into the run's.
func (r *run) count(rec *load.Recording) {
	r.attempted += rec.Attempted
	r.failed += rec.Failed
	r.wrong += rec.Failed - rec.Timeouts
}

// throughput keeps loadWindow queries outstanding on one socket per
// generator CPU and reports, from one-second windows, the answer rate, the
// server's CPU time per answer, and how busy the generator was.
func (r *run) throughput(srv *child, windows int) error {
	span := time.Duration(windows) * time.Second
	sockets := max(1, len(r.genCPUs))
	type result struct {
		rec *load.Recording
		err error
	}
	done := make(chan result, 1) // the one send never blocks
	// The extra quarter second keeps the windows full until after the
	// closing CPU reading.
	phase := warmup + span + 250*time.Millisecond
	begin := time.Now()
	go func() {
		rec, err := load.Run(load.Config{
			Server: srv.dns, Source: r.source, Seed: r.seed, Owned: r.owned,
			Sockets: sockets, Window: loadWindow, Duration: phase,
		})
		done <- result{rec, err}
	}()

	// Read the clock and the server's CPU time at every window edge.
	type edge struct {
		at     time.Time
		srvCPU time.Duration
	}
	edges := make([]edge, windows+1)
	var readErr error
	for i := range edges {
		time.Sleep(time.Until(begin.Add(warmup + time.Duration(i)*time.Second)))
		e := &edges[i]
		e.at = time.Now()
		var err error
		e.srvCPU, err = procfs.CPUTime(srv.pid())
		readErr = errors.Join(readErr, err)
	}
	res := <-done
	if err := errors.Join(res.err, readErr); err != nil {
		return err
	}
	rec := res.rec
	r.count(rec)

	// Deal the answers into the windows between the edges. Each window
	// yields a rate and a CPU cost per answer; the medians are reported.
	bounds := make([]time.Duration, len(edges))
	for i, e := range edges {
		bounds[i] = e.at.Sub(rec.Start)
	}
	counts := make([]float64, windows)
	var lat []uint32
	for _, s := range rec.Samples {
		at := s.At()
		if at < bounds[0] || at >= bounds[windows] {
			continue
		}
		w, _ := slices.BinarySearch(bounds, at+1) // first edge after at
		counts[w-1]++
		lat = append(lat, s.Nanos)
	}
	rates, costs := make([]float64, windows), make([]float64, windows)
	for w := range counts {
		if counts[w] == 0 {
			return fmt.Errorf("no answers in throughput window %d (attempted %d, failed %d)", w, rec.Attempted, rec.Failed)
		}
		rates[w] = counts[w] / (bounds[w+1] - bounds[w]).Seconds()
		costs[w] = float64((edges[w+1].srvCPU - edges[w].srvCPU).Microseconds()) / counts[w]
	}
	answers := float64(len(lat))
	slices.Sort(lat)
	elapsed := (bounds[windows] - bounds[0]).Seconds()
	// The generator polls, so its CPU is always busy; what tells whether
	// it kept up is the share of the phase its sockets had nothing to read.
	genFrac := 1 - rec.Idle.Seconds()/(phase.Seconds()*float64(sockets))
	srvFrac := (edges[windows].srvCPU - edges[0].srvCPU).Seconds() / (elapsed * float64(max(1, len(r.serveCPUs))))

	r.layer.add("serve_qps", "1/s", stats.Median(rates))
	r.layer.add("cpu_us_per_query", "us", stats.Median(costs))
	r.layer.add("gen.busy_frac", "ratio", genFrac)
	r.layer.add("gen.timeouts", "count", float64(rec.Timeouts))
	r.layer.add("gen.window_qps_iqr_pct", "%", 100*stats.Spread(rates))
	r.layer.add("gen.load_p50_us", "us", stats.Quantile(lat, 0.50)/1e3)
	r.layer.add("gen.load_p99_us", "us", stats.Quantile(lat, 0.99)/1e3)
	r.layer.add("gen.load_samples", "count", answers)
	r.note("serve_qps: median of %d one-second windows, window %d x %d socket(s), %.0f answers; server used %.0f%% of its CPU set, generator busy %.0f%% of the phase",
		windows, loadWindow, sockets, answers, 100*srvFrac, 100*genFrac)
	r.layer.add("server.cpu_frac", "ratio", srvFrac)
	if genFrac > generatorBusy {
		r.note("generator_bound=true: the generator, not the server, may have set serve_qps; cpu_us_per_query still stands")
	}
	return nil
}

// roundTrip sends one query at a time on one socket and reports the median
// round trip: latency with no queueing anywhere.
func (r *run) roundTrip(srv *child, span time.Duration) error {
	rec, err := load.Run(load.Config{
		Server: srv.dns, Source: r.source, Seed: r.seed + 1, Owned: r.owned,
		Sockets: 1, Window: 1, Duration: rttWarmup + span,
	})
	if err != nil {
		return err
	}
	r.count(rec)
	var lat []uint32
	for _, s := range rec.Samples {
		if at := s.At(); at >= rttWarmup && at < rttWarmup+span {
			lat = append(lat, s.Nanos)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no answers in the round-trip phase (attempted %d, failed %d)", rec.Attempted, rec.Failed)
	}
	slices.Sort(lat)
	r.layer.add("rtt_p50_us", "us", stats.Quantile(lat, 0.50)/1e3)
	r.layer.add("gen.rtt_p99_us", "us", stats.Quantile(lat, 0.99)/1e3)
	r.layer.add("gen.rtt_samples", "count", float64(len(lat)))
	r.note("rtt_p50_us: window 1 on one socket, %d samples over %v", len(lat), span)
	return nil
}

// liveScrape is what the harness reads off the running server around the
// measured phases.
type liveScrape struct {
	status  procfs.Status
	metrics map[string]float64
	sync    replicaSync
	gc      gcStats
}

func (r *run) scrape(srv *child) (liveScrape, error) {
	var s liveScrape
	var err error
	if s.status, err = procfs.ReadStatus(srv.pid()); err != nil {
		return s, err
	}
	if r.tr == nil {
		return s, nil
	}
	if s.metrics, err = scrapeMetrics(srv.admin); err != nil {
		return s, err
	}
	if s.sync, err = scrapeSync(srv.admin); err != nil {
		return s, err
	}
	s.gc, err = scrapeGC(srv.admin)
	return s, err
}

// gone is reported for a counter the server no longer exports, so that a
// later change may delete the counter without breaking the benchmark.
const gone = -1

// liveLayerMetrics turns the two scrapes into per-layer metrics.
func (r *run) liveLayerMetrics(before, after liveScrape) {
	delta := func(name string) float64 {
		a, ok := after.metrics[name]
		if !ok {
			return gone
		}
		return a - before.metrics[name]
	}
	answers := delta("dnsserver_responses_total")

	// packets_per_wakeup is a ratio per shard; average the shards that
	// took traffic.
	ppw, shards := 0.0, 0.0
	for i := 0; ; i++ {
		q, ok := after.metrics[fmt.Sprintf("dnsserver_shard%d_queries_total", i)]
		if !ok {
			break
		}
		if q > 0 {
			ppw += after.metrics[fmt.Sprintf("dnsserver_shard%d_packets_per_wakeup", i)]
			shards++
		}
	}
	if shards == 0 {
		ppw, shards = gone, 1
	}
	r.layer.add("dnsserver.packets_per_wakeup", "ratio", ppw/shards)
	r.layer.add("dnsserver.shed", "count", delta("dnsserver_shed_total"))
	r.layer.add("dnsserver.deadline_drops", "count", delta("dnsserver_deadline_drops_total"))

	hits, misses := delta("authority_cache_hits_total"), delta("authority_cache_misses_total")
	ratio := float64(gone)
	if hits != gone && misses != gone && hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	r.layer.add("authority.cache_hit_ratio", "ratio", ratio)

	deltas := float64(after.sync.DeltaImages - before.sync.DeltaImages)
	fulls := float64(after.sync.FullImages - before.sync.FullImages)
	deltaRatio := 1.0 // no image at all wasted nothing
	if deltas+fulls > 0 {
		deltaRatio = deltas / (deltas + fulls)
	}
	r.layer.add("mapdist.delta_images", "count", deltas)
	r.layer.add("mapdist.full_images", "count", fulls)
	r.layer.add("mapdist.delta_ratio", "ratio", deltaRatio)
	r.layer.add("mapdist.fetch_failures", "count", float64(after.sync.Failures-before.sync.Failures))

	r.layer.add("server.gc_cycles", "count", float64(after.gc.cycles-before.gc.cycles))
	pause := float64(gone)
	if total, ok := after.gc.pauseSince(before.gc); ok {
		pause = float64(total) / float64(time.Millisecond)
	}
	r.layer.add("server.gc_pause_total_ms", "ms", pause)
	r.layer.add("server.nonvoluntary_ctxsw", "count", float64(after.status.Involuntary-before.status.Involuntary))
	perQuery := float64(gone)
	if answers > 0 {
		perQuery = float64(after.status.Voluntary-before.status.Voluntary) / answers
	}
	r.layer.add("server.voluntary_ctxsw_per_query", "ratio", perQuery)
}
