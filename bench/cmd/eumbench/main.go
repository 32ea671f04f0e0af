// Command eumbench is the repository's benchmark: it runs one workload
// against a real eumdns replica in a separate, pinned process and prints
// the end-to-end metrics, or with -trace 1 the per-layer budget.
//
//	eumbench -workload hot_zipf -seed 1 -seconds 20 -trace 0
//	eumbench -aa 10        # calibrate: every workload ten times on one seed
//
// See ../../README.md for what the numbers mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"eum/bench/internal/gen"
	"eum/bench/internal/layers"
	"eum/bench/internal/stats"
)

func main() {
	workloadName := flag.String("workload", "hot_zipf", "workload: hot_zipf, cold_wide or churn_delta")
	seed := flag.Int64("seed", 1, "seed for the universe, the query stream and the churn schedule")
	seconds := flag.Int("seconds", 20, "measured seconds of load: three quarters throughput, one quarter round trip")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run instead of the end-to-end ones")
	eumdns := flag.String("eumdns", "", "path of the eumdns binary under test")
	scratch := flag.String("scratch", ".bench_build", "directory for server configs and logs")
	outDir := flag.String("out", "bench/out", "directory traced runs write their spans to")
	aa := flag.Int("aa", 0, "run every workload this many times on -seed and print how far two sets of the runs differ, against BENCHMARK.json's bounds")
	nullServer := flag.String("null-server", "", "internal: serve a stub handler on this address until signalled")
	flag.Parse()

	if *nullServer != "" {
		if err := runNullServer(*nullServer); err != nil {
			fatal(err)
		}
		return
	}
	if *eumdns == "" {
		fatal(fmt.Errorf("-eumdns is required (bench/run.sh builds the server and passes it)"))
	}
	if *aa > 0 {
		if err := calibrate(*aa, *seed, *seconds, "-eumdns", *eumdns, "-scratch", *scratch, "-out", *outDir); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := findWorkload(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be at least 2 and -trace 0 or 1"))
	}
	r := &run{wl: wl, seed: *seed, seconds: *seconds, eumdns: *eumdns, scratch: *scratch, outDir: *outDir}
	if *trace == 1 {
		// Room for every data-plane span, so recording never reallocates.
		r.tr = newTracer(5*replayQueries + 1024)
	}
	if err := r.execute(); err != nil {
		fatal(err)
	}
	r.report(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eumbench:", err)
	os.Exit(1)
}

// execute runs the workload's phases in order. Any error — an oracle
// mismatch above all — ends the run without a result line.
func (r *run) execute() error {
	r.began = time.Now()
	// Room for the heap to hold a few maps' worth of garbage. At the
	// default the runtime hands memory back to the kernel between the
	// control phase's repetitions, and each one pays to fault it in again
	// (20 000–60 000 page faults, +50 % on propagate_full_ms), or does
	// not, by luck.
	debug.SetGCPercent(400)
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return err
	}
	var err error
	if r.serveCPUs, r.genCPUs, err = splitCPUs(); err != nil {
		return err
	}

	// The harness runs on the generator CPUs from the start. Pinned, the
	// control phase's builds repeat from process to process; spread over
	// every CPU of a small VM they do not.
	if err := r.pinGenerator(); err != nil {
		return err
	}

	if r.plane, err = newPlane(r.wl.spec(r.seed)); err != nil {
		return err
	}
	defer r.plane.close()
	blocks := r.plane.universe.Blocks()
	r.source = gen.NewSource(r.wl.mix, blocks, layers.Zone)
	r.owned = r.plane.universe.ServerAddrs()

	if err := r.timeSetups(setupEarly); err != nil {
		return err
	}

	// Control phase: nothing else running.
	ctl, err := controlPhase(r.plane, r.tr)
	if err != nil {
		return err
	}
	r.churn = ctl.targets
	r.note("wall: control phase done at %.1fs", time.Since(r.began).Seconds())

	if err := r.servePhase(); err != nil {
		return err
	}
	r.note("wall: serve phase done at %.1fs", time.Since(r.began).Seconds())

	if err := r.timeSetups(setupLate); err != nil {
		return err
	}
	r.e2e.add("setup_s", "s", stats.Median(r.setups))
	r.layer.add("server.ready_s", "s", stats.Median(r.readies))
	r.note("setup_s: median of %d complete set-ups, %d before the load and %d after: %.3f s", len(r.setups), setupEarly, setupLate, r.setups)
	r.controlMetrics(ctl, len(blocks))
	r.layer.add("gen.stream_fnv", "hash", float64(fold32(r.source.FNV(r.seed, 100_000))))

	if r.tr != nil {
		if err := r.dataPlaneProbes(); err != nil {
			return err
		}
		if err := r.nullServerProbes(); err != nil {
			return err
		}
		r.budget()
		path := filepath.Join(r.outDir, "trace-"+r.wl.name+".json")
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.note("%d spans recorded, written to %s", len(r.tr.spans), path)
	}
	return nil
}

// fold32 folds a 64-bit digest into 32 bits, which JSON numbers carry exactly.
func fold32(h uint64) uint32 { return uint32(h>>32) ^ uint32(h) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// controlMetrics files what the control phase measured.
func (r *run) controlMetrics(c *control, blocks int) {
	r.e2e.add("resident_bytes_per_block", "B", float64(c.shape.SnapshotBytes+c.shape.IndexBytes)/float64(blocks))
	r.layer.add("full_build_ms", "ms", ms(c.fullBuild.median))
	r.layer.add("propagate_full_ms", "ms", ms(c.propagateFull.median))
	r.layer.add("propagate_delta_ms", "ms", ms(c.propagateDelta.median))
	r.note("full_build_ms: median of %d; propagate_full_ms: median of %d; propagate_delta_ms: median of %d",
		c.fullBuild.reps, c.propagateFull.reps, c.propagateDelta.reps)

	r.layer.add("world.generate_s", "s", r.plane.worldTime.Seconds())
	r.layer.add("cdn.generate_s", "s", r.plane.cdnTime.Seconds())
	r.layer.add("mapping.first_build_ms", "ms", ms(r.plane.firstBuild))
	r.layer.add("mapping.tables", "count", float64(c.shape.Tables))
	r.layer.add("mapping.partitions", "count", float64(c.shape.Partitions))
	r.layer.add("mapping.snapshot_bytes", "B", float64(c.shape.SnapshotBytes))
	r.layer.add("mapping.index_bytes", "B", float64(c.shape.IndexBytes))
	if r.tr == nil {
		return
	}
	r.layer.add("mapping.incremental_build_ms", "ms", ms(c.incrementalBuild))
	r.layer.add("mapping.warm_republish_us", "us", us(c.warmRepublish))
	// The stages of the median traced publish of each kind: they ran one
	// after another, so they sum to that publish's time.
	full, delta := r.tr.median(spanPublishFull), r.tr.median(spanPublishDelta)
	r.layer.add("mapping.install_us", "us", r.tr.child(delta, spanInstall)/1e3)
	r.layer.add("mapmaker.sync_ms", "ms", r.tr.child(delta, spanSync)/1e6)
	r.layer.add("mapwire.encode_full_ms", "ms", r.tr.child(full, spanEncodeFull)/1e6)
	r.layer.add("mapwire.decode_full_ms", "ms", r.tr.child(full, spanDecodeFull)/1e6)
	r.layer.add("mapwire.encode_delta_us", "us", r.tr.child(delta, spanEncodeDelta)/1e3)
	r.layer.add("mapwire.apply_delta_us", "us", r.tr.child(delta, spanApplyDelta)/1e3)
	r.layer.add("mapwire.full_bytes", "B", float64(c.fullBytes))
	r.layer.add("mapwire.delta_bytes", "B", float64(c.deltaBytes))
	r.layer.add("mapdist.http_full_ms", "ms", r.tr.child(full, spanHTTPFull)/1e6)
	r.layer.add("mapdist.http_delta_us", "us", r.tr.child(delta, spanHTTPDelta)/1e3)
}

// budget derives the rows that close the per-layer budget: what is left of
// the server's CPU per query once the replayed layers are taken out is the
// socket, queue and kernel work of dnsserver.
func (r *run) budget() {
	cpu, _ := r.layer.get("cpu_us_per_query")
	unpack, _ := r.layer.get("dnsmsg.unpack_ns")
	serve, _ := r.layer.get("authority.serve_ns")
	pack, _ := r.layer.get("dnsmsg.pack_ns")
	mapat, _ := r.layer.get("mapping.mapat_ns")
	r.layer.add("dnsserver.kernel_loop_us", "us", cpu-(unpack+serve+pack)/1e3)

	// ServeDNS calls MapAt only on an answer-cache miss, so only that
	// share of MapAt's time sits inside serve_ns. With the cache counters
	// gone there is no cache: every query maps.
	missShare := 1.0
	if hit, _ := r.layer.get("authority.cache_hit_ratio"); hit != gone {
		missShare = 1 - hit
	}
	r.layer.add("authority.self_ns", "ns", serve-missShare*mapat)
}

// result is the last line of standard output: the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) result() result {
	set := r.e2e
	if r.tr != nil {
		set = r.layer
	}
	res := result{
		// Every answer checked — the oracle's and every reply under load —
		// was right. A timeout is a failure but not a wrong answer.
		Correct:   r.wrong == 0,
		Attempted: r.attempted + uint64(r.oracleChecked),
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return res
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // result holds only numbers, strings and bools
	}
	return string(b)
}
