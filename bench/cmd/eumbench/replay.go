package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"eum/bench/internal/gen"
	"eum/bench/internal/layers"
	"eum/bench/internal/load"
	"eum/bench/internal/stats"
)

const (
	replayQueries = 200_000
	allocQueries  = 20_000
)

// replay is the first replayQueries packets of stream (seed, 0), with the
// decoded form MapAt takes.
type replay struct {
	wire    [][]byte
	queries []gen.Query
	names   []string // by domain index
}

func (r *run) newReplay() *replay {
	rp := &replay{names: make([]string, r.wl.mix.Domains)}
	for i := range rp.names {
		rp.names[i] = gen.Name(i, layers.Zone)
	}
	stream := r.source.Stream(r.seed, 0)
	flat := make([]byte, 0, replayQueries*64)
	for i := 0; i < replayQueries; i++ {
		q := stream.Next()
		at := len(flat)
		flat = r.source.AppendPacket(flat, q)
		rp.wire = append(rp.wire, flat[at:len(flat):len(flat)])
		rp.queries = append(rp.queries, q)
	}
	return rp
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// dataPlaneProbes replays the stream through unpack → serve → pack, once
// plain and once with a span around every call, and MapAt on its own. The
// means become the data-plane rows of the budget.
func (r *run) dataPlaneProbes() error {
	rp := r.newReplay()
	auth, err := layers.NewAuthority(r.plane.system)
	if err != nil {
		return err
	}
	var msg layers.Message
	buf := make([]byte, 0, 4096)
	var respBytes int
	one := func(wire []byte) error {
		if err := msg.Unpack(wire); err != nil {
			return err
		}
		out, err := auth.Serve(&msg).Pack(buf)
		respBytes += len(out)
		return err
	}

	// An untimed pass first fills the authority's answer cache, as the
	// live server's is full.
	for _, w := range rp.wire {
		if err := one(w); err != nil {
			return err
		}
	}
	meanResp := float64(respBytes) / replayQueries

	traced := func(first int, wire [][]byte) error {
		for i, w := range wire {
			req := int32(first + i)
			root := r.tr.begin(spanQuery, -1, req)
			s := r.tr.begin(spanUnpack, root, req)
			err := msg.Unpack(w)
			r.tr.end(s)
			if err != nil {
				return err
			}
			s = r.tr.begin(spanServe, root, req)
			resp := auth.Serve(&msg)
			r.tr.end(s)
			s = r.tr.begin(spanPack, root, req)
			_, err = resp.Pack(buf)
			r.tr.end(s)
			r.tr.end(root)
			if err != nil {
				return err
			}
		}
		return nil
	}
	plain := func(_ int, wire [][]byte) error {
		for _, w := range wire {
			if err := one(w); err != nil {
				return err
			}
		}
		return nil
	}
	// The plain and the traced pass take turns chunk by chunk, swapping
	// who goes first, so a slow spell of the machine falls on both and
	// their difference is the cost of the spans.
	const chunk = 10_000
	var plainTime, tracedTime time.Duration
	for first := 0; first < replayQueries; first += chunk {
		wire := rp.wire[first : first+chunk]
		passes := []struct {
			run   func(int, [][]byte) error
			total *time.Duration
		}{{plain, &plainTime}, {traced, &tracedTime}}
		if (first/chunk)%2 == 1 {
			passes[0], passes[1] = passes[1], passes[0]
		}
		for _, p := range passes {
			t := time.Now()
			if err := p.run(first, wire); err != nil {
				return err
			}
			*p.total += time.Since(t)
		}
	}

	snap := r.plane.system.Current()
	for i, q := range rp.queries {
		s := r.tr.begin(spanMapAt, -1, int32(i))
		err := r.plane.system.MapAt(snap, rp.names[q.Domain], q.Subnet)
		r.tr.end(s)
		if err != nil {
			return err
		}
	}

	// Allocations per stage over a prefix of the stream: unpack alone,
	// serve as unpack-and-serve less unpack, pack alone over the answers
	// the serve pass kept.
	prefix := rp.wire[:allocQueries]
	unpackAllocs := mallocs(func() {
		for _, w := range prefix {
			_ = msg.Unpack(w)
		}
	})
	resps := make([]layers.Response, 0, allocQueries)
	serveAllocs := mallocs(func() {
		for _, w := range prefix {
			_ = msg.Unpack(w)
			resps = append(resps, auth.Serve(&msg))
		}
	}) - unpackAllocs
	packAllocs := mallocs(func() {
		for _, resp := range resps {
			_, _ = resp.Pack(buf)
		}
	})

	queryBytes := 0
	for _, w := range rp.wire {
		queryBytes += len(w)
	}
	r.layer.add("dnsmsg.unpack_ns", "ns", r.tr.mean(spanUnpack))
	r.layer.add("dnsmsg.pack_ns", "ns", r.tr.mean(spanPack))
	r.layer.add("dnsmsg.unpack_allocs", "count", unpackAllocs/allocQueries)
	r.layer.add("dnsmsg.pack_allocs", "count", packAllocs/allocQueries)
	r.layer.add("dnsmsg.query_bytes", "B", float64(queryBytes)/replayQueries)
	r.layer.add("dnsmsg.response_bytes", "B", meanResp)
	r.layer.add("authority.serve_ns", "ns", r.tr.mean(spanServe))
	r.layer.add("authority.serve_allocs", "count", serveAllocs/allocQueries)
	r.layer.add("mapping.mapat_ns", "ns", r.tr.mean(spanMapAt))
	r.layer.add("trace.overhead_pct", "%", 100*float64(tracedTime-plainTime)/float64(plainTime))
	return nil
}

// runNullServer is the -null-server child: a dnsserver with a stub handler,
// serving until it is told to stop.
func runNullServer(addr string) error {
	srv, err := layers.ListenNull(addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		_ = srv.Close()
	}()
	fmt.Println("null server on", srv.Addr())
	return srv.Serve()
}

// nullServerProbes measures the generator against a null server on the
// serving CPUs: the round trip and the rate with no handler work at all.
// Both bound what the real server's numbers can mean.
func (r *run) nullServerProbes() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	c, err := startPinned(r.serveCPUs, filepath.Join(r.scratch, "null-"+r.wl.name+".log"), self, "-null-server", addr)
	if err != nil {
		return err
	}
	defer c.stop()
	c.dns = addr

	// The null server is up once it answers.
	var up bool
	for deadline := time.Now().Add(10 * time.Second); !up && time.Now().Before(deadline); {
		rec, err := load.Run(load.Config{Server: addr, Source: r.source, Seed: r.seed, Sockets: 1, Window: 1, Duration: time.Millisecond})
		up = err == nil && len(rec.Samples) > 0
	}
	if !up {
		return fmt.Errorf("null server did not answer; see %s", c.log.Name())
	}

	const span = 2 * time.Second
	sockets := max(1, len(r.genCPUs))
	rec, err := load.Run(load.Config{Server: addr, Source: r.source, Seed: r.seed, Sockets: sockets, Window: loadWindow, Duration: rttWarmup + span})
	if err != nil {
		return err
	}
	maxQPS := float64(len(latenciesAfter(rec, rttWarmup))) / span.Seconds()
	r.layer.add("gen.max_qps", "1/s", maxQPS)

	rec, err = load.Run(load.Config{Server: addr, Source: r.source, Seed: r.seed, Sockets: 1, Window: 1, Duration: rttWarmup + span})
	if err != nil {
		return err
	}
	lat := latenciesAfter(rec, rttWarmup)
	if len(lat) == 0 {
		return fmt.Errorf("null server answered nothing in the round-trip probe")
	}
	r.layer.add("dnsserver.null_rtt_p50_us", "us", stats.Median(lat)/1e3)

	if qps, ok := r.layer.get("serve_qps"); ok && qps > 0.7*maxQPS {
		r.note("warning: serve_qps is %.0f%% of gen.max_qps (%.0f/s): little generator headroom", 100*qps/maxQPS, maxQPS)
	}
	return nil
}

// latenciesAfter returns, in ns, the round trips of the answers that arrived
// once the phase's warm-up was over.
func latenciesAfter(rec *load.Recording, warm time.Duration) []float64 {
	var lat []float64
	for _, s := range rec.Samples {
		if s.At() >= warm {
			lat = append(lat, float64(s.Nanos))
		}
	}
	return lat
}
