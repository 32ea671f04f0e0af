package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"eum/bench/internal/layers"
	"eum/bench/internal/stats"
)

// plane is the harness's own mapping plane: the MapMaker node of the
// paper's topology. It builds maps and serves them to replicas over
// loopback HTTP; during the serve phase the replica is the eumdns child.
type plane struct {
	universe *layers.Universe
	system   *layers.System
	mm       *layers.MapMaker
	// addr is the publisher's listen address, eumdns's -mapmaker-addr.
	addr   string
	server *http.Server
	served chan struct{} // closed when the HTTP server has stopped

	worldTime, cdnTime, firstBuild time.Duration
}

func newPlane(spec layers.Spec) (*plane, error) {
	p := &plane{}
	p.universe, p.worldTime, p.cdnTime = layers.Generate(spec)
	t := time.Now()
	p.system = p.universe.NewSystem()
	p.firstBuild = time.Since(t)
	p.mm = layers.NewMapMaker(p.system)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(layers.SnapshotPath, layers.NewPublisher(p.system, p.mm))
	p.addr = ln.Addr().String()
	p.server = &http.Server{Handler: mux}
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		_ = p.server.Serve(ln) // returns ErrServerClosed after close
	}()
	return p, nil
}

func (p *plane) close() {
	_ = p.server.Close()
	<-p.served
}

// liveTargets returns ping targets whose refresh really re-ranks a table.
// Under partitioning some targets back no partition's table; refreshing one
// publishes an epoch with nothing in it, which would make the cheapest
// "delta" a no-op. A target counts when the delta its refresh produces is
// larger than the delta of a publish that changed nothing.
func (p *plane) liveTargets() ([]uint64, error) {
	codec := p.universe.NewCodec()
	// deltaSize is 0 for a publish that has no delta form (the builder
	// compacted its arenas): such a publish decides nothing either way.
	deltaSize := func(publish func() layers.Snapshot) (int, error) {
		prev := p.system.Current()
		image, _, err := codec.EncodeDelta(prev, publish())
		return len(image), err
	}
	empty, err := deltaSize(p.mm.Publish)
	if err != nil {
		return nil, err
	}
	if empty == 0 {
		return nil, fmt.Errorf("a warm republish has no delta form")
	}
	var live []uint64
	for _, id := range p.system.PingTargets(maxTargets) {
		size, err := deltaSize(func() layers.Snapshot {
			p.mm.NotifyMeasurement(id)
			return p.mm.Sync()
		})
		if err != nil {
			return nil, err
		}
		if size > empty {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("no ping target backs a rank table")
	}
	return live, nil
}

// maxTargets bounds how many ping targets the refreshes cycle through.
const maxTargets = 64

// Repetition budgets. Counts are fixed where the work is cheap on every
// workload; the full-map steps are also capped in time, because on
// cold_wide one repetition costs about a second and the whole run has a
// wall-clock budget.
const (
	fullReps       = 5
	fullRepsMin    = 3
	fullRepsBudget = 4 * time.Second
	deltaReps      = 300
	deltaRepsMin   = 50
	deltaBudget    = 3 * time.Second
	traceDeltas    = deltaReps
	warmReps       = 20
)

// timing summarises the repetitions of one control-plane step.
type timing struct {
	median time.Duration
	reps   int
}

// control is what the control phase measured.
type control struct {
	fullBuild, propagateFull, propagateDelta timing
	shape                                    layers.Shape
	// targets are the ping targets the delta repetitions refreshed, which
	// the churn workload goes on refreshing while the replica serves.
	targets []uint64

	// Traced runs only.
	incrementalBuild, warmRepublish time.Duration
	fullBytes, deltaBytes           int
	// compactions counts traced publishes that had no delta form.
	compactions int
}

// timeboxed runs step between min and max times, stopping early once budget
// is spent. With collect it
// runs the garbage collector before every step, so each repetition of a
// step that allocates a whole map starts from the same heap and the
// collector's cycles fall in the same places; for a sub-millisecond step
// the collection would cost more than the step and is left out.
func timeboxed(min, max int, budget time.Duration, collect bool, step func(i int) (time.Duration, error)) (timing, error) {
	var ds []float64
	begin := time.Now()
	for i := 0; i < max && (i < min || time.Since(begin) < budget); i++ {
		if collect {
			runtime.GC()
		}
		d, err := step(i)
		if err != nil {
			return timing{}, err
		}
		ds = append(ds, float64(d))
	}
	return timing{median: time.Duration(stats.Median(ds)), reps: len(ds)}, nil
}

// controlPhase times map builds and propagation to a twin replica system
// in this process, with nothing else running. With a tracer it then walks
// one full and traceDeltas delta publishes stage by stage.
func controlPhase(p *plane, tr *tracer) (*control, error) {
	c := &control{}
	ctx := context.Background()
	var err error

	c.fullBuild, err = timeboxed(fullRepsMin, fullReps, fullRepsBudget, true, func(int) (time.Duration, error) {
		t := time.Now()
		p.system.FullBuild()
		return time.Since(t), nil
	})
	if err != nil {
		return nil, err
	}

	// Sized here, on a map fresh from a full build: deltas chain small
	// arenas onto it, and how many depends on how many repetitions fit.
	c.shape = p.system.Shape()

	// Chosen before the twin exists, so the publishes the choice costs
	// leave no replica behind.
	targets, err := p.liveTargets()
	if err != nil {
		return nil, err
	}
	c.targets = targets

	twin := p.universe.NewSystem()
	fetcher, err := layers.NewFetcher(twin, p.addr)
	if err != nil {
		return nil, err
	}
	synced := func() error {
		if got, want := twin.Current().Epoch(), p.system.Current().Epoch(); got != want {
			return fmt.Errorf("twin replica serves epoch %d after fetch, publisher is at %d", got, want)
		}
		return nil
	}

	c.propagateFull, err = timeboxed(fullRepsMin, fullReps, fullRepsBudget, true, func(int) (time.Duration, error) {
		p.mm.Publish() // a new epoch, so the publisher encodes afresh
		twin.BootstrapReplica()
		t := time.Now()
		if err := fetcher.FetchOnce(ctx); err != nil {
			return 0, err
		}
		return time.Since(t), synced()
	})
	if err != nil {
		return nil, err
	}

	c.propagateDelta, err = timeboxed(deltaRepsMin, deltaReps, deltaBudget, false, func(i int) (time.Duration, error) {
		t := time.Now()
		p.mm.NotifyMeasurement(targets[i%len(targets)])
		p.mm.Sync()
		if err := fetcher.FetchOnce(ctx); err != nil {
			return 0, err
		}
		return time.Since(t), synced()
	})
	if err != nil {
		return nil, err
	}

	if tr != nil {
		if err := tracePublishes(p, twin, targets, tr, c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// publishRequestBase keeps publish request ids clear of query request ids.
const publishRequestBase = 1 << 20

// tracePublishes performs by hand, stage by stage, what Publisher and
// Fetcher do between them, so each stage gets its own span. The HTTP span
// is the fetch minus the encode the publisher performs inside it.
func tracePublishes(p *plane, twin *layers.System, targets []uint64, tr *tracer, c *control) error {
	codec := p.universe.NewCodec()
	// Like the product's Fetcher, dial afresh for every fetch.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	// get asks the publisher for whatever brings base up to date, as a
	// replica holding base would.
	get := func(base layers.Snapshot) ([]byte, time.Duration, error) {
		t := time.Now()
		resp, err := client.Get(fmt.Sprintf("http://%s%s?have=%d&layout=%016x",
			p.addr, layers.SnapshotPath, base.Epoch(), base.LayoutFingerprint()))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("publisher answered %s", resp.Status)
		}
		return data, time.Since(t), err
	}
	spanLen := func(i int32) time.Duration { return time.Duration(tr.spans[i].end - tr.spans[i].start) }

	// One full build, then as many ships of a full image as the untraced
	// phase timed, each of a fresh epoch and from a collected heap as there.
	req := int32(publishRequestBase)
	s := tr.begin(spanFullBuild, -1, req)
	p.system.FullBuild()
	tr.end(s)
	for i := 0; i < fullReps; i++ {
		req++
		next := p.mm.Publish()
		runtime.GC()
		twin.BootstrapReplica()
		root := tr.begin(spanPublishFull, -1, req)
		enc := tr.begin(spanEncodeFull, root, req)
		image, err := codec.EncodeFull(next)
		tr.end(enc)
		if err != nil {
			return err
		}
		c.fullBytes = len(image)
		httpStart := int64(time.Since(tr.t0))
		data, fetched, err := get(twin.Current())
		if err != nil {
			return err
		}
		tr.add(spanHTTPFull, root, req, httpStart, max(0, fetched-spanLen(enc)))
		s := tr.begin(spanDecodeFull, root, req)
		decoded, err := codec.Decode(data, twin.Current())
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(spanInstall, root, req)
		twin.Install(decoded)
		tr.end(s)
		tr.end(root)
	}

	// Delta publishes. The publisher can only patch an epoch it retains,
	// which the twin's installed epoch is: it was published a moment ago.
	for i := 0; i < traceDeltas; i++ {
		req++
		prev := p.system.Current()
		root := tr.begin(spanPublishDelta, -1, req)
		s := tr.begin(spanSync, root, req)
		p.mm.NotifyMeasurement(targets[i%len(targets)])
		next := p.mm.Sync()
		tr.end(s)
		s = tr.begin(spanEncodeDelta, root, req)
		image, isDelta, err := codec.EncodeDelta(prev, next)
		tr.end(s)
		if err != nil {
			return err
		}
		if !isDelta {
			// This build compacted the arenas, so the publisher ships a
			// full image. Bring the twin up to date and leave the
			// publish out of the delta spans.
			tr.spans = tr.spans[:root]
			data, _, err := get(twin.Current())
			if err != nil {
				return err
			}
			decoded, err := codec.Decode(data, twin.Current())
			if err != nil {
				return err
			}
			twin.Install(decoded)
			c.compactions++
			continue
		}
		c.deltaBytes = len(image)
		httpStart := int64(time.Since(tr.t0))
		data, fetched, err := get(twin.Current())
		if err != nil {
			return err
		}
		tr.add(spanHTTPDelta, root, req, httpStart, max(0, fetched-spanLen(s)))
		s = tr.begin(spanApplyDelta, root, req)
		decoded, err := codec.Decode(data, twin.Current())
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(spanInstall, root, req)
		twin.Install(decoded)
		tr.end(s)
		tr.end(root)
		if got, want := twin.Current().Epoch(), next.Epoch(); got != want {
			return fmt.Errorf("traced delta left the twin at epoch %d, want %d", got, want)
		}
	}

	// Two probes with no place in a publish: the mapping layer's own
	// incremental build (no MapMaker around it) and a warm republish.
	var inc, warm []float64
	for i := 0; i < warmReps; i++ {
		t := time.Now()
		p.system.IncrementalBuild(targets[i%len(targets)])
		inc = append(inc, float64(time.Since(t)))
		t = time.Now()
		p.mm.Publish()
		warm = append(warm, float64(time.Since(t)))
	}
	c.incrementalBuild = time.Duration(stats.Median(inc))
	c.warmRepublish = time.Duration(stats.Median(warm))
	return nil
}
