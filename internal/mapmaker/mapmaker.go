// Package mapmaker is the control plane of the mapping stack: the
// background pipeline that turns measurements into published maps. It
// reproduces the paper's map-making architecture (§3–§5): topology
// discovery and scoring feed a MapMaker that builds a fresh map on a
// cadence, and the authoritative name servers (the data plane) only ever
// read the currently published, epoch-numbered mapping.Snapshot.
//
// Measurements are the one signal: NotifyMeasurement marks the refreshed
// ping targets in the snapshot builder's dirty set, the one record of
// which tables the next build re-ranks, and records that a build is
// pending. It never builds anything itself; any number of notifications
// fold into one rebuild. What a map is built from otherwise — the policy,
// the world, the roster — is fixed when the system is made, and server
// liveness is read per pick on the answer path, so it needs no rebuild.
// Simulations drive the pipeline deterministically with Sync/Publish
// instead of the wall-clock Run loop, so snapshot epochs are a pure
// function of the simulated event sequence.
package mapmaker

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"eum/internal/mapping"
	"eum/internal/telemetry"
)

// Config parameterises a MapMaker.
type Config struct {
	// Interval is the publish cadence of the Run loop — how often a fresh
	// snapshot goes out, mirroring the paper's periodic map publication.
	// Default 10s.
	Interval time.Duration
}

// MapMaker owns map publication for one mapping.System. All builds go
// through it (or through System.Rebuild in standalone setups); the data
// plane never builds.
type MapMaker struct {
	sys      *mapping.System
	interval time.Duration

	// pending records a measurement notification no build has claimed
	// yet; a burst of notifications costs one rebuild.
	pending atomic.Bool

	// published counts the snapshots built and installed, the one the
	// system was made with included.
	published atomic.Uint64
	buildNs   atomic.Int64 // duration of the last build, nanoseconds
	// buildHist, when non-nil, records every successful build's duration.
	// Set by RegisterMetrics before Run starts.
	buildHist *telemetry.Histogram

	// buildFailures counts builds that panicked; the Run loop survives
	// them, keeps serving the last good snapshot, and retries later.
	buildFailures atomic.Uint64
	// buildFault, when set, runs at the start of every build — a fault
	// injection hook for chaos tests (a panicking hook simulates a build
	// crash).
	buildFault atomic.Pointer[func()]

	// onPublish, when set, observes every successfully built and installed
	// snapshot.
	onPublish atomic.Pointer[func(*mapping.Snapshot)]
}

// New creates a MapMaker over a system. The system already serves its
// initial snapshot (published by NewSystem), which the MapMaker counts as
// its first publish, and takes over from there.
func New(sys *mapping.System, cfg Config) *MapMaker {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	m := &MapMaker{sys: sys, interval: cfg.Interval}
	m.published.Store(1)
	return m
}

// System returns the system whose maps this MapMaker publishes.
func (m *MapMaker) System() *mapping.System { return m.sys }

// NotifyMeasurement records a measurement refresh scoped to specific ping
// targets (by endpoint ID): it marks them dirty in the builder, so the
// next build re-ranks only the mapping partitions those targets serve and
// shares every untouched table with the previous snapshot, and marks a
// build pending for Sync. Marks from successive notifications accumulate
// until a build claims them. Called with no IDs it marks every scoring
// table dirty. It never blocks and never builds.
func (m *MapMaker) NotifyMeasurement(targetIDs ...uint64) {
	m.sys.Builder().MarkMeasurementsDirty(targetIDs...)
	m.pending.Store(true)
}

// build runs one pipeline pass: a snapshot is built at the next epoch,
// re-ranking what the builder's dirty set names, and installed.
//
// A build that panics must never wedge the pipeline or tear down the last
// good map: the panic is recovered and counted, and the build is marked
// pending again so the next Sync or cadence tick retries it (a fault hook
// panics before the builder claims the measurement marks, and a builder
// that panics marks every table dirty). The data plane keeps serving the
// current map, which the staleness watchdog degrades if failures persist.
func (m *MapMaker) build() *mapping.Snapshot {
	sn, ok := m.tryBuild()
	if !ok {
		m.buildFailures.Add(1)
		m.pending.Store(true)
		return m.sys.Current()
	}
	if m.sys.Current() != sn { // an Install from elsewhere raced the build
		return m.sys.Current()
	}
	m.published.Add(1)
	if f := m.onPublish.Load(); f != nil {
		(*f)(sn)
	}
	return sn
}

// SetOnPublish installs a hook observing every successfully published
// snapshot, called from the build goroutine after the install. Pass nil
// to remove. Set before Run starts.
func (m *MapMaker) SetOnPublish(f func(*mapping.Snapshot)) {
	if f == nil {
		m.onPublish.Store(nil)
		return
	}
	m.onPublish.Store(&f)
}

// tryBuild performs the build, logging a panic anywhere in the pipeline
// (fault hook, snapshot construction) and reporting it as a failed one.
func (m *MapMaker) tryBuild() (sn *mapping.Snapshot, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("mapmaker: build failed, still serving epoch %d: %v", m.sys.Current().Epoch(), p)
		}
	}()
	if f := m.buildFault.Load(); f != nil && *f != nil {
		(*f)()
	}
	start := time.Now()
	sn = m.sys.Rebuild()
	elapsed := time.Since(start)
	m.buildNs.Store(int64(elapsed))
	if m.buildHist != nil {
		m.buildHist.Observe(elapsed)
	}
	return sn, true
}

// RegisterMetrics wires the MapMaker's publish/failure counters, snapshot
// gauges and a build-duration histogram into reg under the mapmaker_
// namespace. Call before Run starts; the histogram field is not
// synchronised against a running pipeline loop.
func (m *MapMaker) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("mapmaker_published_total",
		"Map snapshots built and installed.", m.published.Load)
	reg.Counter("mapmaker_build_failures_total",
		"Map builds that panicked and were recovered.", m.buildFailures.Load)
	reg.Gauge("mapmaker_last_build_seconds",
		"Duration of the most recent successful map build.", func() float64 {
			return time.Duration(m.buildNs.Load()).Seconds()
		})
	reg.Gauge("mapmaker_map_epoch",
		"Epoch of the currently published snapshot.", func() float64 {
			return float64(m.sys.Current().Epoch())
		})
	m.buildHist = reg.Histogram("mapmaker_build_seconds",
		"Map build (snapshot pipeline) duration.")
}

// SetBuildFault installs a hook run at the start of every build — fault
// injection for chaos and resilience tests (a panicking hook simulates a
// crashing build). Pass nil to clear.
func (m *MapMaker) SetBuildFault(f func()) {
	if f == nil {
		m.buildFault.Store(nil)
		return
	}
	m.buildFault.Store(&f)
}

// BuildFailures returns how many builds have panicked and been recovered.
func (m *MapMaker) BuildFailures() uint64 { return m.buildFailures.Load() }

// Sync publishes a fresh snapshot if a measurement notification or a
// failed build is pending, else returns the current one unchanged.
// Deterministic callers (simulations, the benchmark) call it at fixed
// points, so the epoch sequence depends only on the event sequence, never
// on wall-clock timing or worker count.
func (m *MapMaker) Sync() *mapping.Snapshot {
	if m.pending.Swap(false) {
		return m.build()
	}
	return m.sys.Current()
}

// Publish unconditionally builds and installs a fresh snapshot, claiming
// any pending notification.
func (m *MapMaker) Publish() *mapping.Snapshot {
	m.pending.Store(false)
	return m.build()
}

// Run is the production pipeline loop: it publishes on the configured
// cadence until ctx is cancelled. Start it as a goroutine next to the DNS
// servers.
func (m *MapMaker) Run(ctx context.Context) {
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Publish()
		}
	}
}

// Current returns the currently published snapshot.
func (m *MapMaker) Current() *mapping.Snapshot { return m.sys.Current() }

// Published returns how many snapshots this MapMaker has published, the
// system's first included.
func (m *MapMaker) Published() uint64 { return m.published.Load() }
