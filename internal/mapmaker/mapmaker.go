// Package mapmaker is the control plane of the mapping stack: the
// background pipeline that turns health and measurement signals into
// published maps. It reproduces the paper's map-making architecture
// (§3–§5): topology discovery and scoring feed a MapMaker that builds a
// fresh map on a cadence, and the authoritative name servers (the data
// plane) only ever read the currently published, epoch-numbered
// mapping.Snapshot.
//
// Signals arrive through a coalescing change feed: the CDN health monitor
// reports deployment state flips (OnDeploymentChange), operators flip the
// routing policy (SetPolicy), and measurement sweeps mark the scoring
// tables dirty (Notify with ReasonMeasurement, or NotifyMeasurement for
// specific ping targets) in the snapshot builder's dirty set, the one
// record of which tables the next build re-ranks. The feed never builds
// anything itself — it marks reasons dirty and wakes the pipeline, which
// folds however many signals accumulated into one rebuild. Simulations
// drive the pipeline deterministically with Sync/Publish instead of the
// wall-clock Run loop, so snapshot epochs are a pure function of the
// simulated event sequence.
package mapmaker

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/telemetry"
)

// Reason classifies why the map must be rebuilt. Reasons are a bitmask so
// the change feed can coalesce any number of pending signals into one
// build.
type Reason uint32

const (
	// ReasonHealth: a deployment's liveness changed (health monitor).
	ReasonHealth Reason = 1 << iota
	// ReasonPolicy: the routing policy was flipped.
	ReasonPolicy
	// ReasonMeasurement: new measurements arrived; scoring tables must be
	// recomputed, not just re-published.
	ReasonMeasurement
	// ReasonPeriodic: the refresh cadence elapsed.
	ReasonPeriodic
)

// Config parameterises a MapMaker.
type Config struct {
	// Interval is the publish cadence of the Run loop — how often a fresh
	// snapshot goes out even without signals, mirroring the paper's
	// periodic map publication. Default 10s.
	Interval time.Duration
}

// MapMaker owns map publication for one mapping.System. All builds go
// through it (or through System.Rebuild in standalone setups); the data
// plane never builds.
type MapMaker struct {
	sys      *mapping.System
	interval time.Duration

	// dirty accumulates Reasons since the last build; the feed is
	// coalescing, so a burst of signals costs one rebuild.
	dirty atomic.Uint32
	// wake nudges the Run loop; buffered so signal producers never block.
	wake chan struct{}

	published atomic.Uint64 // snapshots built and installed
	buildNs   atomic.Int64  // duration of the last build, nanoseconds
	// buildHist, when non-nil, records every successful build's duration.
	// Set by RegisterMetrics before Run starts.
	buildHist *telemetry.Histogram

	// buildFailures counts builds that panicked; the Run loop survives
	// them, keeps serving the last good snapshot, and retries later.
	buildFailures atomic.Uint64
	// lastFailure records the most recent failed build, nil if none yet.
	lastFailure atomic.Pointer[BuildFailure]
	// buildFault, when set, runs at the start of every build — a fault
	// injection hook for chaos tests (a panicking hook simulates a build
	// crash).
	buildFault atomic.Pointer[func()]

	// onPublish, when set, observes every successfully built and installed
	// snapshot. The distribution plane's publisher hooks here so it serves
	// each epoch as soon as it is installed (see mapdist.Publisher.Observe).
	onPublish atomic.Pointer[func(*mapping.Snapshot)]
}

// BuildFailure describes one failed map build.
type BuildFailure struct {
	// Reasons are the change-feed reasons the failed build was claiming.
	Reasons Reason
	// Err is the recovered build error.
	Err error
	// At is when the build failed.
	At time.Time
}

// New creates a MapMaker over a system. The system already serves its
// initial snapshot (published by NewSystem); the MapMaker takes over from
// there.
func New(sys *mapping.System, cfg Config) *MapMaker {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	return &MapMaker{
		sys:      sys,
		interval: cfg.Interval,
		wake:     make(chan struct{}, 1),
	}
}

// System returns the system whose maps this MapMaker publishes.
func (m *MapMaker) System() *mapping.System { return m.sys }

// Notify marks the map dirty for the given reasons and wakes the pipeline.
// It never blocks and never builds; any number of notifications between
// builds fold into one. A plain ReasonMeasurement is unscoped: it marks
// every scoring table dirty in the builder (use NotifyMeasurement to scope
// the refresh to specific ping targets).
func (m *MapMaker) Notify(r Reason) {
	if r&ReasonMeasurement != 0 {
		m.sys.Builder().MarkMeasurementsDirty()
	}
	m.signal(r)
}

// NotifyMeasurement feeds a measurement refresh scoped to specific ping
// targets (by endpoint ID) through the change feed: it marks them dirty in
// the builder, so the next build re-ranks only the mapping partitions
// those targets serve and shares every untouched table with the previous
// snapshot. Marks from successive notifications accumulate until a build
// claims them. Called with no IDs it is equivalent to
// Notify(ReasonMeasurement).
func (m *MapMaker) NotifyMeasurement(targetIDs ...uint64) {
	m.sys.Builder().MarkMeasurementsDirty(targetIDs...)
	m.signal(ReasonMeasurement)
}

// signal marks reasons dirty and wakes the loop without blocking.
func (m *MapMaker) signal(r Reason) {
	m.markDirty(r)
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// markDirty folds reasons into the pending set without waking the loop.
// Failed builds use it to re-arm their claimed reasons for the next cadence
// tick without spinning the Run loop into an immediate retry.
func (m *MapMaker) markDirty(r Reason) {
	// CAS loop instead of atomic.Uint32.Or, which needs go1.23.
	for {
		old := m.dirty.Load()
		if m.dirty.CompareAndSwap(old, old|uint32(r)) {
			break
		}
	}
}

// OnDeploymentChange adapts the MapMaker to the cdn health monitor's
// callback: wire it as the Monitor's onChange so liveness flips flow
// through the change feed instead of invalidating scorer caches from the
// probe path.
func (m *MapMaker) OnDeploymentChange(*cdn.Deployment) { m.Notify(ReasonHealth) }

// SetPolicy records the desired routing policy and feeds the flip through
// the change feed. The flip takes effect at the next build (Sync, Publish
// or the Run loop) — policy is part of the published map, not of the query
// path.
func (m *MapMaker) SetPolicy(p mapping.Policy) {
	m.sys.SetDesiredPolicy(p)
	m.Notify(ReasonPolicy)
}

// takeDirty atomically claims and clears the pending reasons.
func (m *MapMaker) takeDirty() Reason {
	return Reason(m.dirty.Swap(0))
}

// build runs one pipeline pass for the claimed reasons: a snapshot is
// built at the next epoch, re-ranking what the builder's dirty set names,
// and installed.
//
// A build that panics must never wedge the pipeline or tear down the last
// good map: the panic is recovered, recorded, and the claimed reasons are
// re-marked dirty so the next cadence tick (or signal) retries the build.
// The measurement marks need no re-arming: a fault hook panics before the
// builder claims them, and a builder that panics marks every table dirty.
// The currently published snapshot stays in place — the data plane keeps
// serving it, and the authority's staleness watchdog degrades answers if
// the failures persist long enough.
func (m *MapMaker) build(r Reason) *mapping.Snapshot {
	sn, err := m.tryBuild()
	if err != nil {
		m.buildFailures.Add(1)
		m.lastFailure.Store(&BuildFailure{Reasons: r, Err: err, At: time.Now()})
		// Re-arm the claimed reasons without waking the loop: an immediate
		// wake would spin a persistently failing build into a hot retry
		// loop; the periodic tick is the retry cadence.
		m.markDirty(r)
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

// tryBuild performs the build, converting a panic anywhere in the pipeline
// (fault hook, snapshot construction) into an error.
func (m *MapMaker) tryBuild() (sn *mapping.Snapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mapmaker: build panicked: %v", p)
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
	return sn, nil
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

// LastBuildFailure returns the most recent failed build, or nil if every
// build so far succeeded.
func (m *MapMaker) LastBuildFailure() *BuildFailure { return m.lastFailure.Load() }

// Sync publishes a fresh snapshot if any signals are pending, else returns
// the current one unchanged. Deterministic drivers (simulations) call it
// at fixed points — e.g. once per simulated day after ticking the health
// monitor — so the epoch sequence depends only on the event sequence,
// never on wall-clock timing or worker count.
func (m *MapMaker) Sync() *mapping.Snapshot {
	if r := m.takeDirty(); r != 0 {
		return m.build(r)
	}
	return m.sys.Current()
}

// Publish unconditionally builds and installs a fresh snapshot, folding in
// any pending signals.
func (m *MapMaker) Publish() *mapping.Snapshot {
	return m.build(m.takeDirty() | ReasonPeriodic)
}

// Run is the production pipeline loop: it publishes on the configured
// cadence and additionally whenever the change feed wakes it, until ctx is
// cancelled. Start it as a goroutine next to the DNS servers.
func (m *MapMaker) Run(ctx context.Context) {
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Publish()
		case <-m.wake:
			m.Sync()
		}
	}
}

// Current returns the currently published snapshot.
func (m *MapMaker) Current() *mapping.Snapshot { return m.sys.Current() }

// Published returns how many snapshots this MapMaker has built.
func (m *MapMaker) Published() uint64 { return m.published.Load() }

// LastBuildDuration returns how long the most recent snapshot build took.
func (m *MapMaker) LastBuildDuration() time.Duration {
	return time.Duration(m.buildNs.Load())
}
