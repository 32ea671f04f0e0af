package mapping

import (
	"cmp"
	"math"
	"slices"

	"eum/internal/cdn"
)

// UtilizationSource supplies per-deployment utilization (load/capacity) to
// the snapshot builder at build time. The canonical implementation is the
// mapmaker's load monitor, which EWMA-smooths the raw load gauges; ok=false
// means the signal for that deployment is stale or missing (e.g. a dead
// telemetry feed), in which case the builder must NOT act on it and scores
// that deployment proximity-only instead.
type UtilizationSource interface {
	Utilization(d *cdn.Deployment) (util float64, ok bool)
}

// Utilization quantization for the composite score. Build-time utilization
// is rounded to 1/utilQuantum steps before it enters the score, so the
// captured utilization vector only "changes" when some deployment's load
// moved by a visible amount — sub-quantum drift keeps the warm-republish
// path (shared arena, ~1µs) instead of forcing a full re-rank on every
// periodic publish. utilMax caps the penalty so one wildly overloaded (or
// zero-capacity, +Inf utilization) deployment stays finitely comparable.
const (
	utilQuantum = 64
	utilMax     = 4.0
)

// quantizeUtil clamps a raw utilization reading into [0, utilMax] and
// rounds it onto the build-time quantization grid.
func quantizeUtil(u float64) float64 {
	if u < 0 || math.IsNaN(u) {
		return 0
	}
	if u > utilMax {
		u = utilMax
	}
	return math.Round(u*utilQuantum) / utilQuantum
}

// SetUtilizationSource attaches the load-signal feed consulted on builds
// with a positive balance factor. nil (the default) falls back to the
// platform's raw load gauges. Takes effect on the next Build.
func (b *SnapshotBuilder) SetUtilizationSource(src UtilizationSource) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loadSrc = src
}

// MarkLoadDirty records that the load signal crossed a republish threshold
// (the MapMaker's ReasonLoad), forcing the next Build to re-capture
// utilization and re-rank every table against it even if the quantized
// vector happens to match the previous build's.
func (b *SnapshotBuilder) MarkLoadDirty() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loadDirty = true
}

// BalanceFactor returns the builder's distance-vs-load balance knob.
func (b *SnapshotBuilder) BalanceFactor() float64 { return b.balance }

// LoadStats reports the load-scoring side of the builder's work: builds
// that re-ranked every table because the utilization vector changed (as
// opposed to full builds forced by measurements or layout), and the
// tripwire count of stale/missing load signals served proximity-only.
func (b *SnapshotBuilder) LoadStats() (loadRebuilds, staleSignals uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loadRebuilds, b.staleLoadSignals
}

// captureUtilLocked reads one utilization value per deployment — the
// builder's point-in-time load vector for this build. Capturing once keeps
// the build a pure function of its inputs (the par fan-out over segments
// must not observe moving gauges), and quantization (see utilQuantum)
// keeps the vector stable across idle republishes. Stale signals read as 0
// (proximity-only) and bump the tripwire counter. Returns nil when load
// scoring is off (balance factor 0).
func (b *SnapshotBuilder) captureUtilLocked() []float64 {
	if b.balance <= 0 {
		return nil
	}
	deps := b.scorer.Platform().Deployments
	utils := make([]float64, len(deps))
	for i, d := range deps {
		var u float64
		if b.loadSrc != nil {
			v, ok := b.loadSrc.Utilization(d)
			if !ok {
				b.staleLoadSignals++
				continue
			}
			u = v
		} else {
			u = d.Utilisation()
		}
		utils[i] = quantizeUtil(u)
	}
	return utils
}

// loadFactors turns the captured utilization vector into the
// per-deployment score multiplier 1 + β·u², or nil when every deployment
// is idle (every factor 1 — the adjusted table would be byte-identical to
// the proximity table, so rows are ordered by proximity alone).
func (b *SnapshotBuilder) loadFactors(utils []float64) []float64 {
	if !slices.ContainsFunc(utils, func(u float64) bool { return u > 0 }) {
		return nil
	}
	f := make([]float64, len(utils))
	for i, u := range utils {
		f[i] = 1 + b.balance*u*u
	}
	return f
}

// rowOrder is the table order under a vector of load factors: the
// composite distance-vs-load order, ascending Score·(1 + β·util²) — ping
// milliseconds inflated for hot deployments, so rows spill to next-nearest
// deployments as utilization climbs, and a saturated deployment can leave a
// head altogether — with ties in proximity order. Stored scores stay the raw
// ping milliseconds (distance truth does not change because a cluster is
// busy; downstream consumers — CANS weighting, experiments, /mapz — read
// them as latency). Idle deployments (factor 1) keep the exact proximity
// order, and nil factors are that order itself, so β>0 at zero load is
// byte-identical to β=0.
type rowOrder struct{ factors []float64 }

// key is what the order sorts by first; entries with equal keys fall to
// compare's tie-breaks.
func (o rowOrder) key(r Ranked) float64 {
	if o.factors == nil {
		return r.Score()
	}
	return r.Score() * o.factors[r.Dep]
}

// before reports whether a, at key ka, ranks ahead of b, at key kb: the
// keys decide unless they are equal.
func (o rowOrder) before(a Ranked, ka float64, b Ranked, kb float64) bool {
	return ka < kb || ka == kb && o.compare(a, b) < 0
}

// compare is the total order.
func (o rowOrder) compare(a, b Ranked) int {
	if o.factors != nil {
		if c := cmp.Compare(o.key(a), o.key(b)); c != 0 {
			return c
		}
	}
	return compareRanked(a, b)
}

// equalFloat64s reports element-wise equality (nil equals nil).
func equalFloat64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
