package mapping

import (
	"eum/internal/cdn"
	"eum/internal/world"
)

// Set-up stages for BenchmarkSetupBudget, which lives in the external test
// package so that it can reach mapwire.

// LayoutOf returns the builder's partition layout, computing it on first
// use.
func LayoutOf(sb *SnapshotBuilder) *Layout {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.layoutLocked()
}

// IndexTables lays out the builder's universe afresh and returns the table
// of each position in it, which BuildIndex indexes, and the table count.
func IndexTables(sb *SnapshotBuilder) ([]int32, int) {
	lay, _, _, assign := sb.partition()
	return assign, lay.Tables()
}

// FillAll ranks every row of the builder's layout into an arena's columns.
func FillAll(sb *SnapshotBuilder, lay *Layout, order []uint16, scores []float32) {
	sb.fillRows(lay, sb.segs, sb.tailSeg, upTo(lay.Rows()), order, scores)
}

// BootSnapshot builds a replica's epoch-0 map.
func BootSnapshot(sb *SnapshotBuilder) *Snapshot { return sb.bootSnapshot(EndUser) }

// BuildIndex indexes w under the tables IndexTables returned.
func BuildIndex(w *world.World, assign []int32, tables int) *Index {
	return buildIndex(w, assign, tables)
}

// LoadAwareWindow is how many live head entries the load-aware pick
// weighs.
const LoadAwareWindow = loadAwareWindow

// SetLoadAwareProbe has f see every load-aware pick before its load lands,
// until the returned func is called.
func SetLoadAwareProbe(f func(lb *LoadBalancer, deps []*cdn.Deployment, candidates Row, demand float64, got *cdn.Deployment)) (undo func()) {
	loadAwareProbe = f
	return func() { loadAwareProbe = nil }
}

// FloatHeads ranks every table of the system's layout, in table order, as
// a build does before it stores the head: float64 scores, best first.
func FloatHeads(s *System) [][]Ranked {
	b := s.builder
	b.mu.Lock()
	defer b.mu.Unlock()
	lay := b.layoutLocked()
	scratch, pings := make([]Ranked, lay.TailLen), make([]float64, lay.TailLen)
	heads := make([][]Ranked, lay.Tables())
	for t := range heads {
		b.scorer.scoreInto(scratch, pings, b.scorer.segProxy(b.segs[t]))
		heads[t] = make([]Ranked, lay.TableLen)
		bestInto(heads[t], scratch)
	}
	return heads
}
