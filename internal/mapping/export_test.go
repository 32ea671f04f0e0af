package mapping

import "eum/internal/world"

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
// of each position in it, which BuildIndex indexes.
func IndexTables(sb *SnapshotBuilder) []int32 {
	_, _, _, assign := sb.partition()
	return assign
}

// FillAll ranks every row of the builder's layout into an arena's columns.
func FillAll(sb *SnapshotBuilder, lay *Layout, order []uint16, scores []float64) {
	sb.fillRows(lay, sb.segs, sb.tailSeg, upTo(lay.Rows()), order, scores)
}

// BootSnapshot builds a replica's epoch-0 map.
func BootSnapshot(sb *SnapshotBuilder) *Snapshot { return sb.bootSnapshot(EndUser) }

// BuildIndex indexes w under the tables IndexTables returned.
func BuildIndex(w *world.World, assign []int32) *Index {
	ix, _ := buildIndex(w, assign)
	return ix
}
