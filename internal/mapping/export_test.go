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

// Partitions lays out the builder's universe afresh and returns the
// partition of each position in it, which BuildIndex indexes.
func Partitions(sb *SnapshotBuilder) []int32 {
	_, _, assign := sb.partition()
	return assign
}

// FillAll ranks every row of the builder's layout into arena.
func FillAll(sb *SnapshotBuilder, lay *Layout, arena []Ranked) {
	sb.fillRows(lay, sb.segs, upTo(lay.Rows()), arena)
}

// BootSnapshot builds a replica's epoch-0 map.
func BootSnapshot(sb *SnapshotBuilder) *Snapshot { return sb.bootSnapshot(EndUser) }

// BuildIndex indexes w under the partitions Partitions returned.
func BuildIndex(w *world.World, assign []int32) *Index {
	ix, _ := buildIndex(w, assign)
	return ix
}
