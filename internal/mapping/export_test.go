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

// FillAll ranks every row of the builder's layout into arena.
func FillAll(sb *SnapshotBuilder, lay *Layout, arena []Ranked) {
	sb.fillRows(lay, sb.segs, upTo(lay.Rows()), arena)
}

// BootSnapshot builds a replica's epoch-0 map.
func BootSnapshot(sb *SnapshotBuilder) *Snapshot { return sb.bootSnapshot(EndUser) }

// BuildIndex indexes w under the partitions lay assigns.
func BuildIndex(w *world.World, lay *Layout) *Index {
	ix, _ := buildIndex(w, lay.byID)
	return ix
}
