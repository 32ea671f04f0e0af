package mapping

import (
	"testing"

	"eum/internal/cdn"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// BenchmarkSetupBudget times the stages a process goes through between its
// seed and a served map, at the cold_wide benchmark's size (50 000 blocks,
// 600 deployments, 5 000 ping targets, 50-mile partitions): the rows of
// DESIGN.md's set-up budget. A publisher runs them all; a replica runs
// world to rings and then boot, and fetches the rows instead of ranking
// them.
//
//	go test -run '^$' -bench SetupBudget -benchtime 5x -cpu 1 ./internal/mapping
func BenchmarkSetupBudget(b *testing.B) {
	wcfg := world.Config{Seed: 1, NumBlocks: 50000}
	pcfg := cdn.Config{Seed: 1, NumDeployments: 600}
	cfg := Config{Policy: EndUser, PingTargets: 5000, PartitionMiles: 50}
	w := world.MustGenerate(wcfg)
	p := cdn.MustGenerateUniverse(w, pcfg)
	net := netmodel.NewDefault()
	// A fresh scorer per iteration: its nearest-target memo is part of
	// what laying out the partitions costs.
	builder := func() *SnapshotBuilder { return NewSnapshotBuilder(w, p, net, cfg) }
	layout := func(sb *SnapshotBuilder) *Layout {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		return sb.layoutLocked()
	}

	b.Run("world", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			world.MustGenerate(wcfg)
		}
	})
	b.Run("platform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cdn.MustGenerateUniverse(w, pcfg)
		}
	})
	b.Run("scorer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewScorer(w, p, net, cfg.PingTargets)
		}
	})
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildSysIndex(w)
		}
	})
	b.Run("rings", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewLoadBalancer().Prepare(p)
		}
	})
	b.Run("layout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sb := builder()
			b.StartTimer()
			layout(sb)
		}
	})
	b.Run("rows", func(b *testing.B) {
		sb := builder()
		lay := layout(sb)
		arena := make([]Ranked, lay.ArenaLen())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb.fillRows(lay, sb.segs, upTo(lay.Rows()), arena, nil)
		}
	})
	b.Run("boot", func(b *testing.B) {
		sb := builder()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb.bootSnapshot(EndUser)
		}
	})
}
