package mapping_test

import (
	"bytes"
	"testing"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// BenchmarkSetupBudget times the stages a process goes through between its
// seed and a served map, at the cold_wide benchmark's size (50 000 blocks,
// 600 deployments, 5 000 ping targets, 50-mile partitions): the rows of
// DESIGN.md's set-up budget. A publisher runs world to rows; a replica
// runs one stage, replica: it decodes the publisher's full image — roster,
// index, layout and rows — into a serving system.
//
//	go test -run '^$' -bench SetupBudget -benchtime 5x -cpu 1 ./internal/mapping
func BenchmarkSetupBudget(b *testing.B) {
	wcfg := world.Config{Seed: 1, NumBlocks: 50000}
	pcfg := cdn.Config{Seed: 1, NumDeployments: 600}
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 5000, PartitionMiles: 50}
	w := world.MustGenerate(wcfg)
	p := cdn.MustGenerateUniverse(w, pcfg)
	net := netmodel.NewDefault()
	// A fresh scorer per iteration: its nearest-target memo is part of
	// what laying out the partitions costs.
	builder := func() *mapping.SnapshotBuilder { return mapping.NewSnapshotBuilder(w, p, net, cfg) }

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
			mapping.NewScorer(w, p, net, cfg.PingTargets)
		}
	})
	b.Run("index", func(b *testing.B) {
		assign, tables := mapping.IndexTables(builder())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mapping.BuildIndex(w, assign, tables)
		}
	})
	b.Run("layout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sb := builder()
			b.StartTimer()
			mapping.LayoutOf(sb)
		}
	})
	b.Run("rows", func(b *testing.B) {
		sb := builder()
		lay := mapping.LayoutOf(sb)
		order, scores := make([]uint16, lay.ArenaLen()), make([]float32, lay.Tables()*lay.TableLen)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mapping.FillAll(sb, lay, order, scores)
		}
	})
	b.Run("boot", func(b *testing.B) {
		sb := builder()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mapping.BootSnapshot(sb)
		}
	})
	b.Run("replica", func(b *testing.B) {
		image, err := mapwire.NewCodec(p).EncodeFull(mapping.NewSystem(w, p, net, cfg).Current())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, sn, err := mapwire.DecodeBoot(bytes.NewReader(image), int64(len(image)))
			if err != nil {
				b.Fatal(err)
			}
			mapping.NewReplica(c.Platform(), sn, cfg)
		}
	})
}
