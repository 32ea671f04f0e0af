package mapmaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// lab is a world, its platform and the network between them.
type lab struct {
	World    *world.World
	Platform *cdn.Platform
	Net      *netmodel.Model
}

// smallLab is the figures' Small lab universe — seed 1, 4 000 blocks, 400
// deployments of 8 servers — built on first use, for the benchmarks.
var smallLab = sync.OnceValue(func() lab {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 4000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 400, ServersPerDeployment: 8})
	return lab{World: w, Platform: p, Net: netmodel.NewDefault()}
})

// BenchmarkSnapshotSwap measures the control plane's publish latency: one
// full pipeline pass (snapshot build + atomic install). "warm" reuses the
// scorer's cached rank tables — the health/policy/periodic republish case;
// "measurement" invalidates them first, so every table recomputes — the
// sweep-refresh case.
func BenchmarkSnapshotSwap(b *testing.B) {
	l := smallLab()
	sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
		Policy: mapping.EndUser, PingTargets: 800,
	})
	mm := New(sys, Config{})
	mapSize := func(b *testing.B) {
		sn := sys.Current()
		b.ReportMetric(float64(len(l.World.Blocks)), "blocks")
		b.ReportMetric(float64(sn.Partitions()), "partitions")
		b.ReportMetric(float64(sn.Tables()), "tables")
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mm.Publish()
		}
		mapSize(b)
	})
	b.Run("measurement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mm.Notify(ReasonMeasurement)
			mm.Sync()
		}
		mapSize(b)
	})
}

// BenchmarkServingUnderMapChurn serves queries while the map changes
// underneath: a background MapMaker republishes complete snapshots and the
// query path only loads the installed pointer, so no query ever computes
// anything and the worst-op metric stays a scheduling artifact.
func BenchmarkServingUnderMapChurn(b *testing.B) {
	l := smallLab()
	const churnEvery = 5 * time.Millisecond

	// A spread of client blocks so the query stream touches many rank
	// tables, as a real server's mix of resolvers does.
	blocks := make([]*world.ClientBlock, 0, 64)
	for i := 0; i < 64; i++ {
		blocks = append(blocks, l.World.Blocks[(i*131)%len(l.World.Blocks)])
	}

	churn := func(change func()) (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(churnEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					change()
				}
			}
		}()
		return func() { close(done); wg.Wait() }
	}

	// recordMax tracks the slowest single query across all workers.
	recordMax := func(m *atomic.Int64, ns int64) {
		for {
			cur := m.Load()
			if ns <= cur || m.CompareAndSwap(cur, ns) {
				return
			}
		}
	}

	b.Run("snapshot-swap", func(b *testing.B) {
		sys := mapping.NewSystem(l.World, l.Platform, l.Net, mapping.Config{
			Policy: mapping.EndUser, PingTargets: 800,
		})
		mm := New(sys, Config{})
		stop := churn(func() { mm.Publish() })
		defer stop()
		var maxNs atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				blk := blocks[i%len(blocks)]
				i++
				req := mapping.Request{Domain: "churn.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
				start := time.Now()
				if _, err := sys.Map(req); err != nil {
					b.Error(err)
					return
				}
				recordMax(&maxNs, time.Since(start).Nanoseconds())
			}
		})
		b.ReportMetric(float64(maxNs.Load()), "worst-op-ns")
	})
}
