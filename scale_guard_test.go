package bench

import (
	"testing"

	"eum/internal/cdn"
	"eum/internal/experiments"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// TestSnapshotScaleSmoke drives the Huge-lab codepath at a CI-sized world
// (~50k blocks): partitioned layout, interned arena, warm and one-target
// incremental republishes, and end-user serving off the built map. It also
// guards resident memory — the partition index plus interned tables must
// stay within a small bytes-per-block ceiling, or million-block worlds
// stop fitting. `eumsim -fig scale -scale huge` runs the same experiment
// at the real million-block scale.
func TestSnapshotScaleSmoke(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 50000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 11, NumDeployments: 200, ServersPerDeployment: 4})
	lab := &experiments.Lab{World: w, Platform: p, Net: netmodel.NewDefault()}

	res, _ := experiments.SnapshotScale(lab, experiments.ScaleConfig{
		PingTargets: 1024, PartitionMiles: 50,
	})

	if res.ServedOK != res.ServedTotal || res.ServedTotal == 0 {
		t.Fatalf("served %d/%d sampled queries", res.ServedOK, res.ServedTotal)
	}
	if res.Partitions >= res.Blocks+res.LDNSes {
		t.Fatalf("no clustering: %d partitions for %d endpoints", res.Partitions, res.Blocks+res.LDNSes)
	}
	if res.Tables > 1024+2 {
		t.Fatalf("interning failed: %d tables for 1024 ping targets", res.Tables)
	}
	if res.IncrementalRepublish >= res.FullBuild {
		t.Fatalf("incremental republish (%v) not faster than full build (%v)",
			res.IncrementalRepublish, res.FullBuild)
	}
	// Resident-memory guard: snapshot (index + interned heads + shared
	// tails) plus the serving index. The arena is bounded by the
	// ping-target set, so the per-block cost shrinks as worlds grow. This
	// world measures 44.5 bytes/block — 1 022 heads of 32 and the tails,
	// 1.06 MB, beside a 1.17 MB index (80.5 when every table ranked all
	// 200 deployments); the ceiling is that plus a tenth.
	const ceiling = 49.0
	if res.BytesPerBlock > ceiling {
		t.Fatalf("resident %.1f bytes/block, ceiling %.0f", res.BytesPerBlock, ceiling)
	}
}
