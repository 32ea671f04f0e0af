package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"eum/internal/mapping"
)

// ScaleConfig parameterises the snapshot-scale experiment: how many ping
// targets the scorer clusters endpoints onto, and the partition radius.
type ScaleConfig struct {
	PingTargets    int
	PartitionMiles float64
}

// DefaultScaleConfig sizes the mapping plane for the lab scale. The
// partition radius stays fixed (a metro-sized 50 miles); the target set
// grows with the universe so table quality does not degrade.
func DefaultScaleConfig(scale Scale) ScaleConfig {
	switch scale {
	case Huge:
		return ScaleConfig{PingTargets: 4000, PartitionMiles: 50}
	case Full:
		return ScaleConfig{PingTargets: 2000, PartitionMiles: 50}
	default:
		return ScaleConfig{PingTargets: 500, PartitionMiles: 50}
	}
}

// ScaleResult is what the snapshot-scale experiment measured on one lab.
type ScaleResult struct {
	Blocks     int
	LDNSes     int
	Partitions int
	Tables     int

	// FullBuild is a cold re-rank of every table; WarmRepublish is an
	// epoch bump with nothing dirty (the arena is shared wholesale);
	// IncrementalRepublish re-ranks only the tables served by one dirty
	// ping target.
	FullBuild            time.Duration
	WarmRepublish        time.Duration
	IncrementalRepublish time.Duration

	// SnapshotBytes is the published snapshot's resident footprint
	// (partition index + interned heads + shared tails); IndexBytes is the
	// serving-side address→endpoint index.
	SnapshotBytes uint64
	IndexBytes    uint64
	// BytesPerBlock is total resident mapping state per client block.
	BytesPerBlock float64

	// ServedOK counts sampled end-user queries answered with a live
	// deployment, proving the built map serves.
	ServedOK, ServedTotal int
}

// SnapshotScale measures the mapping plane at the lab's scale: full
// snapshot build time, warm and one-target incremental republish times,
// and resident memory per block. It is the experiment behind `eumsim -fig
// scale` and TestSnapshotScaleSmoke.
func SnapshotScale(lab *Lab, cfg ScaleConfig) (*ScaleResult, *Report) {
	mcfg := mapping.Config{
		Policy:         mapping.EndUser,
		PingTargets:    cfg.PingTargets,
		PartitionMiles: cfg.PartitionMiles,
	}
	sys := mapping.NewSystem(lab.World, lab.Platform, lab.Net, mcfg)
	b := sys.Builder()

	// Cold full build: invalidate everything, re-rank every table.
	b.MarkMeasurementsDirty()
	t0 := time.Now()
	sn := sys.Rebuild()
	fullBuild := time.Since(t0)

	// Warm republish: nothing dirty, the arena is shared wholesale.
	t0 = time.Now()
	sys.Rebuild()
	warm := time.Since(t0)

	// One ping target's measurements refresh: re-rank only its tables.
	// LDNS 0 always represents its own partition, so the target standing
	// in for it certainly backs a live table.
	if target, ok := sys.Scorer().TargetFor(lab.World.LDNSes[0].Endpoint()); ok {
		b.MarkMeasurementsDirty(target.ID)
	} else {
		b.MarkMeasurementsDirty()
	}
	t0 = time.Now()
	sn = sys.Rebuild()
	incremental := time.Since(t0)

	res := &ScaleResult{
		Blocks:               len(lab.World.Blocks),
		LDNSes:               len(lab.World.LDNSes),
		Partitions:           sn.Partitions(),
		Tables:               sn.Tables(),
		FullBuild:            fullBuild,
		WarmRepublish:        warm,
		IncrementalRepublish: incremental,
		SnapshotBytes:        sn.MemoryBytes(),
		IndexBytes:           sys.IndexBytes(),
	}
	res.BytesPerBlock = float64(res.SnapshotBytes+res.IndexBytes) / float64(res.Blocks)

	// Serve a sample of end-user queries off the built map.
	stride := len(lab.World.Blocks)/1000 + 1
	for i := 0; i < len(lab.World.Blocks); i += stride {
		blk := lab.World.Blocks[i]
		res.ServedTotal++
		resp, err := sys.MapAt(sn, mapping.Request{
			Domain:       "scale.example",
			LDNS:         netip.MustParseAddr("180.0.0.1"),
			ClientSubnet: blk.Prefix,
		})
		if err == nil && resp.Deployment != nil {
			res.ServedOK++
		}
	}

	rep := &Report{
		ID:      "scale",
		Caption: "snapshot scale: build and republish times, resident memory",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"client blocks", fmt.Sprintf("%d", res.Blocks)},
			{"LDNSes", fmt.Sprintf("%d", res.LDNSes)},
			{"partitions", fmt.Sprintf("%d", res.Partitions)},
			{"rank tables (interned)", fmt.Sprintf("%d", res.Tables)},
			{"full build", res.FullBuild.Round(time.Millisecond).String()},
			{"warm republish", res.WarmRepublish.Round(time.Microsecond).String()},
			{"incremental republish (1 target)", res.IncrementalRepublish.Round(time.Microsecond).String()},
			{"snapshot bytes", fmt.Sprintf("%d", res.SnapshotBytes)},
			{"serving index bytes", fmt.Sprintf("%d", res.IndexBytes)},
			{"resident bytes/block", fmt.Sprintf("%.1f", res.BytesPerBlock)},
			{"sampled queries served", fmt.Sprintf("%d/%d", res.ServedOK, res.ServedTotal)},
		},
	}
	return res, rep
}
