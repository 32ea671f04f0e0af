package main

import (
	"time"

	"eum/bench/internal/gen"
	"eum/bench/internal/layers"
)

// workload is one traffic mix over one universe. The three differ only in
// these fields; every phase of the benchmark is shared code.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists (README.md and
	// BENCHMARK.json carry the same text).
	why string
	// blocks, deployments and partitionMiles size the universe, in the
	// harness and (through its config file) in the server.
	blocks, deployments int
	partitionMiles      float64
	mix                 gen.Mix
	// churnEvery, when set, is how often the publisher marks churnTargets
	// ping targets dirty and publishes, so the replica installs deltas
	// while it serves. Zero leaves the map steady: one warm republish
	// every republishEvery, the product's default cadence.
	churnEvery   time.Duration
	churnTargets int
}

const republishEvery = 10 * time.Second

var hotMix = gen.Mix{Domains: 50, ZipfS: 1.0, ECSShare: 0.8, ByDemand: true}

var workloads = []workload{
	{
		name: "hot_zipf",
		why: "popularity-driven traffic (Fig 24): few distinct keys on a small map, so dnsserver, dnsmsg " +
			"and the kernel do nearly all the work and authority and mapping almost none",
		blocks: 8000, deployments: 600,
		mix: hotMix,
	},
	{
		name: "cold_wide",
		why: "nearly every query a distinct key on the large partitioned map, a quarter of ECS truncated to " +
			"/20: cache misses and index lookups at their worst, build, ship and memory at their heaviest",
		blocks: 50000, deployments: 600, partitionMiles: 50,
		mix: gen.Mix{Domains: 2000, ECSShare: 0.9, TruncShare: 0.25},
	},
	{
		name: "churn_delta",
		why: "hot_zipf's world and mix while the replica installs a delta about once a second: " +
			"what the read path pays for installs, cache flushes and GC",
		blocks: 8000, deployments: 600,
		mix:        hotMix,
		churnEvery: 250 * time.Millisecond, churnTargets: 8,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) spec(seed int64) layers.Spec {
	return layers.Spec{Seed: seed, Blocks: w.blocks, Deployments: w.deployments, PartitionMiles: w.partitionMiles}
}
