package experiments

import (
	"math"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/par"
	"eum/internal/world"
)

// simOutputs bundles everything the worker-count invariance test compares.
type simOutputs struct {
	rollout *rolloutResult
	rates   []QueryRatePoint
	pop     []PopularityBucket
	broad   []ECSCellResult
}

func runSims(t *testing.T, workers int) *simOutputs {
	t.Helper()
	par.SetWorkers(workers)
	defer par.SetWorkers(0)

	w := world.MustGenerate(world.Config{Seed: 9, NumBlocks: 1200})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 9, NumDeployments: 120, ServersPerDeployment: 4})

	rcfg := defaultRolloutConfig()
	rcfg.Start = time.Date(2014, 3, 20, 0, 0, 0, 0, time.UTC)
	rcfg.End = time.Date(2014, 4, 20, 0, 0, 0, 0, time.UTC)
	rcfg.DailyMeasurements = 40
	rollout, err := runRollout(w, p, simNet, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	qcfg := defaultQueryRateConfig()
	qcfg.Days = 10
	qcfg.RolloutStartDay, qcfg.RolloutEndDay = 3, 6
	qcfg.EventsPerWindow = 20000
	rates, err := runQueryRate(w, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := runPopularity(w, qcfg)
	if err != nil {
		t.Fatal(err)
	}

	broad, err := runBroadRollout(w, p, simNet, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &simOutputs{rollout: rollout, rates: rates, pop: pop, broad: broad}
}

func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSimulationWorkerCountInvariant verifies the engine's determinism
// contract end to end: the roll-out timeline, query-rate timeline,
// popularity buckets and broad-adoption stages must be bit-identical at
// one worker and eight.
func TestSimulationWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulation twice")
	}
	s1 := runSims(t, 1)
	s8 := runSims(t, 8)

	// Roll-out: compare each metric's daily timeline. Daily means are
	// weighted float sums in observation order, so equality also proves the
	// merged observation order matches the serial one.
	groups := func(s *simOutputs) []*groupSeries {
		r := s.rollout
		return []*groupSeries{&r.MappingDistance, &r.RTT, &r.TTFB, &r.Download}
	}
	g1, g8 := groups(s1), groups(s8)
	for gi := range g1 {
		for _, high := range []bool{true, false} {
			d1 := g1[gi].series(high).DailyMeans()
			d8 := g8[gi].series(high).DailyMeans()
			if len(d1) != len(d8) {
				t.Fatalf("metric %d high=%v: %d vs %d daily points", gi, high, len(d1), len(d8))
			}
			for i := range d1 {
				if !d1[i].Start.Equal(d8[i].Start) || !sameF64(d1[i].Mean, d8[i].Mean) ||
					!sameF64(d1[i].Weight, d8[i].Weight) {
					t.Fatalf("metric %d high=%v day %d differs: %+v vs %+v", gi, high, i, d1[i], d8[i])
				}
			}
		}
	}

	if len(s1.rates) != len(s8.rates) {
		t.Fatalf("query-rate points: %d vs %d", len(s1.rates), len(s8.rates))
	}
	for i := range s1.rates {
		a, b := s1.rates[i], s8.rates[i]
		if a.Day != b.Day || !sameF64(a.ClientQPS, b.ClientQPS) ||
			!sameF64(a.AuthQPS, b.AuthQPS) || !sameF64(a.PublicAuthQPS, b.PublicAuthQPS) {
			t.Fatalf("query-rate day %d differs: %+v vs %+v", i, a, b)
		}
	}

	if len(s1.pop) != len(s8.pop) {
		t.Fatalf("popularity buckets: %d vs %d", len(s1.pop), len(s8.pop))
	}
	for i := range s1.pop {
		a, b := s1.pop[i], s8.pop[i]
		if a.Pairs != b.Pairs || !sameF64(a.FactorIncrease, b.FactorIncrease) ||
			!sameF64(a.PreQueryShare, b.PreQueryShare) {
			t.Fatalf("popularity bucket %d differs: %+v vs %+v", i, a, b)
		}
	}

	if len(s1.broad) != len(s8.broad) {
		t.Fatalf("broad stages: %d vs %d", len(s1.broad), len(s8.broad))
	}
	for i := range s1.broad {
		a, b := s1.broad[i], s8.broad[i]
		if a.Name != b.Name || !sameF64(a.MeanRTTMs, b.MeanRTTMs) ||
			!sameF64(a.P95RTTMs, b.P95RTTMs) || !sameF64(a.MeanDistance, b.MeanDistance) ||
			!sameF64(a.AuthQueryMultiplier, b.AuthQueryMultiplier) {
			t.Fatalf("broad stage %d differs: %+v vs %+v", i, a, b)
		}
	}
}
