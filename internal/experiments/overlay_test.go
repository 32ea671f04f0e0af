package experiments

import (
	"testing"

	"eum/internal/cdn"
	"eum/internal/netmodel"
	"eum/internal/world"
)

var (
	overlayW     = world.MustGenerate(world.Config{Seed: 97, NumBlocks: 1500})
	overlayModel = netmodel.NewDefault()
	overlayP     = cdn.MustGenerateUniverse(overlayW, cdn.Config{Seed: 97, NumDeployments: 250})
)

// originPairs pairs the first n deployments with far-away "origin"
// endpoints (content providers' data centres).
func originPairs(n int) [][2]netmodel.Endpoint {
	var out [][2]netmodel.Endpoint
	for i := 0; i < n && i < len(overlayP.Deployments); i++ {
		server := overlayP.Deployments[i].Endpoint()
		// Use a distant client block's location as the origin site.
		origin := overlayW.Blocks[(i*37+500)%len(overlayW.Blocks)].Endpoint()
		origin.Access = netmodel.AccessBackbone
		out = append(out, [2]netmodel.Endpoint{server, origin})
	}
	return out
}

func TestBestPathNeverWorseThanDirect(t *testing.T) {
	o := newOverlay(overlayP, overlayModel, 0)
	for _, pr := range originPairs(60) {
		p := o.bestPath(pr[0], pr[1], 3)
		if p.LatencyMs > p.DirectMs {
			t.Fatalf("overlay path %.1f worse than direct %.1f", p.LatencyMs, p.DirectMs)
		}
		if p.Via == nil && p.LatencyMs != p.DirectMs {
			t.Fatal("direct path with mismatched latency")
		}
		if p.improvement() < 0 || p.improvement() >= 1 {
			t.Fatalf("improvement = %v", p.improvement())
		}
	}
}

func TestOverlayFindsRelays(t *testing.T) {
	// Over many long paths with congestion variation, some relay paths
	// must win — the overlay's reason to exist.
	o := newOverlay(overlayP, overlayModel, 0)
	s := o.evaluate(originPairs(120), 5)
	if s.RelayedFraction <= 0 {
		t.Fatal("no pair benefited from a relay")
	}
	if s.MeanImprovementWhenRelayed <= 0 {
		t.Fatal("relayed pairs show no improvement")
	}
	if s.MeanImprovementWhenRelayed > 0.9 {
		t.Fatalf("implausible relay improvement %.2f", s.MeanImprovementWhenRelayed)
	}
}

func TestCorridorPruningClose(t *testing.T) {
	// Pruned search must stay close to the exhaustive optimum.
	full := newOverlay(overlayP, overlayModel, 0)
	pruned := newOverlay(overlayP, overlayModel, 25)
	var worse int
	pairs := originPairs(60)
	for _, pr := range pairs {
		pf := full.bestPath(pr[0], pr[1], 7)
		pp := pruned.bestPath(pr[0], pr[1], 7)
		if pp.LatencyMs > pf.LatencyMs*1.25+2 {
			worse++
		}
	}
	if worse > len(pairs)/5 {
		t.Errorf("pruned search much worse on %d/%d pairs", worse, len(pairs))
	}
}

func TestDeadRelaysSkipped(t *testing.T) {
	o := newOverlay(overlayP, overlayModel, 0)
	pairs := originPairs(40)
	// Find a pair that uses a relay, kill the relay, re-route.
	for _, pr := range pairs {
		p := o.bestPath(pr[0], pr[1], 9)
		if p.Via == nil {
			continue
		}
		victim := p.Via
		for _, s := range victim.Servers {
			s.SetAlive(false)
		}
		p2 := o.bestPath(pr[0], pr[1], 9)
		for _, s := range victim.Servers {
			s.SetAlive(true)
		}
		if p2.Via == victim {
			t.Fatal("dead relay still used")
		}
		if p2.LatencyMs > p2.DirectMs {
			t.Fatal("re-route worse than direct")
		}
		return
	}
	t.Skip("no relayed pair found to test failover")
}

func TestOverlayEvaluateEmpty(t *testing.T) {
	o := newOverlay(overlayP, overlayModel, 0)
	if s := o.evaluate(nil, 0); s.RelayedFraction != 0 || s.MeanImprovement != 0 {
		t.Errorf("empty evaluate = %+v", s)
	}
}
