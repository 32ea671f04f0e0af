package experiments

import (
	"testing"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/stats"
	"eum/internal/world"
)

var (
	classW   = world.MustGenerate(world.Config{Seed: 5, NumBlocks: 4000})
	classNet = netmodel.NewDefault()
	classP   = cdn.MustGenerateUniverse(classW, cdn.Config{Seed: 5, NumDeployments: 300, ServersPerDeployment: 6})
)

func TestTrafficClassString(t *testing.T) {
	if classWeb.String() != "web" || classVideo.String() != "video" ||
		classApplication.String() != "application" {
		t.Error("class names wrong")
	}
	if trafficClass(9).String() != "trafficClass(9)" {
		t.Error("unknown class name wrong")
	}
}

func TestClassProberWebEqualsPing(t *testing.T) {
	cp := classProber{classNet, classWeb}
	a := classP.Deployments[0].Endpoint()
	b := classW.Blocks[0].Endpoint()
	if cp.PingMs(a, b) != classNet.PingMs(a, b) {
		t.Error("web class should score pure ping")
	}
}

func TestClassObjectivesDiffer(t *testing.T) {
	// The three classes must pick measurably different trade-offs across
	// the platform: video's chosen deployments deliver more throughput,
	// application's see less loss, web's see the lowest ping.
	classes := []trafficClass{classWeb, classVideo, classApplication}
	scorers := map[trafficClass]*mapping.Scorer{}
	for _, c := range classes {
		scorers[c] = mapping.NewScorer(classW, classP, classProber{classNet, c}, 0)
	}
	type agg struct{ ping, loss, tp stats.Dataset }
	res := map[trafficClass]*agg{}
	for _, c := range classes {
		res[c] = &agg{}
	}
	n := 0
	for _, b := range classW.Blocks {
		if n++; n > 250 {
			break
		}
		ep := b.Endpoint()
		for _, c := range classes {
			dep, _ := scorers[c].Best(ep)
			if dep == nil {
				t.Fatal("no deployment")
			}
			de := dep.Endpoint()
			res[c].ping.Add(classNet.PingMs(de, ep), b.Demand)
			res[c].loss.Add(classNet.Loss(de, ep), b.Demand)
			res[c].tp.Add(classNet.ThroughputMbps(de, ep, 0), b.Demand)
		}
	}
	if res[classWeb].ping.Mean() > res[classVideo].ping.Mean() ||
		res[classWeb].ping.Mean() > res[classApplication].ping.Mean() {
		t.Errorf("web class should have the lowest mean ping: web %.2f video %.2f app %.2f",
			res[classWeb].ping.Mean(), res[classVideo].ping.Mean(), res[classApplication].ping.Mean())
	}
	if res[classVideo].tp.Mean() < res[classWeb].tp.Mean() {
		t.Errorf("video class should deliver >= web throughput: %.1f vs %.1f",
			res[classVideo].tp.Mean(), res[classWeb].tp.Mean())
	}
	if res[classApplication].loss.Mean() > res[classWeb].loss.Mean() {
		t.Errorf("application class should see <= web loss: %.5f vs %.5f",
			res[classApplication].loss.Mean(), res[classWeb].loss.Mean())
	}
}

func TestClassScorerUsableBySystemComponents(t *testing.T) {
	// A class scorer drops into the same ranking/LB machinery.
	sc := mapping.NewScorer(classW, classP, classProber{classNet, classVideo}, 300)
	ep := classW.Blocks[7].Endpoint()
	rank := sc.Rank(ep)
	if len(rank) != len(classP.Deployments) {
		t.Fatalf("rank size %d", len(rank))
	}
	head := make([]uint16, len(rank))
	for i, r := range rank {
		head[i] = uint16(r.Dep)
	}
	lb := mapping.NewLoadBalancer()
	d, err := lb.PickDeployment(classP.Deployments, mapping.Row{Head: head}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != classP.Deployments[rank[0].Dep] {
		t.Error("unloaded pick should be rank head")
	}
}
