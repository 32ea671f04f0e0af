package mapping

import (
	"testing"

	"eum/internal/stats"
)

func TestTrafficClassString(t *testing.T) {
	if ClassWeb.String() != "web" || ClassVideo.String() != "video" ||
		ClassApplication.String() != "application" {
		t.Error("class names wrong")
	}
	if TrafficClass(9).String() != "TrafficClass(9)" {
		t.Error("unknown class name wrong")
	}
}

func TestClassProberWebEqualsPing(t *testing.T) {
	cp := ClassProber{Net: testNet, Class: ClassWeb}
	a := testP.Deployments[0].Endpoint()
	b := testW.Blocks[0].Endpoint()
	if cp.PingMs(a, b) != testNet.PingMs(a, b) {
		t.Error("web class should score pure ping")
	}
}

func TestClassObjectivesDiffer(t *testing.T) {
	// The three classes must pick measurably different trade-offs across
	// the platform: video's chosen deployments deliver more throughput,
	// application's see less loss, web's see the lowest ping.
	classes := []TrafficClass{ClassWeb, ClassVideo, ClassApplication}
	scorers := map[TrafficClass]*Scorer{}
	for _, c := range classes {
		scorers[c] = NewClassScorer(testW, testP, testNet, c, 0)
	}
	type agg struct{ ping, loss, tp stats.Dataset }
	res := map[TrafficClass]*agg{}
	for _, c := range classes {
		res[c] = &agg{}
	}
	n := 0
	for _, b := range testW.Blocks {
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
			res[c].ping.Add(testNet.PingMs(de, ep), b.Demand)
			res[c].loss.Add(testNet.Loss(de, ep), b.Demand)
			res[c].tp.Add(testNet.ThroughputMbps(de, ep, 0), b.Demand)
		}
	}
	if res[ClassWeb].ping.Mean() > res[ClassVideo].ping.Mean() ||
		res[ClassWeb].ping.Mean() > res[ClassApplication].ping.Mean() {
		t.Errorf("web class should have the lowest mean ping: web %.2f video %.2f app %.2f",
			res[ClassWeb].ping.Mean(), res[ClassVideo].ping.Mean(), res[ClassApplication].ping.Mean())
	}
	if res[ClassVideo].tp.Mean() < res[ClassWeb].tp.Mean() {
		t.Errorf("video class should deliver >= web throughput: %.1f vs %.1f",
			res[ClassVideo].tp.Mean(), res[ClassWeb].tp.Mean())
	}
	if res[ClassApplication].loss.Mean() > res[ClassWeb].loss.Mean() {
		t.Errorf("application class should see <= web loss: %.5f vs %.5f",
			res[ClassApplication].loss.Mean(), res[ClassWeb].loss.Mean())
	}
}

func TestClassScorerUsableBySystemComponents(t *testing.T) {
	// A class scorer drops into the same ranking/LB machinery.
	sc := NewClassScorer(testW, testP, testNet, ClassVideo, 300)
	ep := testW.Blocks[7].Endpoint()
	rank := sc.Rank(ep)
	if len(rank) != len(testP.Deployments) {
		t.Fatalf("rank size %d", len(rank))
	}
	lb := NewLoadBalancer()
	d, err := lb.PickDeployment(testP.Deployments, Row{Head: order(rank)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != depOf(rank[0].Dep) {
		t.Error("unloaded pick should be rank head")
	}
}
