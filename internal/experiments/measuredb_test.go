package experiments

import (
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

var (
	measureW   = world.MustGenerate(world.Config{Seed: 71, NumBlocks: 1500})
	measureNet = netmodel.NewDefault()
	measureP   = cdn.MustGenerateUniverse(measureW, cdn.Config{Seed: 71, NumDeployments: 60})
	measureT0  = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
)

func measureTargets(n int) []netmodel.Endpoint {
	var out []netmodel.Endpoint
	for _, b := range measureW.Blocks[:n] {
		out = append(out, b.Endpoint())
	}
	return out
}

func TestSweepStoresAllPairs(t *testing.T) {
	db := newMeasureDB(measureNet)
	targets := measureTargets(20)
	n := db.sweep(measureT0, measureP, targets)
	want := len(measureP.Deployments) * len(targets)
	if n != want || len(db.obs) != want {
		t.Fatalf("sweep stored %d/%d, want %d", n, len(db.obs), want)
	}
	dep := measureP.Deployments[0]
	ms, ok := db.obs[[2]uint64{dep.ID, targets[0].ID}]
	if !ok {
		t.Fatal("lookup miss after sweep")
	}
	if ms != measureNet.PingMsAt(dep.Endpoint(), targets[0], epochOf(measureT0)) {
		t.Error("stored ping differs from probe")
	}
}

func TestPingMsServesStoredAndFallsBack(t *testing.T) {
	db := newMeasureDB(measureNet)
	targets := measureTargets(5)
	db.sweep(measureT0, measureP, targets)
	dep := measureP.Deployments[3].Endpoint()
	if got, want := db.PingMs(dep, targets[2]), measureNet.PingMsAt(dep, targets[2], epochOf(measureT0)); got != want {
		t.Errorf("stored PingMs = %v, want %v", got, want)
	}
	// Unmeasured pair: falls back to a live probe.
	other := measureW.Blocks[len(measureW.Blocks)-1].Endpoint()
	if got, want := db.PingMs(dep, other), measureNet.PingMs(dep, other); got != want {
		t.Errorf("fallback PingMs = %v, want %v", got, want)
	}
	if len(db.obs) != len(measureP.Deployments)*5 {
		t.Error("fallback probe polluted the DB")
	}
}

// TestScoringFromMeasurementDB verifies the production information flow:
// a mapping system scoring from the measurement DB makes the same
// decisions as one probing the network directly, because the sweep stored
// the same observations.
func TestScoringFromMeasurementDB(t *testing.T) {
	db := newMeasureDB(measureNet)
	// Sweep exactly the blocks we will evaluate, with clustering
	// disabled, so the DB holds congestion-aware observations for every
	// scored pair.
	eval := measureW.Blocks[:300]
	var targets []netmodel.Endpoint
	for _, b := range eval {
		targets = append(targets, b.Endpoint())
	}
	db.sweep(measureT0, measureP, targets)

	// The DB optimises the latency clients actually see in that epoch,
	// so on realized (congestion-inclusive) latency its choices must be
	// at least as good as congestion-blind direct probing.
	scorerDirect := mapping.NewScorer(measureW, measureP, measureNet, 0)
	scorerDB := mapping.NewScorer(measureW, measureP, db, 0)
	epoch := epochOf(measureT0)
	var realizedDirect, realizedDB float64
	for _, b := range eval {
		d1, _ := scorerDirect.Best(b.Endpoint())
		d2, _ := scorerDB.Best(b.Endpoint())
		if d1 == nil || d2 == nil {
			t.Fatal("no best deployment")
		}
		realizedDirect += measureNet.PingMsAt(d1.Endpoint(), b.Endpoint(), epoch)
		realizedDB += measureNet.PingMsAt(d2.Endpoint(), b.Endpoint(), epoch)
	}
	if realizedDB > realizedDirect {
		t.Errorf("DB-driven decisions realized %.1f ms mean vs %.1f for direct — measurements made things worse",
			realizedDB/float64(len(eval)), realizedDirect/float64(len(eval)))
	}
}
