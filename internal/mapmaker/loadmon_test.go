package mapmaker

import (
	"slices"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/mapping"
)

var t0 = time.Unix(1700000000, 0)

// fastCfg makes the EWMA effectively pass-through for observations a
// second apart, so threshold tests control the smoothed value directly.
func fastCfg() LoadSignalConfig {
	return LoadSignalConfig{
		EnterUtil:    0.8,
		Hysteresis:   0.2,
		EWMA:         time.Millisecond,
		MaxSignalAge: time.Hour,
		MinRepublish: 10 * time.Second,
	}
}

func testDep(id uint64) *cdn.Deployment {
	return &cdn.Deployment{ID: id, Name: "T-0001"}
}

func TestLoadMonitorHysteresisBand(t *testing.T) {
	lm := NewLoadMonitor(nil, fastCfg())
	d := testDep(1)

	lm.Observe(d, 0.5, t0)
	if got := lm.Crossings(); got != 0 {
		t.Fatalf("crossings after idle observe = %d", got)
	}
	// Enter overload at >= 0.8.
	lm.Observe(d, 0.9, t0.Add(1*time.Second))
	if lm.Crossings() != 1 || lm.Overloaded() != 1 {
		t.Fatalf("enter crossing not detected: crossings=%d overloaded=%d",
			lm.Crossings(), lm.Overloaded())
	}
	// Inside the band (exit threshold 0.6): still overloaded, no flip.
	lm.Observe(d, 0.7, t0.Add(2*time.Second))
	if lm.Crossings() != 1 || lm.Overloaded() != 1 {
		t.Fatalf("in-band wobble flipped state: crossings=%d overloaded=%d",
			lm.Crossings(), lm.Overloaded())
	}
	// Dipping to the entry threshold's underside but above exit: still in.
	lm.Observe(d, 0.79, t0.Add(3*time.Second))
	if lm.Crossings() != 1 {
		t.Fatal("sub-enter wobble counted as crossing")
	}
	// Below exit threshold: recovery flip.
	lm.Observe(d, 0.5, t0.Add(4*time.Second))
	if lm.Crossings() != 2 || lm.Overloaded() != 0 {
		t.Fatalf("exit crossing not detected: crossings=%d overloaded=%d",
			lm.Crossings(), lm.Overloaded())
	}
	if got := lm.Flips(d.ID); got != 2 {
		t.Errorf("flips = %d, want 2", got)
	}
}

// TestLoadMonitorSingleThresholdWouldFlap documents why the band exists:
// a gauge wobbling around 0.8 flips state every observation without
// hysteresis semantics, but with the band it flips exactly once.
func TestLoadMonitorSingleThresholdWouldFlap(t *testing.T) {
	lm := NewLoadMonitor(nil, fastCfg())
	d := testDep(2)
	wobble := []float64{0.82, 0.78, 0.83, 0.77, 0.81, 0.79, 0.84, 0.76}
	for i, u := range wobble {
		lm.Observe(d, u, t0.Add(time.Duration(i)*time.Second))
	}
	if got := lm.Crossings(); got != 1 {
		t.Errorf("wobble around the enter threshold crossed %d times, want 1 (hysteresis)", got)
	}
	if lm.Overloaded() != 1 {
		t.Error("deployment should still be held overloaded inside the band")
	}
}

func TestLoadMonitorEWMASmoothing(t *testing.T) {
	lm := NewLoadMonitor(nil, LoadSignalConfig{
		EnterUtil: 0.8, Hysteresis: 0.2,
		EWMA: 30 * time.Second, MaxSignalAge: time.Hour, MinRepublish: time.Second,
	})
	d := testDep(3)
	lm.Observe(d, 0.1, t0)
	// One instantaneous spike to 10× capacity must not trip the threshold
	// through a 30s EWMA observed 1s later...
	lm.Observe(d, 10, t0.Add(1*time.Second))
	if lm.Overloaded() != 0 {
		u, _ := lm.Smoothed(d.ID)
		t.Fatalf("one spike tripped the smoothed threshold (ewma=%v)", u)
	}
	// ...but sustained overload walks the EWMA across it.
	for i := 2; i < 120; i++ {
		lm.Observe(d, 1.5, t0.Add(time.Duration(i)*time.Second))
	}
	if lm.Overloaded() != 1 {
		u, _ := lm.Smoothed(d.ID)
		t.Fatalf("sustained overload never tripped the threshold (ewma=%v)", u)
	}
}

func TestLoadMonitorDampingInterval(t *testing.T) {
	mm, p := newMapMaker(t, mapping.EndUser)
	lm := NewLoadMonitor(mm, fastCfg()) // MinRepublish 10s
	d := p.Deployments[0]

	lm.Observe(d, 0.9, t0) // enter: immediate notify
	if lm.Notifies() != 1 {
		t.Fatalf("notifies = %d, want 1", lm.Notifies())
	}
	lm.Observe(d, 0.1, t0.Add(2*time.Second)) // exit inside damping window
	if lm.Notifies() != 1 {
		t.Fatalf("notify sent inside damping window (notifies=%d)", lm.Notifies())
	}
	if lm.Damped() == 0 {
		t.Fatal("damped crossing not counted")
	}
	// Window still open at +9s: flush must wait.
	lm.Tick(&cdn.Platform{}, t0.Add(9*time.Second))
	if lm.Notifies() != 1 {
		t.Fatal("pending notify flushed before the window elapsed")
	}
	// Window elapsed: pending notification goes out.
	lm.Tick(&cdn.Platform{}, t0.Add(11*time.Second))
	if lm.Notifies() != 2 {
		t.Fatalf("pending notify not flushed after window (notifies=%d)", lm.Notifies())
	}
	if lm.WindowViolations() != 0 {
		t.Fatalf("window violations = %d", lm.WindowViolations())
	}
}

func TestLoadMonitorStaleSignal(t *testing.T) {
	lm := NewLoadMonitor(nil, LoadSignalConfig{MaxSignalAge: time.Minute})
	d := testDep(4)

	// Never observed: stale.
	if _, ok := lm.Utilization(d); ok {
		t.Fatal("unobserved deployment reported a utilization")
	}
	lm.Observe(d, 0.6, t0)
	now := t0.Add(time.Second)
	lm.SetClock(func() time.Time { return now })
	if u, ok := lm.Utilization(d); !ok || u != 0.6 {
		t.Fatalf("fresh signal = %v,%v, want 0.6,true", u, ok)
	}
	// Feed dies: the same reading ages out and must be withheld.
	now = t0.Add(10 * time.Minute)
	if _, ok := lm.Utilization(d); ok {
		t.Fatal("stale signal was served")
	}
	if lm.StaleSignals() < 2 {
		t.Errorf("stale tripwire = %d, want >= 2", lm.StaleSignals())
	}
}

// TestReasonLoadFlowsThroughFeed: a threshold crossing republishes a map
// whose candidate order reflects the smoothed load signal, and recovery
// republishes the proximity order — the full closed loop at unit scale.
func TestReasonLoadFlowsThroughFeed(t *testing.T) {
	p := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 7, NumDeployments: 40, ServersPerDeployment: 4})
	sys := mapping.NewSystem(testW, p, testNet,
		mapping.Config{Policy: mapping.EndUser, PingTargets: 100, BalanceFactor: 4})
	mm := New(sys, Config{})
	lm := NewLoadMonitor(mm, fastCfg())
	lm.SetClock(func() time.Time { return t0.Add(time.Hour) }) // always fresh
	sys.SetUtilizationSource(lm)

	blk := testW.Blocks[0].Endpoint().ID
	sn0 := mm.Publish()
	hot := p.Deployments[sn0.RankOf(blk, true).Head[0].Dep]

	// Drive the hot deployment into overload through the monitor.
	for i := 0; i < 5; i++ {
		lm.Observe(hot, 2.0, t0.Add(time.Duration(i)*time.Second))
	}
	if lm.Notifies() == 0 {
		t.Fatal("overload crossing sent no notification")
	}
	sn1 := mm.Sync()
	if sn1.Epoch() == sn0.Epoch() {
		t.Fatal("ReasonLoad did not republish")
	}
	r1 := sn1.RankOf(blk, true).Head
	if p.Deployments[r1[0].Dep] == hot {
		// Spill is geometry-dependent; at β=4 and util 2 (factor 17) the
		// nearest alternative should win for the probe block. If not, the
		// table must at least have changed somewhere.
		changed := false
		for j := range r1 {
			if r1[j].Dep != sn0.RankOf(blk, true).Head[j].Dep {
				changed = true
				break
			}
		}
		if !changed {
			t.Fatal("load crossing republished an unchanged table")
		}
	}

	// Recovery: exit crossing follows after the damping window; the next
	// build reconverges to the proximity order.
	for i := 0; i < 5; i++ {
		lm.Observe(hot, 0.0, t0.Add(time.Duration(20+i)*time.Second))
	}
	lm.Tick(&cdn.Platform{}, t0.Add(40*time.Second))
	sn2 := mm.Sync()
	r0, r2 := sn0.RankOf(blk, true), sn2.RankOf(blk, true)
	if !slices.Equal(r0.Head, r2.Head) || !slices.Equal(r0.Tail, r2.Tail) {
		t.Fatal("ranking did not reconverge after recovery")
	}
}
