package cdn

import (
	"testing"
	"time"

	"eum/internal/world"
)

var healthW = world.MustGenerate(world.Config{Seed: 81, NumBlocks: 800})

var h0 = time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)

func healthPlatform(t *testing.T) *Platform {
	t.Helper()
	return MustGenerateUniverse(healthW, Config{Seed: 81, NumDeployments: 8, ServersPerDeployment: 4})
}

func TestNewMonitorValidation(t *testing.T) {
	p := healthPlatform(t)
	if _, err := NewMonitor(nil, &ScheduledFaults{}, 0, nil); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := NewMonitor(p, nil, 0, nil); err == nil {
		t.Error("nil faults accepted")
	}
}

func TestScheduledFaultLifecycle(t *testing.T) {
	p := healthPlatform(t)
	victim := p.Deployments[0].Servers[0]
	faults := &ScheduledFaults{}
	faults.Add(victim.ID, h0.Add(time.Minute), h0.Add(2*time.Minute))

	var notified []*Deployment
	mon, err := NewMonitor(p, faults, 10*time.Second, func(d *Deployment) {
		notified = append(notified, d)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Before the outage: nothing changes.
	if changed, probed := mon.Tick(h0); !probed || changed != 0 {
		t.Fatalf("t0: changed=%d probed=%v", changed, probed)
	}
	if !victim.Alive() {
		t.Fatal("server dead before its outage")
	}

	// During the outage: exactly one deployment changes, listener fires.
	if changed, _ := mon.Tick(h0.Add(time.Minute)); changed != 1 {
		t.Fatalf("outage start: changed=%d", changed)
	}
	if victim.Alive() {
		t.Fatal("server alive during outage")
	}
	if len(notified) != 1 || notified[0] != p.Deployments[0] {
		t.Fatalf("notifications = %v", notified)
	}

	// Still down, no new change events.
	if changed, _ := mon.Tick(h0.Add(90 * time.Second)); changed != 0 {
		t.Fatalf("mid-outage: changed=%d", changed)
	}

	// Recovery.
	if changed, _ := mon.Tick(h0.Add(2 * time.Minute)); changed != 1 {
		t.Fatalf("recovery: changed=%d", changed)
	}
	if !victim.Alive() {
		t.Fatal("server not revived after outage")
	}
	if len(notified) != 2 {
		t.Fatalf("notifications = %d, want 2", len(notified))
	}
}

func TestMonitorInterval(t *testing.T) {
	p := healthPlatform(t)
	mon, _ := NewMonitor(p, &ScheduledFaults{}, time.Minute, nil)
	if _, probed := mon.Tick(h0); !probed {
		t.Fatal("first tick must probe")
	}
	before := mon.Probes()
	if _, probed := mon.Tick(h0.Add(30 * time.Second)); probed {
		t.Error("early tick probed")
	}
	if mon.Probes() != before {
		t.Error("early tick issued probes")
	}
	if _, probed := mon.Tick(h0.Add(time.Minute)); !probed {
		t.Error("on-time tick did not probe")
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	f := &RandomFaults{P: 0.3, EpochLength: time.Hour, Seed: 5}
	p := healthPlatform(t)
	s := p.Deployments[0].Servers[0]
	a := f.Failed(s, h0)
	b := f.Failed(s, h0.Add(time.Minute)) // same epoch
	if a != b {
		t.Error("same epoch gave different outcomes")
	}
	// Over many epochs, failure frequency approximates P.
	fails := 0
	n := 2000
	for i := 0; i < n; i++ {
		if f.Failed(s, h0.Add(time.Duration(i)*time.Hour)) {
			fails++
		}
	}
	got := float64(fails) / float64(n)
	if got < 0.25 || got > 0.35 {
		t.Errorf("failure rate = %.3f, want ~0.3", got)
	}
}

func TestRandomFaultsIndependentAcrossServers(t *testing.T) {
	f := &RandomFaults{P: 0.5, Seed: 9}
	p := healthPlatform(t)
	outcomes := map[bool]int{}
	for _, d := range p.Deployments {
		for _, s := range d.Servers {
			outcomes[f.Failed(s, h0)]++
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("outcomes not mixed: %v", outcomes)
	}
}

func TestZeroProbabilityNeverFails(t *testing.T) {
	f := &RandomFaults{P: 0}
	p := healthPlatform(t)
	for i := 0; i < 50; i++ {
		if f.Failed(p.Deployments[0].Servers[0], h0.Add(time.Duration(i)*time.Hour)) {
			t.Fatal("P=0 failed a server")
		}
	}
}
