package mapping

import (
	"testing"
	"time"

	"eum/internal/cdn"
)

// TestFailoverUnderMonitor drives the full liveness loop: a scheduled
// outage takes down the deployment a client maps to; the health monitor
// detects it and the control plane republishes the map; mapping fails the
// client over to the next cluster; recovery restores the original
// assignment. (Failover itself does not even need the republish — the
// data plane skips dead deployments at read time.)
func TestFailoverUnderMonitor(t *testing.T) {
	// A private platform: this test mutates liveness.
	platform := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 99, NumDeployments: 80, ServersPerDeployment: 4})
	sys := NewSystem(testW, platform, testNet, Config{Policy: EndUser, PingTargets: 400})

	blk := publicBlock(t)
	req := Request{Domain: "failover.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix}
	before, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	home := before.Deployment

	t0 := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	faults := &cdn.ScheduledFaults{}
	for _, s := range home.Servers {
		faults.Add(s.ID, t0.Add(time.Minute), t0.Add(3*time.Minute))
	}
	mon, err := cdn.NewMonitor(platform, faults, 10*time.Second, func(*cdn.Deployment) {
		sys.Rebuild()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy probe: same assignment.
	mon.Tick(t0)
	r, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deployment != home {
		t.Fatalf("assignment moved without an outage: %s -> %s", home.Name, r.Deployment.Name)
	}

	// Outage detected: client fails over.
	if changed, _ := mon.Tick(t0.Add(time.Minute)); changed != 1 {
		t.Fatalf("outage not detected: changed=%d", changed)
	}
	r, err = sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deployment == home {
		t.Fatal("client still mapped to dead deployment")
	}
	for _, srv := range r.Servers {
		if !srv.Alive() {
			t.Fatal("answer contains a dead server")
		}
	}

	// Recovery: assignment returns home.
	if changed, _ := mon.Tick(t0.Add(3 * time.Minute)); changed != 1 {
		t.Fatalf("recovery not detected: changed=%d", changed)
	}
	r, err = sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deployment != home {
		t.Errorf("assignment did not return home after recovery: %s", r.Deployment.Name)
	}
}

// TestChurnUnderRandomFaults verifies the system keeps answering while a
// random failure process churns server liveness.
func TestChurnUnderRandomFaults(t *testing.T) {
	platform := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 100, NumDeployments: 40, ServersPerDeployment: 3})
	sys := NewSystem(testW, platform, testNet, Config{Policy: EndUser, PingTargets: 200})
	mon, err := cdn.NewMonitor(platform, &cdn.RandomFaults{P: 0.2, EpochLength: time.Minute, Seed: 3},
		time.Minute, func(*cdn.Deployment) { sys.Rebuild() })
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	blk := publicBlock(t)
	for i := 0; i < 30; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		mon.Tick(now)
		r, err := sys.Map(Request{Domain: "churn.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix})
		if err != nil {
			t.Fatalf("minute %d: %v", i, err)
		}
		for _, srv := range r.Servers {
			if !srv.Alive() {
				t.Fatalf("minute %d: dead server answered", i)
			}
		}
	}
	if mon.Probes() == 0 {
		t.Fatal("monitor never probed")
	}
}
