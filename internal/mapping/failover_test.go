package mapping

import (
	"testing"

	"eum/internal/cdn"
)

// setAlive flips every server of a deployment up or down.
func setAlive(d *cdn.Deployment, alive bool) {
	for _, s := range d.Servers {
		s.SetAlive(alive)
	}
}

// TestFailoverOnOutage drives the liveness loop: the deployment a client
// maps to goes down and the control plane republishes the map; mapping
// fails the client over to the next cluster; recovery restores the
// original assignment. (Failover itself does not even need the republish —
// the data plane skips dead deployments at read time.)
func TestFailoverOnOutage(t *testing.T) {
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

	// A republish with everything alive: same assignment.
	sys.Rebuild()
	r, err := sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deployment != home {
		t.Fatalf("assignment moved without an outage: %s -> %s", home.Name, r.Deployment.Name)
	}

	// Outage: client fails over.
	setAlive(home, false)
	sys.Rebuild()
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
	setAlive(home, true)
	sys.Rebuild()
	r, err = sys.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deployment != home {
		t.Errorf("assignment did not return home after recovery: %s", r.Deployment.Name)
	}
}

// failedIn reports whether a server is down in a failure epoch: each
// server fails independently in about a fraction p of epochs, by a seeded
// splitmix64 hash of its ID and the epoch, so a run is reproducible.
func failedIn(id, epoch, seed uint64, p float64) bool {
	return float64(splitmix(id^splitmix(epoch^seed))>>11)/(1<<53) < p
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestChurnUnderRandomFaults verifies the system keeps answering while a
// random failure process churns server liveness.
func TestChurnUnderRandomFaults(t *testing.T) {
	platform := cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 100, NumDeployments: 40, ServersPerDeployment: 3})
	sys := NewSystem(testW, platform, testNet, Config{Policy: EndUser, PingTargets: 200})
	blk := publicBlock(t)
	flips := 0
	for minute := uint64(0); minute < 30; minute++ {
		changed := false
		for _, d := range platform.Deployments {
			for _, s := range d.Servers {
				if alive := !failedIn(s.ID, minute, 3, 0.2); alive != s.Alive() {
					s.SetAlive(alive)
					changed = true
					flips++
				}
			}
		}
		if changed {
			sys.Rebuild()
		}
		r, err := sys.Map(Request{Domain: "churn.net", LDNS: blk.LDNS.Addr, ClientSubnet: blk.Prefix})
		if err != nil {
			t.Fatalf("minute %d: %v", minute, err)
		}
		for _, srv := range r.Servers {
			if !srv.Alive() {
				t.Fatalf("minute %d: dead server answered", minute)
			}
		}
	}
	if flips == 0 {
		t.Fatal("no server ever changed liveness")
	}
}
