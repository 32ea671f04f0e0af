package cdn

import (
	"strings"
	"sync"
	"testing"

	"eum/internal/world"
)

var testW = world.MustGenerate(world.Config{Seed: 3, NumBlocks: 3000})

func TestGenerateUniverse(t *testing.T) {
	p := MustGenerateUniverse(testW, Config{Seed: 1, NumDeployments: 500, ServersPerDeployment: 8})
	if len(p.Deployments) != 500 {
		t.Fatalf("deployments = %d, want 500", len(p.Deployments))
	}
	if p.NumServers() < 500 {
		t.Errorf("servers = %d, want >= 500", p.NumServers())
	}
	if got := len(p.Countries()); got != len(world.Countries) {
		t.Errorf("countries with deployments = %d, want %d", got, len(world.Countries))
	}
	for _, d := range p.Deployments {
		if !d.Loc.IsValid() {
			t.Fatalf("deployment %s invalid location", d.Name)
		}
		if len(d.Servers) == 0 {
			t.Fatalf("deployment %s has no servers", d.Name)
		}
		if !d.Alive() {
			t.Fatalf("deployment %s not alive at creation", d.Name)
		}
	}
}

func TestGenerateUniverseRejectsBadConfig(t *testing.T) {
	if _, err := GenerateUniverse(testW, Config{Seed: 1, NumDeployments: 0}); err == nil {
		t.Error("zero deployments accepted")
	}
	// A mean past MaxServers/2 could draw a deployment the rings cannot
	// address; the largest mean allowed draws at most MaxServers.
	if _, err := GenerateUniverse(testW, Config{Seed: 1, NumDeployments: 1, ServersPerDeployment: MaxServers/2 + 1}); err == nil ||
		!strings.Contains(err.Error(), "ServersPerDeployment") {
		t.Errorf("a mean of %d servers: %v", MaxServers/2+1, err)
	}
	p, err := GenerateUniverse(testW, Config{Seed: 1, NumDeployments: 20, ServersPerDeployment: MaxServers / 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range p.Deployments {
		if len(d.Servers) > MaxServers {
			t.Fatalf("%s has %d servers", d.Name, len(d.Servers))
		}
	}
}

func TestGenerateUniverseDeterministic(t *testing.T) {
	p1 := MustGenerateUniverse(testW, Config{Seed: 9, NumDeployments: 100})
	p2 := MustGenerateUniverse(testW, Config{Seed: 9, NumDeployments: 100})
	for i := range p1.Deployments {
		if p1.Deployments[i].Loc != p2.Deployments[i].Loc ||
			len(p1.Deployments[i].Servers) != len(p2.Deployments[i].Servers) {
			t.Fatalf("deployment %d differs between identical seeds", i)
		}
	}
}

func TestSubset(t *testing.T) {
	p := MustGenerateUniverse(testW, Config{Seed: 2, NumDeployments: 300})
	s := p.Subset(40, 7)
	if len(s.Deployments) != 40 {
		t.Fatalf("subset size = %d", len(s.Deployments))
	}
	// Same seed -> same subset; different seed -> different ordering.
	s2 := p.Subset(40, 7)
	for i := range s.Deployments {
		if s.Deployments[i] != s2.Deployments[i] {
			t.Fatal("subset not deterministic")
		}
	}
	s3 := p.Subset(40, 8)
	diff := false
	for i := range s.Deployments {
		if s.Deployments[i] != s3.Deployments[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different subset seeds gave identical ordering")
	}
	// Oversized request clamps.
	if got := p.Subset(9999, 1); len(got.Deployments) != 300 {
		t.Errorf("oversized subset = %d", len(got.Deployments))
	}
}

func TestSubsetPrefixProperty(t *testing.T) {
	// Fig 25 methodology: growing N must extend the same random ordering,
	// so Subset(20, s) is a prefix of Subset(40, s).
	p := MustGenerateUniverse(testW, Config{Seed: 2, NumDeployments: 200})
	small := p.Subset(20, 3)
	large := p.Subset(40, 3)
	for i := range small.Deployments {
		if small.Deployments[i] != large.Deployments[i] {
			t.Fatalf("subset(20) not a prefix of subset(40) at %d", i)
		}
	}
}

func TestServerLoadTracking(t *testing.T) {
	s := &Server{cap: 10}
	s.SetAlive(true)
	if !s.AddLoad(4) {
		t.Error("within-capacity AddLoad reported overload")
	}
	if s.AddLoad(7) {
		t.Error("over-capacity AddLoad reported ok")
	}
	if got := s.Load(); got != 11 {
		t.Errorf("load = %v", got)
	}
	if u := s.Utilisation(); u != 1.1 {
		t.Errorf("utilisation = %v", u)
	}
	s.AddLoad(-100)
	if s.Load() != 0 {
		t.Error("negative load not clamped")
	}
	s.ResetLoad()
	if s.Load() != 0 {
		t.Error("ResetLoad failed")
	}
}

func TestServerLoadConcurrent(t *testing.T) {
	s := &Server{cap: 1e9}
	s.SetAlive(true)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.AddLoad(1)
			}
		}()
	}
	wg.Wait()
	if got := s.Load(); got != 8000 {
		t.Errorf("concurrent load = %v, want 8000", got)
	}
}

func TestLivenessAndCapacity(t *testing.T) {
	p := MustGenerateUniverse(testW, Config{Seed: 5, NumDeployments: 10, ServersPerDeployment: 4})
	d := p.Deployments[0]
	before := d.Capacity()
	if before <= 0 {
		t.Fatal("no capacity")
	}
	for _, s := range d.Servers {
		s.SetAlive(false)
	}
	if d.Alive() {
		t.Error("deployment with all servers dead reports alive")
	}
	if d.Capacity() != 0 {
		t.Error("dead deployment has capacity")
	}
	d.Servers[0].SetAlive(true)
	if !d.Alive() || len(d.LiveServers()) != 1 {
		t.Error("single revived server not reflected")
	}
}

func TestUtilisationZeroCapacity(t *testing.T) {
	s := &Server{cap: 0}
	s.SetAlive(true)
	s.AddLoad(1)
	if u := s.Utilisation(); !(u > 1e18) {
		t.Errorf("zero-capacity utilisation = %v, want +Inf", u)
	}
}

func TestPlatformResetLoad(t *testing.T) {
	p := MustGenerateUniverse(testW, Config{Seed: 6, NumDeployments: 5})
	for _, d := range p.Deployments {
		for _, s := range d.Servers {
			s.AddLoad(3)
		}
	}
	p.ResetLoad()
	for _, d := range p.Deployments {
		if d.Load() != 0 {
			t.Fatalf("deployment %s load %v after reset", d.Name, d.Load())
		}
	}
}

func TestDeploymentDistribution(t *testing.T) {
	// Big-demand countries get more deployments.
	p := MustGenerateUniverse(testW, Config{Seed: 4, NumDeployments: 1000})
	counts := map[string]int{}
	for _, d := range p.Deployments {
		counts[d.Country]++
	}
	if counts["US"] <= counts["SG"] {
		t.Errorf("US (%d) should out-deploy SG (%d)", counts["US"], counts["SG"])
	}
	if counts["US"] < 100 {
		t.Errorf("US deployments = %d, want roughly proportional to ~30%% demand", counts["US"])
	}
}

func TestEndpointIDsDistinctFromWorld(t *testing.T) {
	p := MustGenerateUniverse(testW, Config{Seed: 4, NumDeployments: 50})
	worldIDs := map[uint64]bool{}
	for _, b := range testW.Blocks {
		worldIDs[b.ID] = true
	}
	for _, l := range testW.LDNSes {
		worldIDs[l.ID] = true
	}
	for _, d := range p.Deployments {
		if worldIDs[d.ID] {
			t.Fatalf("deployment ID %d collides with a world entity", d.ID)
		}
	}
}
