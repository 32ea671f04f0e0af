package cdn

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"eum/internal/telemetry"
)

func twoServerDeployment(cap1, cap2 float64) *Deployment {
	d := &Deployment{ID: 1, Name: "XX-0001"}
	for i, c := range []float64{cap1, cap2} {
		s := &Server{ID: uint64(10 + i), Deployment: d, cap: c}
		s.SetAlive(true)
		d.Servers = append(d.Servers, s)
	}
	return d
}

func TestCapacityFactorBrownout(t *testing.T) {
	d := twoServerDeployment(4, 4)
	if got := d.CapacityFactor(); got != 1 {
		t.Fatalf("zero-value capacity factor = %v, want 1", got)
	}
	if got := d.Capacity(); got != 8 {
		t.Fatalf("healthy capacity = %v, want 8", got)
	}

	d.SetCapacityFactor(0.25)
	if got := d.CapacityFactor(); got != 0.25 {
		t.Errorf("capacity factor = %v, want 0.25", got)
	}
	if got := d.Capacity(); got != 2 {
		t.Errorf("browned-out capacity = %v, want 2", got)
	}

	// Brownout composes with liveness: a dead server leaves the factor
	// applied to the remaining live capacity.
	d.Servers[0].SetAlive(false)
	if got := d.Capacity(); got != 1 {
		t.Errorf("browned-out capacity with one dead server = %v, want 1", got)
	}

	// Out-of-range factors clamp.
	d.SetCapacityFactor(-3)
	if got := d.CapacityFactor(); got != 0 {
		t.Errorf("negative factor clamped to %v, want 0", got)
	}
	d.SetCapacityFactor(7)
	if got := d.CapacityFactor(); got != 1 {
		t.Errorf("over-unity factor clamped to %v, want 1", got)
	}
}

func TestDeploymentUtilisation(t *testing.T) {
	d := twoServerDeployment(5, 5)
	if got := d.Utilisation(); got != 0 {
		t.Fatalf("idle utilisation = %v, want 0", got)
	}
	d.Servers[0].AddLoad(5)
	if got := d.Utilisation(); got != 0.5 {
		t.Errorf("utilisation = %v, want 0.5", got)
	}
	// Halving capacity doubles utilisation at the same load.
	d.SetCapacityFactor(0.5)
	if got := d.Utilisation(); got != 1 {
		t.Errorf("browned-out utilisation = %v, want 1", got)
	}
	// Zero capacity: idle reads 0, loaded reads +Inf.
	d.SetCapacityFactor(0)
	if got := d.Utilisation(); !math.IsInf(got, 1) {
		t.Errorf("loaded zero-capacity utilisation = %v, want +Inf", got)
	}
	d.ResetLoad()
	if got := d.Utilisation(); got != 0 {
		t.Errorf("idle zero-capacity utilisation = %v, want 0", got)
	}
}

func TestAddLoadNegativeDeltaClamp(t *testing.T) {
	cases := []struct {
		name   string
		deltas []float64
		want   float64
	}{
		{"underflow clamps", []float64{3, -10}, 0},
		{"exact zero", []float64{4, -4}, 0},
		{"recover after clamp", []float64{-5, 2}, 2},
		{"repeated negatives", []float64{-1, -1, -1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{cap: 10}
			s.SetAlive(true)
			for _, d := range tc.deltas {
				s.AddLoad(d)
			}
			if got := s.Load(); got != tc.want {
				t.Errorf("load after %v = %v, want %v", tc.deltas, got, tc.want)
			}
		})
	}
}

// TestAddLoadConcurrentMixed hammers the AddLoad CAS loop with concurrent
// positive and negative deltas (run under -race). With a preload large
// enough that the clamp never engages, the adds and removes must balance
// exactly; a second phase drives the clamp path concurrently and checks
// load never goes negative.
func TestAddLoadConcurrentMixed(t *testing.T) {
	s := &Server{cap: 1e9}
	s.SetAlive(true)
	s.AddLoad(100000)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				s.AddLoad(1)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				s.AddLoad(-1)
			}
		}()
	}
	wg.Wait()
	if got := s.Load(); got != 100000 {
		t.Errorf("balanced concurrent load = %v, want 100000", got)
	}

	// Clamp phase: mostly-negative traffic around zero.
	s.ResetLoad()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				s.AddLoad(0.5)
				s.AddLoad(-2)
			}
		}()
	}
	wg.Wait()
	if got := s.Load(); got < 0 {
		t.Errorf("load went negative under concurrent clamping: %v", got)
	}
}

func TestScaleLoadDecay(t *testing.T) {
	d := twoServerDeployment(10, 10)
	d.Servers[0].AddLoad(8)
	d.Servers[1].AddLoad(4)
	d.ScaleLoad(0.5)
	if got := d.Load(); got != 6 {
		t.Errorf("load after 0.5 decay = %v, want 6", got)
	}
	d.ScaleLoad(-1) // clamps to 0
	if got := d.Load(); got != 0 {
		t.Errorf("load after negative scale = %v, want 0", got)
	}
}

func TestRegisterLoadMetrics(t *testing.T) {
	p := MustGenerateUniverse(testW, Config{Seed: 9, NumDeployments: 4, ServersPerDeployment: 3})
	reg := telemetry.NewRegistry()
	p.RegisterLoadMetrics(reg)

	d := p.Deployments[0]
	d.Servers[0].AddLoad(d.Capacity()) // utilisation 1 on one deployment
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// gauge reads one gauge off the exposition.
	gauge := func(name string) (float64, bool) {
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				return f, err == nil
			}
		}
		return 0, false
	}
	if got, _ := gauge("cdn_utilisation_max"); got != 1 {
		t.Errorf("cdn_utilisation_max = %v, want 1", got)
	}
	name := "cdn_deployment_utilisation_" + metricName(d.Name)
	if got, ok := gauge(name); !ok || got != 1 {
		t.Errorf("%s = %v (present=%v), want 1", name, got, ok)
	}
	if got, _ := gauge("cdn_load_total"); got != d.Load() {
		t.Errorf("cdn_load_total = %v, want %v", got, d.Load())
	}
	if mean, _ := gauge("cdn_utilisation_mean"); mean <= 0 || mean >= 1 {
		t.Errorf("cdn_utilisation_mean = %v, want in (0,1)", mean)
	}
}

func TestMetricNameMangling(t *testing.T) {
	if got := metricName("US-0042"); got != "US_0042" {
		t.Errorf("metricName(US-0042) = %q", got)
	}
	if got := metricName("a.b c:d"); got != "a_b_c_d" {
		t.Errorf("metricName(a.b c:d) = %q", got)
	}
}
