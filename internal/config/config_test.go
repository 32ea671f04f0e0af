package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eum/internal/dnsserver"
	"eum/internal/mapping"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestParseFull(t *testing.T) {
	doc := `{
		"zone": "cdn.example.net",
		"policy": "ns",
		"world": {"seed": 7, "blocks": 2000, "ipv6_fraction": 0.2},
		"platform": {"seed": 7, "deployments": 100, "servers_per_deployment": 4},
		"customers": {"www.shop.example": "e1.b.cdn.example.net"},
		"sites": [
			{"host": "n1.ns.cdn.example.net", "addr": "127.0.0.2", "deployment_index": 0}
		]
	}`
	cfg, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Zone != "cdn.example.net" {
		t.Errorf("cfg = %+v", cfg)
	}
	pol, err := cfg.MappingPolicy()
	if err != nil || pol != mapping.NSBased {
		t.Errorf("policy = %v, %v", pol, err)
	}
	if cfg.World.IPv6Fraction != 0.2 || cfg.Platform.ServersPer != 4 {
		t.Errorf("nested cfg = %+v", cfg)
	}
}

func TestParseDefaultsApply(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{"zone": "z.net", "world": {"seed": 1, "blocks": 10}, "platform": {"seed": 1, "deployments": 5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if pol, _ := cfg.MappingPolicy(); pol != mapping.EndUser {
		t.Errorf("default policy = %v", pol)
	}
}

// TestParseRejectsUnknownFields covers a made-up key and keys that no
// longer exist — the serve loop's (queue_depth, shed_policy, batch_size),
// ttl_seconds, which never reached the map, health_flap_threshold,
// which tuned a health monitor eumdns no longer runs, and mode, whose
// role mapmaker_addr implies: the decoder names each as unknown instead of
// silently ignoring it.
func TestParseRejectsUnknownFields(t *testing.T) {
	for _, tc := range []struct{ name, field, doc string }{
		{"bogus", "bogus", `"bogus": 1`},
		{"answer-ttl", "ttl_seconds", `"ttl_seconds": 30`},
		{"health-flap-threshold", "health_flap_threshold", `"health_flap_threshold": 3`},
		{"negative-queue-depth", "queue_depth", `"queue_depth": -1`},
		{"bad-shed-policy", "shed_policy", `"shed_policy": "panic"`},
		{"negative-batch-size", "batch_size", `"batch_size": -1`},
		{"batch-size-above-64", "batch_size", `"batch_size": 65`},
		{"mode", "mode", `"mode": "replica"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(`{"zone": "z.net", ` + tc.doc + `}`))
			if want := `unknown field "` + tc.field + `"`; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("error = %v, want %s", err, want)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	base := Default()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty-zone", func(c *Config) { c.Zone = " " }},
		{"bad-policy", func(c *Config) { c.Policy = "anycast" }},
		// Client-aware NS mapping is a Fig 25 scheme, not a policy a map
		// serves.
		{"cans-policy", func(c *Config) { c.Policy = "cans" }},
		{"zero-blocks", func(c *Config) { c.World.Blocks = 0 }},
		{"bad-v6-fraction", func(c *Config) { c.World.IPv6Fraction = 1.5 }},
		{"zero-deployments", func(c *Config) { c.Platform.Deployments = 0 }},
		{"customer-outside-zone", func(c *Config) {
			c.Customers = map[string]string{"www.x.example": "www.other.org"}
		}},
		{"empty-customer-alias", func(c *Config) {
			c.Customers = map[string]string{" ": "e1.b.cdn.example.net"}
		}},
		{"site-outside-zone", func(c *Config) {
			c.Sites = []SiteConfig{{Host: "ns.other.org", Addr: "10.0.0.1"}}
		}},
		{"site-bad-addr", func(c *Config) {
			c.Sites = []SiteConfig{{Host: "n.cdn.example.net", Addr: "nonsense"}}
		}},
		{"site-bad-index", func(c *Config) {
			c.Sites = []SiteConfig{{Host: "n.cdn.example.net", Addr: "10.0.0.1", DeploymentIndex: 10_000}}
		}},
		{"negative-serve-deadline", func(c *Config) { c.ServeDeadlineMillis = -5 }},
		{"negative-rrl-rate", func(c *Config) { c.RRLRate = -1 }},
		{"rrl-rate-above-1e9", func(c *Config) { c.RRLRate = 2e9; c.RRLBurst = 8 }},
		{"negative-rrl-burst", func(c *Config) { c.RRLBurst = -1 }},
		{"rrl-burst-without-rate", func(c *Config) { c.RRLRate = 0; c.RRLBurst = 4 }},
		{"negative-stale-max-age", func(c *Config) { c.StaleMaxAgeSeconds = -1 }},
		{"stale-age-below-refresh", func(c *Config) {
			c.MapRefreshSeconds = 60
			c.StaleMaxAgeSeconds = 10
		}},
		{"negative-listener-shards", func(c *Config) { c.ListenerShards = -2 }},
		{"negative-balance-factor", func(c *Config) { c.BalanceFactor = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// The build-time load monitor's keys are gone: each document these
	// cases once refused for its values is now refused for naming one.
	for _, tc := range []struct{ name, key, doc string }{
		{"negative-load-threshold", "load_rebuild_threshold", `"balance_factor": 2, "load_rebuild_threshold": -0.5`},
		{"negative-load-hysteresis", "load_hysteresis", `"balance_factor": 2, "load_hysteresis": -0.1`},
		{"negative-load-ewma", "load_ewma_seconds", `"balance_factor": 2, "load_ewma_seconds": -30`},
		{"negative-load-max-age", "load_signal_max_age_seconds", `"balance_factor": 2, "load_signal_max_age_seconds": -90`},
		{"load-knob-without-balance", "load_rebuild_threshold", `"load_rebuild_threshold": 0.9`},
		{"hysteresis-swallows-enter", "load_rebuild_threshold", `"balance_factor": 2, "load_rebuild_threshold": 0.7, "load_hysteresis": 0.7`},
		{"hysteresis-above-default-enter", "load_hysteresis", `"balance_factor": 2, "load_hysteresis": 0.9`},
		{"max-age-below-ewma", "load_ewma_seconds", `"balance_factor": 2, "load_ewma_seconds": 60, "load_signal_max_age_seconds": 45`},
		{"max-age-below-default-ewma", "load_signal_max_age_seconds", `"balance_factor": 2, "load_signal_max_age_seconds": 10`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(`{"zone": "z.net", ` + tc.doc + `}`))
			if want := `unknown field "` + tc.key + `"`; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("error = %v, want %s", err, want)
			}
		})
	}
}

// TestValidateRRLMessages pins the RRL validation errors to actionable
// text: the operator who hits one should learn what the limiter would
// actually have done with the value, not just that it was rejected.
func TestValidateRRLMessages(t *testing.T) {
	cfg := Default()
	cfg.RRLRate = 1e9
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "truncate to zero") {
		t.Errorf("rrl_rate 1e9 error = %v, want mention of interval truncation", err)
	}

	cfg = Default()
	cfg.RRLBurst = -3
	err = cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "at least 1 response") {
		t.Errorf("rrl_burst -3 error = %v, want mention of the minimum allowance", err)
	}
}

// TestDistModes covers the distribution-plane role, which mapmaker_addr
// alone decides: with it the process is a replica, without it the process
// builds its own map. Each case is keyed on mapmaker_addr, and the
// staleness watchdog is cross-checked against whichever cadence actually
// refreshes the map (the local rebuild on a building node, the fetch
// interval on a replica).
func TestDistModes(t *testing.T) {
	const source = "127.0.0.1:9153"
	valid := []struct {
		name   string
		source string
		mutate func(*Config)
	}{
		{"standalone", "", func(*Config) {}},
		{"replica", source, func(*Config) {}},
		{"replica-explicit-fetch", source, func(c *Config) { c.MapFetchSeconds = 3 }},
		{"publisher", "", func(c *Config) { c.AdminAddr = "127.0.0.1:9154" }},
		// A replica's top level reads the map it fetched. Its sites index
		// the roster that map ships, which platform does not size, so an
		// index past platform.deployments is eumdns's to check.
		{"replica-with-sites", source, func(c *Config) {
			c.Sites = []SiteConfig{{Host: "ns1.cdn.example.net", Addr: "192.0.2.1", DeploymentIndex: c.Platform.Deployments}}
		}},
		{"replica-with-customers", source, func(c *Config) {
			c.Customers = map[string]string{"www.shop.example": "e1.b.cdn.example.net"}
		}},
	}
	for _, tc := range valid {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.MapMakerAddr = tc.source
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
		})
	}

	invalid := []struct {
		name   string
		source string
		mutate func(*Config)
		want   string
	}{
		{"replica-bad-addr", "not-an-addr", func(*Config) {}, "mapmaker_addr"},
		{"standalone-with-fetch-interval", "", func(c *Config) { c.MapFetchSeconds = 5 }, "needs mapmaker_addr"},
		{"negative-fetch-interval", source, func(c *Config) { c.MapFetchSeconds = -1 }, "map_fetch_seconds"},
		{"replica-stale-below-fetch", source, func(c *Config) {
			c.MapFetchSeconds = 60
			c.StaleMaxAgeSeconds = 10
		}, "fetch cadence"},
		{"stale-armed-without-refresh", "", func(c *Config) {
			c.MapRefreshSeconds = 0
			c.StaleMaxAgeSeconds = 30
		}, "map_refresh_seconds is 0"},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.MapMakerAddr = tc.source
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShardingKnobs covers listener_shards validation and translation,
// including the off-Linux rejection (exercised by swapping the package's
// serverGOOS hook, since CI runs on Linux).
func TestShardingKnobs(t *testing.T) {
	cfg := Default()
	cfg.ListenerShards = 4
	if serverGOOS == "linux" {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("linux sharding config rejected: %v", err)
		}
		if sc := cfg.ServerConfig(); sc.ListenerShards != 4 {
			t.Errorf("server config = %+v, want shards 4", sc)
		}
	}

	defer func(goos string) { serverGOOS = goos }(serverGOOS)
	serverGOOS = "darwin"
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "SO_REUSEPORT") || !strings.Contains(err.Error(), "darwin") {
		t.Errorf("off-linux listener_shards error = %v, want actionable SO_REUSEPORT message", err)
	}
	cfg.ListenerShards = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("single-shard config rejected off linux: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/eum.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestServingKnobsTranslate(t *testing.T) {
	cfg := Default()
	cfg.ServeDeadlineMillis = 250
	cfg.RRLRate = 20
	cfg.RRLBurst = 5
	cfg.StaleMaxAgeSeconds = 45
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	sc := cfg.ServerConfig()
	if sc.ServeDeadline != 250*time.Millisecond {
		t.Errorf("serve deadline = %v", sc.ServeDeadline)
	}
	if sc.RRLRate != 20 || sc.RRLBurst != 5 {
		t.Errorf("rrl = %v/%d", sc.RRLRate, sc.RRLBurst)
	}

	dc := cfg.DegradeConfig()
	if dc.StaleAfter != 45*time.Second {
		t.Errorf("stale after = %v", dc.StaleAfter)
	}
}

// TestValidateLoadKnobMessages pins what is left of the load knobs through
// config.Load: a file carrying a key of the build-time load monitor, which
// is gone, fails by naming it instead of loading as a no-op (TestValidateErrors
// covers all four keys); balance_factor still loads, and a negative one is
// still refused with a message that names it.
func TestValidateLoadKnobMessages(t *testing.T) {
	load := func(t *testing.T, keys string) (Config, error) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "eumdns.json")
		doc := `{"zone": "cdn.example.net", ` + keys + `}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return Load(path)
	}
	if _, err := load(t, `"balance_factor": 2, "load_ewma_seconds": 30`); err == nil ||
		!strings.Contains(err.Error(), `unknown field "load_ewma_seconds"`) {
		t.Errorf("load_ewma_seconds error = %v, want it named as unknown", err)
	}
	cfg, err := load(t, `"balance_factor": 2.5`)
	if err != nil || cfg.BalanceFactor != 2.5 {
		t.Errorf("balance_factor 2.5 loaded as %g, %v", cfg.BalanceFactor, err)
	}
	if _, err := load(t, `"balance_factor": -1`); err == nil || !strings.Contains(err.Error(), "negative balance_factor") {
		t.Errorf("negative balance_factor error = %v, want it named", err)
	}
}

func TestDefaultServingKnobs(t *testing.T) {
	cfg := Default()
	if cfg.StaleMaxAgeSeconds != 30 {
		t.Errorf("defaults = %+v", cfg)
	}
	if sc := cfg.ServerConfig(); sc != (dnsserver.Config{}) {
		t.Errorf("default server config = %+v, want the server's defaults", sc)
	}
}
