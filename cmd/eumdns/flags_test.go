package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eum/internal/config"
)

func parse(t *testing.T, args ...string) (config.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("eumdns", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, _, err := loadConfig(fs, args)
	return cfg, err
}

// TestDurationFlagTruncation: a duration flag below its config field's
// resolution used to truncate to 0 — silently disabling the watchdog or the
// deadline, or selecting the default — and is now refused by name and unit.
// Whole-unit values, and an explicit 0, still pass.
func TestDurationFlagTruncation(t *testing.T) {
	replica := []string{"-mapmaker-addr", "127.0.0.1:9300"}
	for _, tc := range []struct {
		flag, value, unit string
		extra             []string
	}{
		{"stale-max-age", "500ms", "1s", nil},
		{"map-refresh", "500ms", "1s", nil},
		{"serve-deadline", "500us", "1ms", nil},
		{"map-fetch", "500ms", "1s", replica},
		{"map-fetch", "-500ms", "1s", replica},
	} {
		_, err := parse(t, append([]string{"-" + tc.flag, tc.value}, tc.extra...)...)
		if err == nil {
			t.Errorf("-%s %s accepted", tc.flag, tc.value)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-"+tc.flag) || !strings.Contains(msg, tc.unit) {
			t.Errorf("-%s %s: error %q does not name the flag and its unit %s", tc.flag, tc.value, msg, tc.unit)
		}
	}

	cfg, err := parse(t, "-stale-max-age", "40s", "-map-refresh", "2s", "-serve-deadline", "3ms",
		"-map-fetch", "1s", "-mapmaker-addr", "127.0.0.1:9300")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StaleMaxAgeSeconds != 40 || cfg.MapRefreshSeconds != 2 || cfg.ServeDeadlineMillis != 3 ||
		cfg.FetchInterval() != time.Second {
		t.Errorf("whole-unit flags = %+v", cfg)
	}
	if cfg, err = parse(t, "-stale-max-age", "0", "-map-refresh", "0", "-serve-deadline", "0"); err != nil {
		t.Fatalf("explicit zeroes refused: %v", err)
	} else if cfg.StaleMaxAgeSeconds != 0 || cfg.MapRefreshSeconds != 0 || cfg.ServeDeadlineMillis != 0 {
		t.Errorf("explicit zeroes = %+v", cfg)
	}
}

// TestRoleFlagsOverlay: the listen and role flags apply identically on top
// of the flag-built defaults and on top of a -config document (the
// benchmark harness starts its replica the second way), and everything else
// comes from the document when one is named.
func TestRoleFlagsOverlay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eumdns.json")
	doc := `{"zone": "cdn.example.net", "policy": "eu", "map_refresh_seconds": 7,
		"world": {"seed": 3, "blocks": 900}, "platform": {"seed": 3, "deployments": 40}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	role := []string{"-mapmaker-addr", "127.0.0.1:9300", "-map-fetch", "1s", "-admin", "127.0.0.1:9301"}
	for name, args := range map[string][]string{
		"flags":  role,
		"config": append([]string{"-config", path, "-map-refresh", "2s"}, role...),
	} {
		cfg, err := parse(t, args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Mode != config.ModeReplica || cfg.MapMakerAddr != "127.0.0.1:9300" ||
			cfg.FetchInterval() != time.Second || cfg.AdminAddr != "127.0.0.1:9301" {
			t.Errorf("%s: role flags not applied: %+v", name, cfg)
		}
		wantBlocks, wantRefresh := 8000, 10
		if name == "config" {
			wantBlocks, wantRefresh = 900, 7
		}
		if cfg.World.Blocks != wantBlocks || cfg.MapRefreshSeconds != wantRefresh {
			t.Errorf("%s: blocks %d refresh %d, want %d and %d",
				name, cfg.World.Blocks, cfg.MapRefreshSeconds, wantBlocks, wantRefresh)
		}
	}

	cfg, err := parse(t, "-config", path, "-publisher", "-admin", "127.0.0.1:9301")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != config.ModePublisher || cfg.MapMakerAddr != "" {
		t.Errorf("publisher beside a config: %+v", cfg)
	}
	if _, err := parse(t, "-publisher"); err == nil {
		t.Error("-publisher without -admin accepted")
	}
}

// TestRemovedLoadFlags: the flags of the build-time load monitor went with
// it, and are parse errors rather than silently ignored; -balance-factor
// stays.
func TestRemovedLoadFlags(t *testing.T) {
	for _, tc := range [][2]string{
		{"load-threshold", "0.8"},
		{"load-hysteresis", "0.15"},
		{"load-ewma", "30s"},
		{"load-max-age", "90s"},
	} {
		_, err := parse(t, "-balance-factor", "2", "-"+tc[0], tc[1])
		if err == nil || !strings.Contains(err.Error(), tc[0]) {
			t.Errorf("-%s %s: error = %v, want a parse error naming the flag", tc[0], tc[1], err)
		}
	}
	cfg, err := parse(t, "-balance-factor", "2")
	if err != nil || cfg.BalanceFactor != 2 {
		t.Errorf("-balance-factor 2 = %g, %v", cfg.BalanceFactor, err)
	}
}
