// Package config loads and validates the declarative configuration of an
// authoritative deployment: the served zone, the routing policy, the
// synthetic world and platform parameters, hosted customer CNAMEs, and
// low-level name-server sites. The eumdns command accepts such a file via
// -config, so a whole Figure 3 hierarchy can be described declaratively.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"time"

	"eum/internal/authority"
	"eum/internal/dnsserver"
	"eum/internal/mapping"
)

// serverGOOS is the platform the serving knobs are validated against.
// A variable (not runtime.GOOS inline) so tests can exercise the
// off-Linux rejection paths from a Linux CI box.
var serverGOOS = runtime.GOOS

// ErrReplicaSites refuses low-level NS sites on a replica: the top level
// ranks sites with the mapping system's scorer, and a replica, which holds
// no world, has none.
var ErrReplicaSites = errors.New(`config: mode "replica" cannot serve sites: the top level ranks them with a scorer, which a replica does not have; serve them from a standalone or publisher node`)

// Config is the top-level configuration document.
type Config struct {
	// Zone is the CDN zone served, e.g. "cdn.example.net".
	Zone string `json:"zone"`
	// Policy is "ns", "eu" or "cans" (default "eu").
	Policy string `json:"policy,omitempty"`
	// MapRefreshSeconds is the MapMaker's periodic publish cadence — how
	// often the control plane rebuilds and swaps in a fresh map snapshot
	// even without health or policy signals (default 10).
	MapRefreshSeconds int `json:"map_refresh_seconds,omitempty"`

	// Mode selects the process's role in the map-distribution plane:
	// "standalone" (default: build and serve in one process), "publisher"
	// (build locally and serve snapshots to replicas on the admin plane),
	// or "replica" (serve maps fetched from a publisher instead of
	// building them).
	Mode string `json:"mode,omitempty"`
	// MapMakerAddr is the publisher's admin address ("host:port") a
	// replica fetches snapshots from. Required in replica mode, forbidden
	// otherwise.
	MapMakerAddr string `json:"mapmaker_addr,omitempty"`
	// MapFetchSeconds is the replica's snapshot fetch interval (default
	// 5). Replica mode only. Cross-checked against
	// stale_max_age_seconds: a replica's map can never be fresher than
	// its fetch cadence.
	MapFetchSeconds int `json:"map_fetch_seconds,omitempty"`

	// ServeDeadlineMillis drops a received query that waited longer than
	// this behind the answers ahead of it in its batch; 0 disables the
	// deadline.
	ServeDeadlineMillis int `json:"serve_deadline_ms,omitempty"`
	// RRLRate enables per-source-prefix response-rate limiting at this
	// many responses per second; 0 disables it.
	RRLRate float64 `json:"rrl_rate,omitempty"`
	// RRLBurst is the rate limiter's burst allowance (requires rrl_rate;
	// 0 keeps the server default of 8).
	RRLBurst int `json:"rrl_burst,omitempty"`
	// ListenerShards is the number of shared-nothing SO_REUSEPORT listener
	// shards the DNS server binds; 0 keeps the server default (one per
	// GOMAXPROCS on Linux, 1 elsewhere). Values above 1 require Linux.
	ListenerShards int `json:"listener_shards,omitempty"`
	// AdminAddr, when set, serves the admin HTTP endpoints (/metrics,
	// /healthz, /mapz, pprof) on this address, e.g. "127.0.0.1:9153".
	// Empty disables the admin listener.
	AdminAddr string `json:"admin_addr,omitempty"`
	// StaleMaxAgeSeconds arms the authority's staleness watchdog: a map
	// older than this serves stale (clamped TTL), then falls back, then
	// SERVFAILs (see authority.DegradeConfig). 0 disables the watchdog;
	// default 30. Must be at least map_refresh_seconds, or every map
	// would count as stale the moment it published.
	StaleMaxAgeSeconds int `json:"stale_max_age_seconds,omitempty"`
	// HealthFlapThreshold is how many consecutive disagreeing probes flip
	// a server's liveness (flap damping); default 3, minimum 1.
	HealthFlapThreshold int `json:"health_flap_threshold,omitempty"`

	// PartitionMiles clusters client blocks and resolvers into mapping
	// partitions by routing signature (geo cell of this radius + origin
	// AS + access type); partitions share rank tables, so memory per
	// block drops to a few bytes. 0 keeps per-endpoint partitions
	// (byte-identical to unpartitioned mapping). Million-block worlds
	// want a metro-sized radius such as 50.
	PartitionMiles float64 `json:"partition_miles,omitempty"`

	// BalanceFactor is the distance-vs-load balance knob β: each answer
	// re-ranks the first few live candidates of its row by
	// ping·(1 + β·utilization²), moving demand to next-nearest deployments
	// as utilization climbs. The map itself is the same at every β. 0 (the
	// default) keeps pure proximity mapping with hard capacity spill.
	BalanceFactor float64 `json:"balance_factor,omitempty"`

	// World parameterises the synthetic Internet.
	World WorldConfig `json:"world"`
	// Platform parameterises the CDN deployment universe.
	Platform PlatformConfig `json:"platform"`

	// Customers maps hosted customer domains to content domains under
	// the zone (served as CNAMEs by the top-level authority).
	Customers map[string]string `json:"customers,omitempty"`
	// Sites are low-level name-server sites for delegation; empty means
	// a flat (single-level) authority.
	Sites []SiteConfig `json:"sites,omitempty"`
}

// WorldConfig selects world-generation parameters.
type WorldConfig struct {
	Seed         int64   `json:"seed"`
	Blocks       int     `json:"blocks"`
	IPv6Fraction float64 `json:"ipv6_fraction,omitempty"`
}

// PlatformConfig selects deployment-universe parameters.
type PlatformConfig struct {
	Seed        int64 `json:"seed"`
	Deployments int   `json:"deployments"`
	ServersPer  int   `json:"servers_per_deployment,omitempty"`
}

// SiteConfig is one low-level name-server site.
type SiteConfig struct {
	// Host is the NS host name (must be under the zone).
	Host string `json:"host"`
	// Addr is the glue address.
	Addr string `json:"addr"`
	// DeploymentIndex selects the platform deployment hosting the site.
	DeploymentIndex int `json:"deployment_index"`
}

// Default returns a runnable default configuration.
func Default() Config {
	return Config{
		Zone:                "cdn.example.net",
		Policy:              "eu",
		MapRefreshSeconds:   10,
		StaleMaxAgeSeconds:  30,
		HealthFlapThreshold: 3,
		World:               WorldConfig{Seed: 1, Blocks: 8000},
		Platform:            PlatformConfig{Seed: 1, Deployments: 600},
	}
}

// Load reads and validates a configuration file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Parse reads and validates a configuration document.
func Parse(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	cfg := Default()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if strings.TrimSpace(c.Zone) == "" {
		return fmt.Errorf("config: zone is required")
	}
	if _, err := c.MappingPolicy(); err != nil {
		return err
	}
	if c.MapRefreshSeconds < 0 {
		return fmt.Errorf("config: negative map_refresh_seconds")
	}
	if c.PartitionMiles < 0 {
		return fmt.Errorf("config: negative partition_miles (0 disables clustering)")
	}
	if c.BalanceFactor < 0 {
		return fmt.Errorf("config: negative balance_factor (0 disables load-aware picks)")
	}
	if c.ServeDeadlineMillis < 0 {
		return fmt.Errorf("config: negative serve_deadline_ms")
	}
	if c.RRLRate < 0 {
		return fmt.Errorf("config: negative rrl_rate")
	}
	if c.RRLRate >= 1e9 {
		return fmt.Errorf("config: rrl_rate %g is at or above 1e9 responses/second per prefix, which the limiter cannot represent (its nanosecond interval would truncate to zero); leave rrl_rate unset to disable limiting", c.RRLRate)
	}
	if c.RRLBurst < 0 {
		return fmt.Errorf("config: rrl_burst %d: the limiter needs a burst allowance of at least 1 response, or every query would be rejected (0 selects the server default of 8)", c.RRLBurst)
	}
	if c.RRLBurst > 0 && c.RRLRate == 0 {
		return fmt.Errorf("config: rrl_burst set without rrl_rate (the limiter is disabled)")
	}
	if c.ListenerShards < 0 {
		return fmt.Errorf("config: listener_shards %d: the server needs at least 1 listener shard (0 selects the default: one per CPU on linux)", c.ListenerShards)
	}
	if c.ListenerShards > 1 && serverGOOS != "linux" {
		return fmt.Errorf("config: listener_shards %d requires SO_REUSEPORT, which this build only wires up on linux (running on %s); set listener_shards to 1", c.ListenerShards, serverGOOS)
	}
	if c.AdminAddr != "" {
		if _, err := netip.ParseAddrPort(c.AdminAddr); err != nil {
			return fmt.Errorf("config: admin_addr: %w", err)
		}
	}
	mode, err := c.DistMode()
	if err != nil {
		return err
	}
	switch mode {
	case ModeReplica:
		if len(c.Sites) > 0 {
			return ErrReplicaSites
		}
		if c.MapMakerAddr == "" {
			return fmt.Errorf("config: mode %q needs mapmaker_addr (the publisher's admin address, e.g. \"127.0.0.1:9153\") to fetch maps from", mode)
		}
		if _, err := netip.ParseAddrPort(c.MapMakerAddr); err != nil {
			return fmt.Errorf("config: mapmaker_addr: %w", err)
		}
	case ModePublisher:
		if c.AdminAddr == "" {
			return fmt.Errorf("config: mode %q serves snapshots to replicas over the admin plane; set admin_addr (e.g. \"127.0.0.1:9153\")", mode)
		}
		fallthrough
	default:
		if c.MapMakerAddr != "" {
			return fmt.Errorf("config: mapmaker_addr is set but mode is %q; set mode to \"replica\" to fetch maps from it, or remove mapmaker_addr", mode)
		}
		if c.MapFetchSeconds != 0 {
			return fmt.Errorf("config: map_fetch_seconds is set but mode is %q; the fetch interval only applies to replicas (set mode to \"replica\", or remove map_fetch_seconds)", mode)
		}
	}
	if c.MapFetchSeconds < 0 {
		return fmt.Errorf("config: negative map_fetch_seconds")
	}
	if c.StaleMaxAgeSeconds < 0 {
		return fmt.Errorf("config: negative stale_max_age_seconds")
	}
	// Staleness cross-checks: the watchdog must be slower than whatever
	// cadence actually refreshes the map — the local rebuild interval in
	// standalone/publisher mode, the fetch interval on a replica —
	// or every map would degrade the moment it published.
	if c.StaleMaxAgeSeconds > 0 {
		if mode == ModeReplica {
			if fetch := int(c.FetchInterval() / time.Second); c.StaleMaxAgeSeconds < fetch {
				return fmt.Errorf("config: stale_max_age_seconds (%d) below the replica fetch interval map_fetch_seconds (%d): a replica's map can never be fresher than its fetch cadence, so every fetched map would already count as stale; raise stale_max_age_seconds to a multiple of the fetch interval (headroom for retries) or fetch more often",
					c.StaleMaxAgeSeconds, fetch)
			}
		} else {
			if c.MapRefreshSeconds == 0 {
				return fmt.Errorf("config: stale_max_age_seconds (%d) arms the staleness watchdog, but map_refresh_seconds is 0 so the periodic rebuild that would keep the map fresh is disabled: the map would degrade to stale %ds after boot and only ever recover on health or policy signals; set map_refresh_seconds below stale_max_age_seconds, or set stale_max_age_seconds to 0 to disarm the watchdog",
					c.StaleMaxAgeSeconds, c.StaleMaxAgeSeconds)
			}
			if c.StaleMaxAgeSeconds < c.MapRefreshSeconds {
				return fmt.Errorf("config: stale_max_age_seconds (%d) below map_refresh_seconds (%d): every map would be stale the moment it published; raise stale_max_age_seconds or refresh more often",
					c.StaleMaxAgeSeconds, c.MapRefreshSeconds)
			}
		}
	}
	if c.HealthFlapThreshold < 0 {
		return fmt.Errorf("config: negative health_flap_threshold")
	}
	if c.World.Blocks <= 0 {
		return fmt.Errorf("config: world.blocks must be positive")
	}
	if c.World.IPv6Fraction < 0 || c.World.IPv6Fraction > 1 {
		return fmt.Errorf("config: world.ipv6_fraction out of [0,1]")
	}
	if c.Platform.Deployments <= 0 {
		return fmt.Errorf("config: platform.deployments must be positive")
	}
	zone := strings.ToLower(strings.TrimSuffix(c.Zone, "."))
	for alias, target := range c.Customers {
		if strings.TrimSpace(alias) == "" {
			return fmt.Errorf("config: empty customer alias")
		}
		t := strings.ToLower(strings.TrimSuffix(target, "."))
		if !strings.HasSuffix(t, ".b."+zone) {
			return fmt.Errorf("config: customer %q target %q not under b.%s", alias, target, zone)
		}
	}
	for i, s := range c.Sites {
		h := strings.ToLower(strings.TrimSuffix(s.Host, "."))
		if !strings.HasSuffix(h, "."+zone) {
			return fmt.Errorf("config: site %d host %q outside zone %q", i, s.Host, c.Zone)
		}
		if _, err := netip.ParseAddr(s.Addr); err != nil {
			return fmt.Errorf("config: site %d addr: %w", i, err)
		}
		if s.DeploymentIndex < 0 || s.DeploymentIndex >= c.Platform.Deployments {
			return fmt.Errorf("config: site %d deployment_index %d out of range", i, s.DeploymentIndex)
		}
	}
	return nil
}

// Distribution-plane modes (see Config.Mode).
const (
	ModeStandalone = "standalone"
	ModePublisher  = "publisher"
	ModeReplica    = "replica"
)

// defaultMapFetchSeconds is the replica fetch interval when
// map_fetch_seconds is unset.
const defaultMapFetchSeconds = 5

// DistMode normalises the mode string (empty means standalone).
func (c Config) DistMode() (string, error) {
	switch m := strings.ToLower(strings.TrimSpace(c.Mode)); m {
	case "":
		return ModeStandalone, nil
	case ModeStandalone, ModePublisher, ModeReplica:
		return m, nil
	default:
		return "", fmt.Errorf("config: unknown mode %q (want standalone, publisher, or replica)", c.Mode)
	}
}

// FetchInterval returns the replica's snapshot fetch interval.
func (c Config) FetchInterval() time.Duration {
	s := c.MapFetchSeconds
	if s == 0 {
		s = defaultMapFetchSeconds
	}
	return time.Duration(s) * time.Second
}

// MappingPolicy translates the policy string.
func (c Config) MappingPolicy() (mapping.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(c.Policy)) {
	case "", "eu":
		return mapping.EndUser, nil
	case "ns":
		return mapping.NSBased, nil
	case "cans":
		return mapping.ClientAwareNS, nil
	}
	return 0, fmt.Errorf("config: unknown policy %q (want ns, eu, or cans)", c.Policy)
}

// ServerConfig translates the serving-plane knobs into a dnsserver.Config.
func (c Config) ServerConfig() dnsserver.Config {
	return dnsserver.Config{
		ServeDeadline:  time.Duration(c.ServeDeadlineMillis) * time.Millisecond,
		RRLRate:        c.RRLRate,
		RRLBurst:       c.RRLBurst,
		ListenerShards: c.ListenerShards,
	}
}

// DegradeConfig translates the staleness knob into the authority's
// watchdog configuration (derived thresholds take the authority defaults).
func (c Config) DegradeConfig() authority.DegradeConfig {
	return authority.DegradeConfig{
		StaleAfter: time.Duration(c.StaleMaxAgeSeconds) * time.Second,
	}
}

// Save writes the configuration as formatted JSON.
func (c Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
