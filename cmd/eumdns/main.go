// Command eumdns runs a live authoritative DNS server for a synthetic CDN
// zone, answering A queries through the end-user mapping system over real
// UDP and TCP sockets. Query it with cmd/digecs (or any stub resolver that
// can set the EDNS0 client-subnet option).
//
//	eumdns -addr 127.0.0.1:5300 -policy eu
//	digecs -server 127.0.0.1:5300 -subnet 203.0.113.0/24 www.cdn.example.net
//
// With -config, the zone, policy, world, platform, hosted customer CNAMEs
// and low-level NS sites come from a JSON document (see internal/config);
// when the config lists sites, eumdns serves the two-level Figure 3
// hierarchy: this process is the top level, delegating to the listed
// low-level sites.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/config"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapdist"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/telemetry"
	"eum/internal/world"
)

func main() {
	cfg, addr, verbose, err := loadConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	mode, err := cfg.DistMode()
	if err != nil {
		log.Fatal(err)
	}
	policy, err := cfg.MappingPolicy()
	if err != nil {
		log.Fatal(err)
	}

	mcfg := mapping.Config{
		Policy:         policy,
		PingTargets:    cfg.World.Blocks / 10,
		PartitionMiles: cfg.PartitionMiles,
		BalanceFactor:  cfg.BalanceFactor,
	}

	// Control plane. Standalone and publisher nodes generate the world and
	// platform, build the first map here and run a background MapMaker
	// republishing it on a cadence (and on change-feed signals); a
	// publisher additionally encodes each published snapshot for replicas.
	// A replica generates and builds nothing: before it listens it fetches
	// the MapMaker node's current full image, which carries the platform's
	// roster and the block index along with the map, and from then on
	// installs whatever that node ships. Either way the serving path below
	// only ever reads the currently installed snapshot.
	ctx, stopControl := context.WithCancel(context.Background())
	defer stopControl()
	var (
		system   *mapping.System
		platform *cdn.Platform
		mm       *mapmaker.MapMaker
		pub      *mapdist.Publisher
		fetcher  *mapdist.Fetcher
	)
	if mode == config.ModeReplica {
		log.Printf("replica: fetching the first map from %s", cfg.MapMakerAddr)
		fetcher, err = mapdist.Boot(ctx, mapdist.FetcherConfig{
			Source:   cfg.MapMakerAddr,
			Interval: cfg.FetchInterval(),
		}, mcfg)
		if err != nil {
			log.Fatal(err)
		}
		system, platform = fetcher.System(), fetcher.Platform()
		go fetcher.Run(ctx)
		log.Printf("replica: serving epoch %d on %d deployments; fetching maps from %s every %v",
			system.Current().Epoch(), len(platform.Deployments), cfg.MapMakerAddr, cfg.FetchInterval())
	} else {
		log.Printf("generating world (%d blocks) and platform (%d deployments)...",
			cfg.World.Blocks, cfg.Platform.Deployments)
		w := world.MustGenerate(world.Config{
			Seed: cfg.World.Seed, NumBlocks: cfg.World.Blocks, IPv6Fraction: cfg.World.IPv6Fraction,
		})
		platform, err = cdn.GenerateUniverse(w, cdn.Config{
			Seed: cfg.Platform.Seed, NumDeployments: cfg.Platform.Deployments,
			ServersPerDeployment: cfg.Platform.ServersPer,
		})
		if err != nil {
			log.Fatalf("platform: %v", err)
		}
		system = mapping.NewSystem(w, platform, netmodel.NewDefault(), mcfg)
		refresh := time.Duration(cfg.MapRefreshSeconds) * time.Second
		mm = mapmaker.New(system, mapmaker.Config{Interval: refresh})
		if mode == config.ModePublisher {
			pub = mapdist.NewPublisher(system, platform, mapdist.PublisherConfig{})
			log.Printf("publisher: serving snapshots at %s%s", cfg.AdminAddr, mapdist.SnapshotPath)
		}
		if refresh > 0 {
			go mm.Run(ctx)
			log.Printf("map maker publishing every %v", refresh)
		}
	}
	index := system.Current().Layout().Index

	handler, auth, described, err := buildHandler(cfg, system, platform)
	if err != nil {
		log.Fatal(err)
	}
	// With a balance factor, every mapping answer records one demand unit
	// on its picked server, so the utilization the picker weighs moves with
	// this node's own query traffic; runLoadDecay drains it back toward
	// zero, turning the counters into a rate.
	if auth != nil && cfg.BalanceFactor > 0 {
		auth.SetAnswerDemand(1)
		go runLoadDecay(ctx, platform, time.Second)
		log.Printf("load-aware picks: balance %g, load decay %v", cfg.BalanceFactor, loadDecay)
	}
	if verbose {
		handler = dnsserver.WithLogging(handler, slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}

	srv, err := dnsserver.ListenConfig(addr, handler, cfg.ServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	tcpSrv, err := dnsserver.ListenTCP(addr, handler)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s on %s (udp+tcp, %d shards), policy %s", described, srv.Addr(), srv.Shards(), policy)

	// Observability plane: one registry aggregating every subsystem's
	// counters, served over a separate admin HTTP listener. The health
	// monitor (no fault injection in a live process — it reflects real
	// liveness flags) feeds the MapMaker's change feed, and a low-rate
	// self-probe exercises the full socket path through a real DNS client.
	if cfg.AdminAddr != "" {
		reg := telemetry.NewRegistry()
		// A replica has no MapMaker to nudge; its health monitor still
		// tracks liveness for the metrics plane, it just signals nobody.
		onChange := func(*cdn.Deployment) {}
		if mm != nil {
			onChange = mm.OnDeploymentChange
		}
		mon, err := cdn.NewMonitor(platform, &cdn.ScheduledFaults{}, 10*time.Second, onChange)
		if err != nil {
			log.Fatal(err)
		}
		if cfg.HealthFlapThreshold > 0 {
			mon.SetFlapThreshold(cfg.HealthFlapThreshold)
		}
		probe := &dnsclient.Client{}
		registerAll(reg, system, srv, auth, mm, mon, probe)
		if fetcher != nil {
			fetcher.RegisterMetrics(reg)
		}
		if pub != nil {
			pub.RegisterMetrics(reg)
		}
		platform.RegisterLoadMetrics(reg)
		mux := newAdminMux(adminState{
			reg: reg, system: system, mm: mm, auth: auth,
			fetcher: fetcher, pub: pub, mode: mode, blocks: len(index.V4.Keys) + len(index.V6.Keys),
			platform: platform, balance: cfg.BalanceFactor,
		})
		go func() {
			log.Printf("admin HTTP on %s (/metrics /healthz /mapz /debug/pprof)", cfg.AdminAddr)
			if err := http.ListenAndServe(cfg.AdminAddr, mux); err != nil {
				log.Printf("admin listener: %v", err)
			}
		}()
		go runHealthMonitor(ctx, mon, time.Second)
		go runSelfProbe(ctx, probe, srv.Addr().String(), dnsmsg.Name("whoami."+cfg.Zone), 10*time.Second)
	}

	// Print a few real client subnets to try.
	fmt.Println("example queries:")
	for _, p := range index.Prefixes(3) {
		fmt.Printf("  digecs -server %s -subnet %s www.b.%s\n", srv.Addr(), p, cfg.Zone)
	}
	fmt.Printf("  digecs -server %s whoami.%s TXT\n", srv.Addr(), cfg.Zone)

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down")
		stopControl()
		_ = srv.Close()
		_ = tcpSrv.Close()
	}()

	go func() { _ = tcpSrv.Serve() }()
	if err := srv.Serve(); err != nil {
		log.Fatal(err)
	}
}

// buildHandler wires either a flat authority or the two-level hierarchy,
// per the config. The *Authority return is non-nil only in the flat case;
// the admin plane uses it for the degradation ladder and mapping counters.
func buildHandler(cfg config.Config, system *mapping.System, platform *cdn.Platform) (dnsserver.Handler, *authority.Authority, string, error) {
	if len(cfg.Sites) == 0 && len(cfg.Customers) == 0 {
		a, err := authority.New(dnsmsg.Name(cfg.Zone), system)
		if err != nil {
			return nil, nil, "", err
		}
		// Arm the serve-stale watchdog: if the MapMaker stalls or dies, the
		// authority degrades answers instead of serving an ancient map as
		// fresh (see authority.DegradeConfig).
		a.SetDegradeConfig(cfg.DegradeConfig())
		return a, a, "authoritative for " + string(a.Zone()), nil
	}
	tl, err := authority.NewTopLevel(dnsmsg.Name(cfg.Zone), system)
	if err != nil {
		return nil, nil, "", err
	}
	for alias, target := range cfg.Customers {
		if err := tl.RegisterCustomer(dnsmsg.Name(alias), dnsmsg.Name(target)); err != nil {
			return nil, nil, "", err
		}
	}
	for _, s := range cfg.Sites {
		addr, err := netip.ParseAddr(s.Addr)
		if err != nil {
			return nil, nil, "", err
		}
		if err := tl.AddSite(authority.NSSite{
			Host:       dnsmsg.Name(s.Host),
			Addr:       addr,
			Deployment: platform.Deployments[s.DeploymentIndex],
		}); err != nil {
			return nil, nil, "", err
		}
	}
	return tl, nil, "top-level authority for " + string(tl.Zone()), nil
}

// loadConfig parses the command line into the validated configuration the
// process runs with: the -config document when one is named, the defaults
// overlaid with the tuning flags otherwise. Listen addresses and the
// distribution role stay operator-controlled and apply on top of both.
func loadConfig(fs *flag.FlagSet, args []string) (cfg config.Config, addr string, verbose bool, err error) {
	fs.StringVar(&addr, "addr", "127.0.0.1:5300", "UDP+TCP listen address")
	adminAddr := fs.String("admin", "", "admin HTTP listen address for /metrics, /healthz, /mapz and /debug/pprof (empty disables)")
	configPath := fs.String("config", "", "JSON config file (overrides the flags below)")
	zone := fs.String("zone", "cdn.example.net", "served zone")
	policyName := fs.String("policy", "eu", "mapping policy: ns, eu, or cans")
	blocks := fs.Int("blocks", 8000, "synthetic world size in /24 client blocks")
	deployments := fs.Int("deployments", 600, "CDN deployment locations")
	seed := fs.Int64("seed", 1, "generation seed")
	mapRefresh := fs.Duration("map-refresh", 10*time.Second,
		"MapMaker publish cadence in whole seconds (0 disables the background refresh loop)")
	serveDeadline := fs.Duration("serve-deadline", 0,
		"drop a query that waited longer than this, in whole milliseconds, behind the answers ahead of it in its batch (0 disables)")
	rrlRate := fs.Float64("rrl-rate", 0,
		"response-rate limit per source prefix, responses/second (0 disables)")
	rrlBurst := fs.Int("rrl-burst", 0, "response-rate limiter burst allowance (0 = default 8)")
	shards := fs.Int("shards", 0,
		"SO_REUSEPORT listener shards (0 = one per CPU on linux, 1 elsewhere)")
	staleMaxAge := fs.Duration("stale-max-age", 30*time.Second,
		"serve-stale watchdog: map age, in whole seconds, entering degraded answers (0 disables)")
	balanceFactor := fs.Float64("balance-factor", 0,
		"distance-vs-load balance knob: each answer re-ranks its first few live candidates by ping x (1 + balance x util^2); 0 keeps pure proximity mapping")
	mapmakerAddr := fs.String("mapmaker-addr", "",
		"replica mode: fetch maps from this MapMaker admin address instead of building locally")
	publisher := fs.Bool("publisher", false,
		"serve encoded map snapshots to replicas on the admin listener (requires -admin)")
	mapFetch := fs.Duration("map-fetch", 5*time.Second,
		"replica mode: map fetch cadence against the MapMaker, in whole seconds")
	fs.BoolVar(&verbose, "verbose", false, "log every query (structured JSON on stderr)")
	if err = fs.Parse(args); err != nil {
		return
	}

	// Duration flags land in whole-unit config integers, where zero means
	// "disabled" or "the default": refuse one that would truncate to zero.
	whole := func(name string, d, unit time.Duration) int {
		n := int(d / unit)
		if n == 0 && d != 0 && err == nil {
			err = fmt.Errorf("-%s %v: the flag is counted in whole units of %v and would truncate to 0", name, d, unit)
		}
		return n
	}
	if *configPath != "" {
		cfg, err = config.Load(*configPath)
	} else {
		cfg = config.Default()
		cfg.Zone = *zone
		cfg.Policy = strings.ToLower(*policyName)
		cfg.World = config.WorldConfig{Seed: *seed, Blocks: *blocks}
		cfg.Platform = config.PlatformConfig{Seed: *seed, Deployments: *deployments}
		cfg.ServeDeadlineMillis = whole("serve-deadline", *serveDeadline, time.Millisecond)
		cfg.RRLRate = *rrlRate
		cfg.RRLBurst = *rrlBurst
		cfg.ListenerShards = *shards
		cfg.StaleMaxAgeSeconds = whole("stale-max-age", *staleMaxAge, time.Second)
		cfg.MapRefreshSeconds = whole("map-refresh", *mapRefresh, time.Second)
		cfg.BalanceFactor = *balanceFactor
	}
	if *adminAddr != "" {
		cfg.AdminAddr = *adminAddr
	}
	if *mapmakerAddr != "" {
		cfg.Mode = config.ModeReplica
		cfg.MapMakerAddr = *mapmakerAddr
		cfg.MapFetchSeconds = whole("map-fetch", *mapFetch, time.Second)
	} else if *publisher {
		cfg.Mode = config.ModePublisher
	}
	if err == nil {
		err = cfg.Validate()
	}
	return
}
