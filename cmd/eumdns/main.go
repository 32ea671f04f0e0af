// Command eumdns runs a live authoritative DNS server for a synthetic CDN
// zone, answering A queries through the end-user mapping system over real
// UDP and TCP sockets. Query it with cmd/digecs (or any stub resolver that
// can set the EDNS0 client-subnet option).
//
//	eumdns -addr 127.0.0.1:5300
//	digecs -server 127.0.0.1:5300 -subnet 203.0.113.0/24 www.cdn.example.net
//
// Every setting — zone, policy, world, platform, serving and load knobs,
// hosted customer CNAMEs and low-level NS sites — comes from the JSON
// document named by -config (see internal/config), or from its defaults
// when there is none. The flags only say where the process listens (-addr,
// -admin) and, for a replica, which publisher it fetches maps from
// (-mapmaker-addr, every -map-fetch); every other process builds its own
// map and, with -admin, publishes it to replicas. When the config lists sites,
// eumdns serves the two-level Figure 3 hierarchy: this process is the top
// level, delegating to the listed low-level sites.
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

	// Control plane. A building node generates the world and platform,
	// builds the first map here and runs a background MapMaker republishing
	// it on a cadence; with an admin listener it also publishes each map to
	// whichever replicas ask for it.
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
	if cfg.MapMakerAddr != "" {
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
		pub = mapdist.NewPublisher(system, platform, mapdist.PublisherConfig{})
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
	// counters, served over a separate admin HTTP listener, and a low-rate
	// self-probe exercising the full socket path through a real DNS client.
	if cfg.AdminAddr != "" {
		reg := telemetry.NewRegistry()
		probe := &dnsclient.Client{}
		registerAll(reg, system, srv, auth, mm, probe)
		if fetcher != nil {
			fetcher.RegisterMetrics(reg)
		}
		if pub != nil {
			pub.RegisterMetrics(reg)
			log.Printf("publisher: serving snapshots at %s%s", cfg.AdminAddr, mapdist.SnapshotPath)
		}
		platform.RegisterLoadMetrics(reg)
		mux := newAdminMux(adminState{
			reg: reg, system: system, mm: mm, auth: auth,
			fetcher: fetcher, pub: pub, blocks: index.V4.Len() + index.V6.Len(),
			platform: platform, balance: cfg.BalanceFactor,
		})
		go func() {
			log.Printf("admin HTTP on %s (/metrics /healthz /mapz /debug/pprof)", cfg.AdminAddr)
			if err := http.ListenAndServe(cfg.AdminAddr, mux); err != nil {
				log.Printf("admin listener: %v", err)
			}
		}()
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
		// config.Validate bounds the index by platform.deployments, which
		// a replica ignores: check it against the roster this node serves.
		if s.DeploymentIndex < 0 || s.DeploymentIndex >= len(platform.Deployments) {
			return nil, nil, "", fmt.Errorf("site %s: deployment_index %d is outside the %d deployments this node serves", s.Host, s.DeploymentIndex, len(platform.Deployments))
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
// process runs with. Every setting comes from the -config document, or from
// config.Default() when none is named; the flags only say where the process
// listens and, for a replica, where it fetches maps from, and apply on top.
func loadConfig(fs *flag.FlagSet, args []string) (cfg config.Config, addr string, verbose bool, err error) {
	fs.StringVar(&addr, "addr", "127.0.0.1:5300", "UDP+TCP listen address")
	adminAddr := fs.String("admin", "",
		"admin HTTP listen address for /metrics, /healthz, /mapz and /debug/pprof (empty keeps the document's admin_addr; none by default)")
	configPath := fs.String("config", "", "JSON config document (see internal/config) holding every other setting; empty runs the defaults")
	mapmakerAddr := fs.String("mapmaker-addr", "",
		"make this process a replica: fetch maps from this MapMaker admin address instead of building locally")
	mapFetch := fs.Duration("map-fetch", 0,
		"replica only: map fetch cadence against the MapMaker, in whole seconds (unset keeps the document's map_fetch_seconds, default 5s)")
	fs.BoolVar(&verbose, "verbose", false, "log every query (structured JSON on stderr)")
	if err = fs.Parse(args); err != nil {
		return
	}

	cfg = config.Default()
	if *configPath != "" {
		if cfg, err = config.Load(*configPath); err != nil {
			return
		}
	}
	if *adminAddr != "" {
		cfg.AdminAddr = *adminAddr
	}
	if *mapmakerAddr != "" {
		cfg.MapMakerAddr = *mapmakerAddr
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "map-fetch" {
			return
		}
		// map_fetch_seconds is a whole-second integer where 0 means the
		// default: refuse a cadence that would truncate to it.
		cfg.MapFetchSeconds = int(*mapFetch / time.Second)
		if cfg.MapMakerAddr == "" {
			err = fmt.Errorf("-map-fetch %v: only a replica fetches maps; add -mapmaker-addr, or mapmaker_addr in the -config document", *mapFetch)
		} else if cfg.MapFetchSeconds == 0 && *mapFetch != 0 {
			err = fmt.Errorf("-map-fetch %v: the flag is counted in whole units of %v and would truncate to 0", *mapFetch, time.Second)
		}
	})
	if err == nil {
		err = cfg.Validate()
	}
	return
}
