package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
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
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/telemetry"
	"eum/internal/world"
)

// TestObsSmoke boots the full in-process stack — world, platform, mapping
// system, MapMaker, authority, live UDP server — wires every subsystem into
// one telemetry registry, serves one real DNS query through a real client,
// then scrapes the admin endpoints exactly as an operator (or `make obs`)
// would. It is the acceptance check that /metrics aggregates counters from
// all five instrumented packages a standalone node registers: dnsserver,
// authority, mapping, mapmaker and dnsclient.
func TestObsSmoke(t *testing.T) {
	cfg := config.Default()
	cfg.World.Blocks = 800
	cfg.Platform.Deployments = 60

	w := world.MustGenerate(world.Config{Seed: cfg.World.Seed, NumBlocks: cfg.World.Blocks})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{
		Seed: cfg.Platform.Seed, NumDeployments: cfg.Platform.Deployments,
	})
	system := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapping.Config{
		Policy: mapping.EndUser, PingTargets: 80,
	})
	mm := mapmaker.New(system, mapmaker.Config{})
	handler, auth, _, err := buildHandler(cfg, system, platform)
	if err != nil {
		t.Fatal(err)
	}
	if auth == nil {
		t.Fatal("flat config did not yield an authority")
	}
	srv, err := dnsserver.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	probe := &dnsclient.Client{}
	registerAll(reg, system, srv, auth, mm, probe)
	go func() { _ = srv.Serve() }()

	// Populate the planes: one map publish and one real DNS query (with
	// ECS) through the self-probe client over the live socket.
	mm.Publish()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	block := w.Blocks[10]
	resp, err := probe.Lookup(ctx, srv.Addr().String(),
		dnsmsg.Name("www.b."+cfg.Zone), dnsmsg.TypeA, block.Prefix)
	if err != nil {
		t.Fatalf("self-probe query: %v", err)
	}
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("self-probe answer: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}

	admin := httptest.NewServer(newAdminMux(adminState{
		reg: reg, system: system, mm: mm, auth: auth, blocks: cfg.World.Blocks,
	}))
	defer admin.Close()

	// /metrics must expose at least one metric from each instrumented
	// package, with live values behind them.
	body := get(t, admin.URL+"/metrics", http.StatusOK)
	for _, want := range []string{
		"dnsserver_queries_total",         // internal/dnsserver
		"dnsserver_serve_latency_seconds", // hot-path histogram
		"authority_queries_total",         // internal/authority
		"authority_decision_latency_seconds",
		"authority_map_epoch",
		"mapping_tail_picks_total 0", // internal/mapping: the healthy platform decides in the head
		"mapmaker_published_total",   // internal/mapmaker
		"selfprobe_attempts_total",   // internal/dnsclient
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(body, "dnsserver_queries_total 1") {
		t.Errorf("served query not counted:\n%s", firstLines(body, 20))
	}
	if !strings.Contains(body, "selfprobe_attempts_total 1") {
		t.Error("self-probe attempt not counted")
	}

	// /healthz reflects the (fresh) ladder rung.
	if body := get(t, admin.URL+"/healthz", http.StatusOK); !strings.Contains(body, "degrade=fresh") {
		t.Errorf("/healthz = %q, want fresh", body)
	}

	// /mapz describes the installed snapshot, including the build/storage
	// statistics an operator checks when resident memory looks wrong.
	var mapz struct {
		Epoch          uint64 `json:"epoch"`
		Policy         string `json:"policy"`
		PublishedTotal uint64 `json:"published_total"`
		Degrade        string `json:"degrade"`
		Build          *struct {
			Partitions    int     `json:"partitions"`
			Tables        int     `json:"tables"`
			TableLen      int     `json:"table_len"`
			Tails         int     `json:"tails"`
			TailLen       int     `json:"tail_len"`
			ArenaChain    int     `json:"arena_chain"`
			ResidentBytes uint64  `json:"resident_bytes"`
			BytesPerBlock float64 `json:"bytes_per_block"`
			FullBuilds    uint64  `json:"full_builds"`
		} `json:"build"`
		Sync *struct{} `json:"sync"`
	}
	if err := json.Unmarshal([]byte(get(t, admin.URL+"/mapz", http.StatusOK)), &mapz); err != nil {
		t.Fatal(err)
	}
	if mapz.Epoch == 0 || mapz.Policy == "" || mapz.PublishedTotal == 0 || mapz.Degrade != "fresh" {
		t.Errorf("/mapz = %+v", mapz)
	}
	if b := mapz.Build; b == nil {
		t.Error("/mapz missing the build section")
	} else if b.Partitions == 0 || b.Tables == 0 || b.ArenaChain == 0 ||
		b.ResidentBytes == 0 || b.BytesPerBlock <= 0 || b.FullBuilds == 0 {
		t.Errorf("/mapz build = %+v", b)
	} else if b.TableLen != 32 || b.TailLen != cfg.Platform.Deployments || b.Tails == 0 || b.Tails > b.Tables {
		// 60 deployments: heads of 32, tails ranking all 60.
		t.Errorf("/mapz row geometry = heads of %d, %d tails of %d", b.TableLen, b.Tails, b.TailLen)
	}
	if mapz.Sync != nil {
		t.Error("/mapz grew a sync section on a building node")
	}

	// pprof rides along on the same mux.
	get(t, admin.URL+"/debug/pprof/cmdline", http.StatusOK)
}

// TestAdminDistRoles exercises the admin plane in the two distribution
// roles: a building node's mux must serve wire images at
// /mapdist/snapshot that a replica boots from, and a replica's /mapz —
// with no local MapMaker at all — must report its sync status instead of
// panicking on the missing control plane.
func TestAdminDistRoles(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 13, NumBlocks: 400})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 13, NumDeployments: 40})
	mapCfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 40}

	pubSys := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapCfg)
	pub := mapdist.NewPublisher(pubSys, platform, mapdist.PublisherConfig{})
	pubAdmin := httptest.NewServer(newAdminMux(adminState{
		reg: telemetry.NewRegistry(), system: pubSys,
		mm:  mapmaker.New(pubSys, mapmaker.Config{}),
		pub: pub, blocks: 400,
	}))
	defer pubAdmin.Close()

	// A fresh building node counts the map it serves, NewSystem's first.
	var pubMapz struct {
		Epoch          uint64 `json:"epoch"`
		PublishedTotal uint64 `json:"published_total"`
	}
	if err := json.Unmarshal([]byte(get(t, pubAdmin.URL+"/mapz", http.StatusOK)), &pubMapz); err != nil {
		t.Fatal(err)
	}
	if pubMapz.Epoch != 1 || pubMapz.PublishedTotal < 1 {
		t.Errorf("fresh building node /mapz: epoch %d, published_total %d; want epoch 1 counted", pubMapz.Epoch, pubMapz.PublishedTotal)
	}

	// The building node's admin mux serves a decodable full image.
	img := get(t, pubAdmin.URL+mapdist.SnapshotPath+"?have=0", http.StatusOK)
	if h, err := mapwire.ParseHeader([]byte(img)); err != nil || h.Epoch != pubSys.Current().Epoch() {
		t.Fatalf("published image header %+v, err=%v", h, err)
	}

	// A replica holds no world and builds nothing: it boots from the
	// publisher's full image, and serves it fresh.
	fetcher, err := mapdist.Boot(context.Background(), mapdist.FetcherConfig{
		Source: strings.TrimPrefix(pubAdmin.URL, "http://"),
	}, mapCfg)
	if err != nil {
		t.Fatal(err)
	}
	repSys := fetcher.System()
	repAuth, err := authority.New("cdn.example.net", repSys)
	if err != nil {
		t.Fatal(err)
	}
	repAuth.SetDegradeConfig(config.Default().DegradeConfig())
	repReg := telemetry.NewRegistry()
	repAuth.RegisterMetrics(repReg)
	repAdmin := httptest.NewServer(newAdminMux(adminState{
		reg: repReg, system: repSys, auth: repAuth,
		fetcher: fetcher, blocks: 400,
	}))
	defer repAdmin.Close()
	if body := get(t, repAdmin.URL+"/healthz", http.StatusOK); !strings.Contains(body, "degrade=fresh") {
		t.Errorf("synced replica /healthz = %q", body)
	}

	var mapz struct {
		Epoch          uint64 `json:"epoch"`
		PublishedTotal uint64 `json:"published_total"`
		Build          struct {
			FullBuilds        uint64 `json:"full_builds"`
			IncrementalBuilds uint64 `json:"incremental_builds"`
			ResidentBytes     uint64 `json:"resident_bytes"`
			SnapshotBytes     uint64 `json:"snapshot_bytes"`
			IndexBytes        uint64 `json:"index_bytes"`
		} `json:"build"`
		Sync *struct {
			Source         string `json:"source"`
			InstalledEpoch uint64 `json:"installed_epoch"`
			EpochLag       uint64 `json:"epoch_lag"`
			FullImages     uint64 `json:"full_images"`
		} `json:"sync"`
	}
	if err := json.Unmarshal([]byte(get(t, repAdmin.URL+"/mapz", http.StatusOK)), &mapz); err != nil {
		t.Fatal(err)
	}
	if mapz.PublishedTotal != 0 ||
		mapz.Build.FullBuilds != 0 || mapz.Build.IncrementalBuilds != 0 {
		t.Errorf("replica /mapz = %+v", mapz)
	}
	if s := mapz.Sync; s == nil {
		t.Fatal("replica /mapz missing the sync section")
	} else if s.Source == "" || s.InstalledEpoch != pubSys.Current().Epoch() ||
		s.EpochLag != 0 || s.FullImages != 1 {
		t.Errorf("replica /mapz sync = %+v", s)
	}
	if mapz.Epoch != pubSys.Current().Epoch() {
		t.Errorf("replica serves epoch %d, publisher at %d", mapz.Epoch, pubSys.Current().Epoch())
	}
	// Both roles show the heap split.
	repBuild := mapz.Build
	if err := json.Unmarshal([]byte(get(t, pubAdmin.URL+"/mapz", http.StatusOK)), &mapz); err != nil {
		t.Fatal(err)
	}
	for role, b := range map[string]struct{ resident, snapshot, index uint64 }{
		"publisher": {mapz.Build.ResidentBytes, mapz.Build.SnapshotBytes, mapz.Build.IndexBytes},
		"replica":   {repBuild.ResidentBytes, repBuild.SnapshotBytes, repBuild.IndexBytes},
	} {
		if b.snapshot == 0 || b.index == 0 || b.resident != b.snapshot+b.index {
			t.Errorf("%s /mapz build: resident %d B, snapshot %d B, index %d B", role, b.resident, b.snapshot, b.index)
		}
	}

	// A replica's mux must not serve snapshots (no publisher mounted).
	get(t, repAdmin.URL+mapdist.SnapshotPath, http.StatusNotFound)
}

// TestReplicaTopLevel: a replica serves the top level from the map it
// fetched. Booted from a publisher in-process, with sites in its config, it
// refers every world LDNS to the site a standalone top level over the
// publisher's map picks — over a live socket too — and refuses, by name, a
// site whose deployment_index is past the roster it fetched.
func TestReplicaTopLevel(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 13, NumBlocks: 400})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 13, NumDeployments: 40})
	mapCfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 40}
	pubSys := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapCfg)
	pubAdmin := httptest.NewServer(newAdminMux(adminState{
		reg: telemetry.NewRegistry(), system: pubSys,
		pub:    mapdist.NewPublisher(pubSys, platform, mapdist.PublisherConfig{}),
		blocks: 400,
	}))
	defer pubAdmin.Close()
	fetcher, err := mapdist.Boot(context.Background(), mapdist.FetcherConfig{
		Source: strings.TrimPrefix(pubAdmin.URL, "http://"),
	}, mapCfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg := config.Default()
	for i, d := range []int{0, 9, 17, 26, 39} {
		cfg.Sites = append(cfg.Sites, config.SiteConfig{
			Host: fmt.Sprintf("n%d.ns.cdn.example.net", i), Addr: fmt.Sprintf("10.0.0.%d", i+1), DeploymentIndex: d,
		})
	}
	standalone, _, _, err := buildHandler(cfg, pubSys, platform)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MapMakerAddr = strings.TrimPrefix(pubAdmin.URL, "http://")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	replica, _, described, err := buildHandler(cfg, fetcher.System(), fetcher.Platform())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(described, "top-level authority") {
		t.Fatalf("a replica with sites serves %q", described)
	}

	glue := func(h dnsserver.Handler, from netip.Addr) netip.Addr {
		t.Helper()
		resp := h.ServeDNS(netip.AddrPortFrom(from, 53), dnsmsg.NewQuery(7, "x.b.cdn.example.net", dnsmsg.TypeA))
		if len(resp.Additionals) != 1 {
			t.Fatalf("no referral for %v: rcode %v", from, resp.RCode)
		}
		return resp.Additionals[0].Data.(*dnsmsg.A).Addr
	}
	spread := map[netip.Addr]bool{}
	for _, l := range w.LDNSes {
		want := glue(standalone, l.Addr)
		if got := glue(replica, l.Addr); got != want {
			t.Errorf("LDNS %v: the replica refers to %v, the standalone to %v", l.Addr, got, want)
		}
		spread[want] = true
	}
	if len(spread) < 2 {
		t.Errorf("every LDNS referred to one of %d sites", len(cfg.Sites))
	}

	srv, err := dnsserver.Listen("127.0.0.1:0", replica)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() { _ = srv.Serve() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := (&dnsclient.Client{}).Exchange(ctx, srv.Addr().String(), dnsmsg.NewQuery(8, "x.b.cdn.example.net", dnsmsg.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if want := glue(standalone, netip.MustParseAddr("127.0.0.1")); len(resp.Additionals) != 1 || resp.Additionals[0].Data.(*dnsmsg.A).Addr != want {
		t.Errorf("referral over UDP = %v, the standalone refers 127.0.0.1 to %v", resp, want)
	}

	// Validate cannot bound a replica's sites; buildHandler checks them
	// against the roster the replica fetched.
	cfg.Sites = append(cfg.Sites, config.SiteConfig{Host: "far.ns.cdn.example.net", Addr: "10.0.1.1", DeploymentIndex: len(platform.Deployments)})
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildHandler(cfg, fetcher.System(), fetcher.Platform()); err == nil || !strings.Contains(err.Error(), "far.ns.cdn.example.net") {
		t.Errorf("a site past the fetched roster: err = %v, want one naming the site", err)
	}
}

// TestHealthzDegraded checks the load-balancer contract: once the
// degradation ladder passes serve-stale, /healthz flips to 503 so traffic
// drains to healthier name servers.
func TestHealthzDegraded(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 3, NumBlocks: 400})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 3, NumDeployments: 40})
	system := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapping.Config{PingTargets: 40})
	mm := mapmaker.New(system, mapmaker.Config{})
	a, err := authority.New("cdn.example.net", system)
	if err != nil {
		t.Fatal(err)
	}
	a.SetDegradeConfig(authority.DegradeConfig{
		StaleAfter:    time.Millisecond,
		FallbackAfter: 2 * time.Millisecond,
		ServfailAfter: time.Hour,
	})
	time.Sleep(30 * time.Millisecond) // let the map age past FallbackAfter

	st := adminState{reg: telemetry.NewRegistry(), system: system, mm: mm, auth: a}
	rec := httptest.NewRecorder()
	st.healthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "degrade=fallback") {
		t.Errorf("degraded /healthz body = %q", rec.Body.String())
	}

	// Falling back to replica state discards the map: epoch 0 reads
	// fallback even on an authority whose watchdog is not armed.
	system.BootstrapReplica()
	a.SetDegradeConfig(authority.DegradeConfig{})
	rec = httptest.NewRecorder()
	st.healthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "degrade=fallback map_epoch=0") {
		t.Errorf("epoch-0 /healthz = %d %q, want 503 fallback", rec.Code, rec.Body.String())
	}
}

// TestMapzLoadSection checks the load view of /mapz: present exactly when
// the balance factor is on, carrying the factor and the per-deployment
// utilisation of loaded deployments and nothing else; and the matching
// per-deployment gauges appear on /metrics.
func TestMapzLoadSection(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 3, NumBlocks: 400})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 3, NumDeployments: 40})
	system := mapping.NewSystem(w, platform, netmodel.NewDefault(),
		mapping.Config{PingTargets: 40, BalanceFactor: 2})
	mm := mapmaker.New(system, mapmaker.Config{})

	hot := platform.Deployments[0]
	hot.Servers[0].AddLoad(3)

	st := adminState{
		reg: telemetry.NewRegistry(), system: system, mm: mm,
		platform: platform, balance: 2, blocks: 400,
	}
	rec := httptest.NewRecorder()
	st.mapz(rec, httptest.NewRequest(http.MethodGet, "/mapz", nil))
	var doc struct {
		Load *struct {
			BalanceFactor float64            `json:"balance_factor"`
			Utilisation   map[string]float64 `json:"utilisation"`
		} `json:"load"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Load == nil || doc.Load.BalanceFactor != 2 {
		t.Fatalf("/mapz load section = %+v", doc.Load)
	}
	var keys struct {
		Load map[string]json.RawMessage `json:"load"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys.Load {
		if k != "balance_factor" && k != "utilisation" {
			t.Errorf("/mapz load section carries %q, want only balance_factor and utilisation", k)
		}
	}
	if u := doc.Load.Utilisation[hot.Name]; u <= 0 {
		t.Errorf("loaded deployment %s utilisation = %g, want > 0", hot.Name, u)
	}
	if len(doc.Load.Utilisation) != 1 {
		t.Errorf("utilisation lists %d deployments, want only the loaded one", len(doc.Load.Utilisation))
	}

	// Balance off: no load section.
	st.balance = 0
	rec = httptest.NewRecorder()
	st.mapz(rec, httptest.NewRequest(http.MethodGet, "/mapz", nil))
	if strings.Contains(rec.Body.String(), `"load"`) {
		t.Error("/mapz carries a load section with balance_factor 0")
	}

	// The per-deployment gauge reaches /metrics through the registry.
	platform.RegisterLoadMetrics(st.reg)
	rec = httptest.NewRecorder()
	st.reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "cdn_deployment_utilisation_") {
		t.Error("/metrics missing cdn_deployment_utilisation_")
	}
}

func get(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, wantCode, body)
	}
	return string(body)
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
