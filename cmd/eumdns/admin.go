package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"time"

	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapdist"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
	"eum/internal/telemetry"
)

// adminState is everything the admin HTTP endpoints report on. auth is nil
// when this process serves the two-level hierarchy: the top level delegates
// instead of mapping, so it has no degradation ladder of its own. mm is
// nil on replicas (no local control plane); fetcher is non-nil only on
// replicas; pub is non-nil only in publisher mode.
type adminState struct {
	reg     *telemetry.Registry
	system  *mapping.System
	mm      *mapmaker.MapMaker
	auth    *authority.Authority
	fetcher *mapdist.Fetcher
	pub     *mapdist.Publisher
	mode    string
	blocks  int
	// platform and balance feed the /mapz load section.
	platform *cdn.Platform
	balance  float64
}

// newAdminMux builds the admin HTTP surface: /metrics (Prometheus text, or
// JSON via ?format=json), /healthz keyed off the degradation ladder, /mapz
// describing the installed map snapshot, and the standard pprof endpoints.
func newAdminMux(st adminState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", st.reg.Handler())
	mux.HandleFunc("/healthz", st.healthz)
	mux.HandleFunc("/mapz", st.mapz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if st.pub != nil {
		mux.Handle(mapdist.SnapshotPath, st.pub)
	}
	return mux
}

// healthz answers 200 while the authority can still give useful answers
// (fresh or serve-stale) and 503 once the ladder reaches fallback or
// SERVFAIL — the shape a load balancer health check wants, so traffic
// drains to healthier name servers exactly when the paper's degraded modes
// kick in.
func (st adminState) healthz(w http.ResponseWriter, _ *http.Request) {
	level := authority.DegradeFresh
	if st.auth != nil {
		level = st.auth.Degradation()
	}
	code := http.StatusOK
	status := "ok"
	if level >= authority.DegradeFallback {
		code = http.StatusServiceUnavailable
		status = "degraded"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "%s degrade=%s map_epoch=%d\n", status, level, st.system.Current().Epoch())
}

// mapzBuild is the /mapz view of the map's storage shape and the
// builder's work counters — the PR 7 scale machinery an operator checks
// when resident memory or republish latency looks wrong. A table keeps
// TableLen entries of its own ranking; past them a pick walks one of Tails
// shared rankings of TailLen deployments, which mapping_tail_picks_total
// on /metrics counts.
type mapzBuild struct {
	Partitions        int     `json:"partitions"`
	Tables            int     `json:"tables"`
	TableLen          int     `json:"table_len"`
	Tails             int     `json:"tails"`
	TailLen           int     `json:"tail_len"`
	ArenaChain        int     `json:"arena_chain"`
	Endpoints         int     `json:"endpoints"`
	ResidentBytes     uint64  `json:"resident_bytes"` // snapshot_bytes + index_bytes
	SnapshotBytes     uint64  `json:"snapshot_bytes"`
	IndexBytes        uint64  `json:"index_bytes"`
	RingBytes         uint64  `json:"ring_bytes"` // the load balancer's, outside resident_bytes
	BytesPerBlock     float64 `json:"bytes_per_block,omitempty"`
	FullBuilds        uint64  `json:"full_builds"`
	IncrementalBuilds uint64  `json:"incremental_builds"`
	RerankedTables    uint64  `json:"reranked_tables"`
	RerankedTails     uint64  `json:"reranked_tails"`
}

// mapzLoad is the /mapz view of load-aware picking: the balance factor in
// force and the instantaneous utilization the picker weighs, for every
// deployment currently carrying load.
type mapzLoad struct {
	BalanceFactor float64 `json:"balance_factor"`
	// Utilisation lists only deployments with non-zero load, so the
	// document stays small on an idle platform.
	Utilisation map[string]float64 `json:"utilisation,omitempty"`
}

// mapz describes the currently installed map snapshot as JSON: what an
// operator checks first when answers look wrong ("is the map fresh, and
// which epoch is serving?"). Replicas add their distribution sync status;
// every node adds the snapshot's build/storage statistics.
func (st adminState) mapz(w http.ResponseWriter, _ *http.Request) {
	snap := st.system.Current()
	doc := struct {
		Epoch          uint64              `json:"epoch"`
		Policy         string              `json:"policy"`
		Mode           string              `json:"mode,omitempty"`
		TTLSeconds     float64             `json:"ttl_seconds"`
		Tables         int                 `json:"tables"`
		PublishedAt    string              `json:"published_at"`
		AgeSeconds     float64             `json:"age_seconds"`
		PublishedTotal uint64              `json:"published_total"`
		BuildFailures  uint64              `json:"build_failures"`
		Degrade        string              `json:"degrade,omitempty"`
		Build          *mapzBuild          `json:"build,omitempty"`
		Load           *mapzLoad           `json:"load,omitempty"`
		Sync           *mapdist.SyncStatus `json:"sync,omitempty"`
	}{
		Epoch:      snap.Epoch(),
		Policy:     snap.Policy().String(),
		Mode:       st.mode,
		TTLSeconds: snap.TTL().Seconds(),
		Tables:     snap.Tables(),
	}
	if st.mm != nil {
		doc.PublishedTotal = st.mm.Published()
		doc.BuildFailures = st.mm.BuildFailures()
	}
	if ns := st.system.PublishedAtNanos(); ns > 0 {
		doc.PublishedAt = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
		doc.AgeSeconds = time.Since(time.Unix(0, ns)).Seconds()
	}
	if st.auth != nil {
		doc.Degrade = st.auth.Degradation().String()
	}
	lay := snap.Layout()
	b := &mapzBuild{
		Partitions:    snap.Partitions(),
		Tables:        snap.Tables(),
		TableLen:      lay.TableLen,
		Tails:         len(lay.TailSeg),
		TailLen:       lay.TailLen,
		ArenaChain:    snap.ArenaChainLen(),
		Endpoints:     snap.Endpoints(),
		SnapshotBytes: snap.MemoryBytes(),
		IndexBytes:    st.system.IndexBytes(),
		RingBytes:     st.system.LoadBalancer().RingBytes(),
	}
	b.ResidentBytes = b.SnapshotBytes + b.IndexBytes
	if st.blocks > 0 {
		b.BytesPerBlock = float64(b.ResidentBytes) / float64(st.blocks)
	}
	// A replica has no builder: its build counters stay 0.
	builder := st.system.Builder()
	if builder != nil {
		bs := builder.BuildStats()
		b.FullBuilds, b.IncrementalBuilds, b.RerankedTables, b.RerankedTails = bs.Full, bs.Incremental, bs.RerankedTables, bs.RerankedTails
	}
	doc.Build = b
	if st.balance > 0 {
		l := &mapzLoad{BalanceFactor: st.balance}
		if st.platform != nil {
			for _, d := range st.platform.Deployments {
				if d.Load() > 0 {
					if l.Utilisation == nil {
						l.Utilisation = map[string]float64{}
					}
					l.Utilisation[d.Name] = d.Utilisation()
				}
			}
		}
		doc.Load = l
	}
	if st.fetcher != nil {
		sync := st.fetcher.Status()
		doc.Sync = &sync
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// registerAll wires every subsystem's counters into one registry. Any nil
// component is skipped, so the flat and two-level deployments both work.
func registerAll(reg *telemetry.Registry, system *mapping.System, srv *dnsserver.Server, auth *authority.Authority,
	mm *mapmaker.MapMaker, mon *cdn.Monitor, probe *dnsclient.Client) {
	reg.Counter("mapping_tail_picks_total",
		"Mapping decisions the head of the rank row could not make: everything in it was dead or saturated and the walk went on into the region's shared tail.",
		system.LoadBalancer().TailPicks)
	if srv != nil {
		srv.RegisterMetrics(reg)
	}
	if auth != nil {
		auth.RegisterMetrics(reg)
	}
	if mm != nil {
		mm.RegisterMetrics(reg)
	}
	if mon != nil {
		mon.RegisterMetrics(reg)
	}
	if probe != nil {
		probe.Stats.Register(reg, "selfprobe")
	}
}

// runHealthMonitor drives the liveness monitor until ctx is cancelled. The
// monitor itself decides when a tick actually probes (its own interval).
func runHealthMonitor(ctx context.Context, mon *cdn.Monitor, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			mon.Tick(now)
		}
	}
}

// loadDecay is the time constant on which runLoadDecay drains the
// platform's demand counters.
const loadDecay = 30 * time.Second

// runLoadDecay decays the platform's cumulative demand counters toward
// zero on the loadDecay time constant, once per tick, until ctx is
// cancelled — turning the authority's per-answer demand increments into
// the rate-like utilization the load-aware picker weighs.
func runLoadDecay(ctx context.Context, p *cdn.Platform, every time.Duration) {
	decay := math.Exp(-float64(every) / float64(loadDecay))
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ScaleLoad(decay)
		}
	}
}

// runSelfProbe periodically resolves a name against this process's own
// listener through a real dnsclient — a blackbox check that the whole
// socket → serve loop → authority path stays live, feeding the selfprobe_*
// counters (attempts with no retries = healthy).
func runSelfProbe(ctx context.Context, c *dnsclient.Client, server string, name dnsmsg.Name, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, _ = c.Lookup(cctx, server, name, dnsmsg.TypeTXT, netip.Prefix{})
			cancel()
		}
	}
}
