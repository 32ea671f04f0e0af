package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"eum/internal/cdn"
	"eum/internal/demand"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/par"
	"eum/internal/rum"
	"eum/internal/stats"
	"eum/internal/world"
)

// The roll-out's fixed inputs: the paper's switch-over window, when public
// resolver sites move to end-user mapping (Mar 28 - Apr 15 2014), the seed
// of the enable dates and the beacon stream, and the content catalogue's
// size and Zipf exponent.
var (
	rolloutStart = time.Date(2014, 3, 28, 0, 0, 0, 0, time.UTC)
	rolloutEnd   = time.Date(2014, 4, 15, 0, 0, 0, 0, time.UTC)
)

const (
	rolloutSeed      = 1
	rolloutDomains   = 200
	rolloutZipfAlpha = 1
)

// rolloutConfig parameterises the roll-out performance simulation.
type rolloutConfig struct {
	// Start..End is the measurement period (paper: Jan 1 - Jun 30 2014).
	Start, End time.Time
	// DailyMeasurements is the RUM beacon count on the first day; volume
	// grows linearly to ~1.75x by the last day (Fig 12's rising trend).
	DailyMeasurements int
}

// defaultRolloutConfig mirrors the paper's timeline.
func defaultRolloutConfig() rolloutConfig {
	return rolloutConfig{
		Start:             time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
		End:               time.Date(2014, 6, 30, 0, 0, 0, 0, time.UTC),
		DailyMeasurements: 600,
	}
}

// groupSeries is a metric's time series split into the paper's two country
// groups (§4.1.1).
type groupSeries struct {
	High stats.TimeSeries // countries where EU mapping should help most
	Low  stats.TimeSeries
}

// series selects the group's series.
func (g *groupSeries) series(high bool) *stats.TimeSeries {
	if high {
		return &g.High
	}
	return &g.Low
}

// merge appends the other group's observations (shard-ordered reduction).
func (g *groupSeries) merge(o *groupSeries) {
	g.High.Merge(&o.High)
	g.Low.Merge(&o.Low)
}

// rolloutResult holds the four §4.1 metrics for qualified clients (those
// using public resolvers) over the simulation period.
type rolloutResult struct {
	MappingDistance groupSeries // miles
	RTT             groupSeries // ms
	TTFB            groupSeries // ms
	Download        groupSeries // ms
}

// beforeAfter returns the demand-weighted datasets of a metric before the
// roll-out started and after it completed, for the CDF figures.
func beforeAfter(g *groupSeries, high bool) (before, after *stats.Dataset) {
	s := g.series(high)
	return s.Window(time.Time{}, rolloutStart),
		s.Window(rolloutEnd, rolloutEnd.AddDate(100, 0, 0))
}

// runRollout simulates the roll-out: RUM measurements from clients of
// public resolvers are generated every simulated day; each public resolver
// site flips to ECS (and hence end-user mapping) at a date drawn from the
// roll-out window. The mapping system runs the EndUser policy throughout —
// exactly as deployed, the client-specific path only activates for queries
// that carry ECS.
func runRollout(w *world.World, p *cdn.Platform, net *netmodel.Model, cfg rolloutConfig) (*rolloutResult, error) {
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("experiments: empty roll-out period %v..%v", cfg.Start, cfg.End)
	}
	catalogue := demand.MustNewCatalogue(rolloutDomains, rolloutZipfAlpha, rolloutSeed)
	rng := rand.New(rand.NewSource(rolloutSeed))

	// The paper measures 8K ping targets on behalf of 3.76M blocks (~0.2%
	// coverage); 4% of blocks keeps mapping realistically imperfect.
	sys := mapping.NewSystem(w, p, net, mapping.Config{Policy: mapping.EndUser, PingTargets: len(w.Blocks) / 25})
	up := &systemUpstream{sys: sys, snap: sys.Current()}

	// Per-site enable days, drawn up front so the schedule does not depend
	// on how the day loop is executed.
	enableAt := map[uint64]time.Time{}
	var public []*world.LDNS
	window := rolloutEnd.Sub(rolloutStart)
	for _, l := range w.LDNSes {
		if !l.IsPublic() {
			continue
		}
		public = append(public, l)
		if !l.SupportsECS {
			// No-ECS providers never flip; they have no enable date.
			continue
		}
		enableAt[l.ID] = rolloutStart.Add(time.Duration(rng.Int63n(int64(window))))
	}

	depByAddr := deploymentsByAddr(p)
	sampler, err := demand.NewSampler(w, func(b *world.ClientBlock) bool { return b.LDNS.IsPublic() })
	if err != nil {
		return nil, err
	}
	highExp := rum.HighExpectationCountries(w)
	rumModel := rum.NewModel(net)

	totalDays := int(cfg.End.Sub(cfg.Start).Hours() / 24)

	// runDay simulates one day's RUM beacons into a private result. Days are
	// independent: each gets a child RNG derived from (seed, day) and fresh
	// public-site resolvers, pre-set to the site's ECS state at dawn. The
	// beacon spacing (minutes) far exceeds the answer TTL (seconds), so
	// cached answers never carry between measurements anyway and fresh
	// per-day caches change nothing. Every day reads the one map published
	// before the first, so parallel day shards all see the same epoch.
	runDay := func(day int) (*rolloutResult, error) {
		dayRes := &rolloutResult{}
		dayStart := cfg.Start.AddDate(0, 0, day)
		dayRNG := rand.New(rand.NewSource(par.ChildSeed(rolloutSeed, uint64(day))))
		resolvers, err := newFleet(public, up, func(l *world.LDNS) bool {
			return l.SupportsECS && !dayStart.Before(enableAt[l.ID])
		}, 0, 0)
		if err != nil {
			return nil, err
		}
		// Volume grows ~1.75x across the period (Fig 12).
		grow := 1 + 0.75*float64(day)/float64(totalDays)
		n := int(float64(cfg.DailyMeasurements) * grow)
		for i := 0; i < n; i++ {
			now := dayStart.Add(time.Duration(i) * (24 * time.Hour / time.Duration(n+1)))
			blk := sampler.Sample(dayRNG)
			dom := catalogue.Sample(dayRNG)
			ans, err := resolvers[blk.LDNS.ID].Query(now, dom.Name, hostInBlock(blk))
			if err != nil {
				return nil, fmt.Errorf("experiments: roll-out day %d: %w", day, err)
			}
			dep := depByAddr[ans.Servers[0]]
			if dep == nil {
				return nil, fmt.Errorf("experiments: answer %v is not a platform server", ans.Servers[0])
			}
			m := rumModel.Measure(now, blk, dom, dep, uint64(day))
			high := highExp[blk.Country.Code()]
			weight := blk.Demand
			dayRes.MappingDistance.series(high).Add(now, m.MappingDistance, weight)
			dayRes.RTT.series(high).Add(now, m.RTTMs, weight)
			dayRes.TTFB.series(high).Add(now, m.TTFBMs, weight)
			dayRes.Download.series(high).Add(now, m.DownloadMs, weight)
		}
		return dayRes, nil
	}

	type dayPart struct {
		r   *rolloutResult
		err error
	}
	parts := par.Map(totalDays, func(day int) dayPart {
		r, err := runDay(day)
		return dayPart{r, err}
	})
	res := &rolloutResult{}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		res.MappingDistance.merge(&p.r.MappingDistance)
		res.RTT.merge(&p.r.RTT)
		res.TTFB.merge(&p.r.TTFB)
		res.Download.merge(&p.r.Download)
	}
	return res, nil
}

// RolloutReports reproduces Figs 12-20 from one run of the roll-out
// simulation: the RUM volume per month (Fig 12), then for each §4.1 metric
// its before/after percentiles by expectation group (Figs 13/14 mapping
// distance, 15/16 RTT, 17/18 TTFB, 19/20 download time).
func RolloutReports(lab *Lab, scale Scale) ([]*Report, error) {
	cfg := defaultRolloutConfig()
	if scale == Small {
		cfg.Start = time.Date(2014, 2, 20, 0, 0, 0, 0, time.UTC)
		cfg.End = time.Date(2014, 5, 20, 0, 0, 0, 0, time.UTC)
		cfg.DailyMeasurements = 120
	}
	res, err := runRollout(lab.World, lab.Platform, lab.Net, cfg)
	if err != nil {
		return nil, err
	}
	return []*Report{
		rumVolumeReport(res),
		metricReport("fig13-14", "Mapping distance", "miles", &res.MappingDistance),
		metricReport("fig15-16", "RTT", "ms", &res.RTT),
		metricReport("fig17-18", "TTFB", "ms", &res.TTFB),
		metricReport("fig19-20", "Content download time", "ms", &res.Download),
	}, nil
}

// metricReport builds the paired timeline (odd figures 13,15,17,19) and
// before/after CDF summary (even figures 14,16,18,20) for one metric.
func metricReport(id, name, unit string, g *groupSeries) *Report {
	rep := &Report{
		ID:      id,
		Caption: fmt.Sprintf("%s (%s): daily means and before/after percentiles", name, unit),
		Columns: []string{"series", "mean", "p25", "p50", "p75", "p95"},
	}
	for _, grp := range []struct {
		label string
		high  bool
	}{{"high", true}, {"low", false}} {
		before, after := beforeAfter(g, grp.high)
		for _, phase := range []struct {
			label string
			d     *stats.Dataset
		}{{"before", before}, {"after", after}} {
			rep.Rows = append(rep.Rows, row(
				fmt.Sprintf("%s-exp %s", grp.label, phase.label),
				phase.d.Mean(), phase.d.Percentile(25), phase.d.Percentile(50),
				phase.d.Percentile(75), phase.d.Percentile(95)))
		}
	}
	return rep
}

// rumVolumeReport is the Fig 12 report: RUM measurements per month by
// expectation group.
func rumVolumeReport(res *rolloutResult) *Report {
	rep := &Report{
		ID:      "fig12",
		Caption: "RUM measurements per month (weighted volume, high/low expectation)",
		Columns: []string{"month", "high", "low"},
	}
	high := res.RTT.High.MonthlyMeans()
	low := res.RTT.Low.MonthlyMeans()
	lowByMonth := map[string]float64{}
	for _, p := range low {
		lowByMonth[p.Start.Format("2006-01")] = p.Weight
	}
	for _, p := range high {
		m := p.Start.Format("2006-01")
		rep.Rows = append(rep.Rows, row(m, p.Weight, lowByMonth[m]))
	}
	return rep
}
