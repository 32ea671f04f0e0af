package authority

import (
	"time"

	"eum/internal/telemetry"
)

// RegisterMetrics wires the authority's live counters, map-snapshot
// gauges and a mapping-decision latency histogram into reg under the
// authority_ namespace. Counters are the atomics the serving path already
// increments; the gauges read the published snapshot (one atomic pointer
// load each) at scrape time. Call before serving begins — the latency
// histogram field is not synchronised against concurrent queries.
func (a *Authority) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("authority_queries_total",
		"Well-formed in-zone queries.", a.TotalQueries.Load)
	reg.Counter("authority_ecs_queries_total",
		"Queries carrying a client-subnet option.", a.ECSQueries.Load)
	reg.Counter("authority_ecs_formerr_total",
		"Queries refused with FORMERR for RFC 7871 ECS violations.", a.ECSFormErrs.Load)
	reg.Counter("authority_stale_answers_total",
		"Answers served past StaleAfter with a clamped TTL.", a.StaleAnswers.Load)
	reg.Counter("authority_fallback_answers_total",
		"Answers served from the snapshot's fallback tables.", a.FallbackAnswers.Load)
	reg.Counter("authority_degrade_servfails_total",
		"Queries refused because the map aged past ServfailAfter.", a.DegradeServfails.Load)
	reg.Gauge("authority_map_epoch",
		"Epoch of the currently published map snapshot.", func() float64 {
			return float64(a.system.Current().Epoch())
		})
	reg.Gauge("authority_map_age_seconds",
		"Age of the last successful map publish.", func() float64 {
			return time.Duration(time.Now().UnixNano() - a.system.PublishedAtNanos()).Seconds()
		})
	reg.Gauge("authority_degrade_level",
		"Degradation-ladder rung (0 fresh, 1 stale, 2 fallback, 3 servfail).",
		func() float64 { return float64(a.Degradation()) })
	a.decisionLatency = reg.Histogram("authority_decision_latency_seconds",
		"Mapping-decision latency (snapshot load, degradation rung, MapAt).")
}
