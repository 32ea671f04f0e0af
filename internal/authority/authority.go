// Package authority implements the CDN's authoritative DNS name server
// behaviour (§2.2 component 3): it answers A queries for content domains
// under the CDN zone by asking the mapping system which servers the
// requesting client should use, honouring the EDNS0 client-subnet option
// end-to-end — reading the source prefix from the query and returning the
// answer's scope prefix in the response, exactly as Figure 4 traces. The
// name server applies the installed map to every query and keeps no
// answers of its own: caching per ECS scope is the recursive resolver's
// tier (RFC 7871 §7.3).
//
// It also serves the whoami diagnostic name the paper's NetSession
// measurement uses to discover a client's LDNS (§3.1): a TXT/A query for
// whoami.<zone> answers with the resolver address the query arrived from.
package authority

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/mapping"
	"eum/internal/telemetry"
)

// DegradeLevel is a rung on the authority's degradation ladder, derived
// from the age of the last successful map publish. The mapping system must
// never be the reason a user gets no answer (§2.2, §6): as the control
// plane falls further behind, the authority trades answer quality for
// availability, and only refuses service when the map is so old that any
// answer would be a guess about a world it no longer knows.
type DegradeLevel int32

const (
	// DegradeFresh: the map is within its staleness budget; serve normally.
	DegradeFresh DegradeLevel = iota
	// DegradeStale: the map missed its refresh cadence. Serve the last
	// good snapshot anyway, with the answer TTL clamped down (RFC 8767's
	// serve-stale posture) so clients re-query soon after recovery.
	DegradeStale
	// DegradeFallback: the map is old enough that per-client measurements
	// are distrusted; serve from the snapshot's generic fallback tables.
	DegradeFallback
	// DegradeServfail: the map is beyond salvage; answer SERVFAIL so
	// clients fail over to another authority.
	DegradeServfail
)

// String names the ladder rung.
func (l DegradeLevel) String() string {
	switch l {
	case DegradeFresh:
		return "fresh"
	case DegradeStale:
		return "stale"
	case DegradeFallback:
		return "fallback"
	case DegradeServfail:
		return "servfail"
	}
	return fmt.Sprintf("DegradeLevel(%d)", int32(l))
}

// DegradeConfig parameterises the staleness watchdog. The zero value
// disables it (the authority serves whatever snapshot is current forever).
// Thresholds are ages of the last successful snapshot publish.
type DegradeConfig struct {
	// StaleAfter enters serve-stale (clamped TTL). Deployments derive it
	// from the MapMaker cadence — a few missed refreshes, e.g. 3x
	// map_refresh_seconds. Zero disables the whole watchdog.
	StaleAfter time.Duration
	// FallbackAfter switches to the snapshot's fallback tables.
	// Default 4x StaleAfter.
	FallbackAfter time.Duration
	// ServfailAfter refuses service. Default 16x StaleAfter.
	ServfailAfter time.Duration
	// StaleTTL is the answer-TTL ceiling once degraded (default 5s).
	StaleTTL time.Duration
}

// withDefaults fills the derived thresholds.
func (c DegradeConfig) withDefaults() DegradeConfig {
	if c.StaleAfter <= 0 {
		return DegradeConfig{}
	}
	if c.FallbackAfter <= 0 {
		c.FallbackAfter = 4 * c.StaleAfter
	}
	if c.ServfailAfter <= 0 {
		c.ServfailAfter = 16 * c.StaleAfter
	}
	if c.StaleTTL <= 0 {
		c.StaleTTL = 5 * time.Second
	}
	return c
}

// errStaleMap aborts a mapping decision when the map aged past the ladder.
var errStaleMap = errors.New("authority: map too stale to serve")

// Authority answers DNS queries for one CDN zone using a mapping system.
// It implements dnsserver.Handler, keeps no per-query state and is safe
// for concurrent use.
//
// Every mapping answer is read from the installed map at the moment of the
// query (System.MapAt: block → table → rank row). Within one TTL a
// repeated query still gets the same servers, because the local load
// balancer ranks the picked deployment's servers by a hash of the domain.
type Authority struct {
	zone   dnsmsg.Name
	whoami dnsmsg.Name // the canonical WhoamiName
	system *mapping.System

	// nowNanos is the staleness watchdog's clock, overridable in tests.
	nowNanos func() int64

	// degrade is the staleness watchdog configuration (see DegradeConfig);
	// the zero value disables it. Set before serving begins.
	degrade DegradeConfig
	// answerDemand is the demand recorded against the picked server for
	// every mapping answer. Feeds the deployment load gauges load-aware
	// picks weigh; 0 disables accounting. Set before serving begins.
	answerDemand float64
	// epochDebug, when set, appends a TXT record carrying the decision's
	// snapshot epoch to every mapping answer, so transport-level tests can
	// verify end-to-end that each answer came from a map that was live
	// while the query was being served. Set before serving begins.
	epochDebug bool

	// decisionLatency, when non-nil, records the mapping-decision latency
	// (snapshot load, degradation rung, MapAt). Set by RegisterMetrics
	// before serving begins.
	decisionLatency *telemetry.Histogram

	// ECSQueries counts queries carrying a client-subnet option.
	ECSQueries atomic.Uint64
	// ECSFormErrs counts queries rejected with FORMERR because their ECS
	// option violated RFC 7871 §7.1.2 (non-zero address bits beyond the
	// source prefix, or a non-zero scope prefix in a query).
	ECSFormErrs atomic.Uint64
	// TotalQueries counts all well-formed in-zone queries.
	TotalQueries atomic.Uint64
	// StaleAnswers counts answers served past StaleAfter (TTL clamped).
	StaleAnswers atomic.Uint64
	// FallbackAnswers counts answers served from the fallback tables.
	FallbackAnswers atomic.Uint64
	// DegradeServfails counts queries refused because the map aged past
	// ServfailAfter.
	DegradeServfails atomic.Uint64
}

// New creates an authority for the given zone (e.g. "cdn.example.net").
func New(zone dnsmsg.Name, system *mapping.System) (*Authority, error) {
	if zone.Canonical() == "" {
		return nil, fmt.Errorf("authority: empty zone")
	}
	if system == nil {
		return nil, fmt.Errorf("authority: nil mapping system")
	}
	return &Authority{
		zone:     zone.Canonical(),
		whoami:   "whoami." + zone.Canonical(),
		system:   system,
		nowNanos: func() int64 { return time.Now().UnixNano() },
	}, nil
}

// SetDegradeConfig arms the staleness watchdog (see DegradeConfig); a zero
// StaleAfter disables it. Call before serving begins.
func (a *Authority) SetDegradeConfig(cfg DegradeConfig) {
	a.degrade = cfg.withDefaults()
}

// SetAnswerDemand sets the demand units each mapping answer records on the
// picked server (see the answerDemand field); 0 keeps load accounting off.
// Call before serving begins.
func (a *Authority) SetAnswerDemand(d float64) { a.answerDemand = d }

// SetEpochDebug toggles the per-answer epoch TXT record (see the
// epochDebug field). Call before serving begins; the record is for test
// harnesses, not production responses.
func (a *Authority) SetEpochDebug(on bool) { a.epochDebug = on }

// Degradation reports the ladder rung the authority is currently serving
// at, for observability.
func (a *Authority) Degradation() DegradeLevel {
	return a.levelOf(a.system.Current())
}

// levelOf picks the ladder rung for answers from snap. With the watchdog
// armed, the age of the last successful snapshot publish decides. Armed or
// not, epoch 0 is at least the fallback rung: no builder emits it — it is
// the map of a system rewound to replica state that has not yet reached
// its publisher, and holds nothing but the fallback tables.
func (a *Authority) levelOf(snap *mapping.Snapshot) DegradeLevel {
	level := DegradeFresh
	if a.degrade.StaleAfter > 0 {
		age := time.Duration(a.nowNanos() - a.system.PublishedAtNanos())
		switch {
		case age > a.degrade.ServfailAfter:
			level = DegradeServfail
		case age > a.degrade.FallbackAfter:
			level = DegradeFallback
		case age > a.degrade.StaleAfter:
			level = DegradeStale
		}
	}
	if snap.Epoch() == 0 && level < DegradeFallback {
		level = DegradeFallback
	}
	return level
}

// Zone returns the served zone.
func (a *Authority) Zone() dnsmsg.Name { return a.zone }

// WhoamiName returns the diagnostic name whose answer reveals the LDNS.
func (a *Authority) WhoamiName() dnsmsg.Name {
	return a.whoami
}

// ServeDNS implements dnsserver.Handler.
func (a *Authority) ServeDNS(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message {
	resp := query.Reply()
	resp.Authoritative = true
	resp.RecursionAvailable = false

	if query.OpCode != dnsmsg.OpCodeQuery || len(query.Questions) != 1 {
		resp.RCode = dnsmsg.RCodeNotImplemented
		return resp
	}
	q := query.Questions[0]
	// One fold serves the zone match and the domain the servers are picked
	// by; the reply echoes q.Name as sent.
	name := query.Canonical(q.Name)
	if q.Class != dnsmsg.ClassINET {
		resp.RCode = dnsmsg.RCodeRefused
		return resp
	}
	if !name.IsSubdomainOf(a.zone) {
		// Not our zone: refuse rather than lie.
		resp.RCode = dnsmsg.RCodeRefused
		return resp
	}
	a.TotalQueries.Add(1)

	if name == a.whoami {
		return a.serveWhoami(remote, q, resp)
	}

	switch q.Type {
	case dnsmsg.TypeA, dnsmsg.TypeANY:
		return a.serveMapping(remote, query, q, name, resp)
	case dnsmsg.TypeAAAA, dnsmsg.TypeTXT, dnsmsg.TypeNS, dnsmsg.TypeCNAME:
		// Name exists (any content domain under the zone does), but we
		// have no records of this type: NOERROR/NODATA with an SOA.
		resp.Authorities = append(resp.Authorities, a.soa())
		return resp
	default:
		resp.RCode = dnsmsg.RCodeNotImplemented
		return resp
	}
}

// serveWhoami answers the LDNS-discovery name with the resolver's address.
func (a *Authority) serveWhoami(remote netip.AddrPort, q dnsmsg.Question, resp *dnsmsg.Message) *dnsmsg.Message {
	switch q.Type {
	case dnsmsg.TypeTXT, dnsmsg.TypeANY:
		resp.Answers = append(resp.Answers, dnsmsg.RR{
			Name: q.Name, Class: dnsmsg.ClassINET, TTL: 0,
			Data: &dnsmsg.TXT{Strings: []string{"resolver", remote.Addr().Unmap().String()}},
		})
	case dnsmsg.TypeA:
		addr := remote.Addr().Unmap()
		if addr.Is4() {
			resp.Answers = append(resp.Answers, dnsmsg.RR{
				Name: q.Name, Class: dnsmsg.ClassINET, TTL: 0,
				Data: &dnsmsg.A{Addr: addr},
			})
		}
	}
	return resp
}

// serveMapping asks the mapping system for servers for name, q's name
// folded, and builds the answer.
func (a *Authority) serveMapping(remote netip.AddrPort, query *dnsmsg.Message, q dnsmsg.Question, name dnsmsg.Name, resp *dnsmsg.Message) *dnsmsg.Message {
	req := mapping.Request{
		Domain: string(name),
		LDNS:   remote.Addr().Unmap(),
		Demand: a.answerDemand,
	}
	var ecs *dnsmsg.ClientSubnet
	if query.EDNS {
		if ecs = query.ClientSubnet(); ecs != nil {
			if !ecs.QueryConformant() {
				// RFC 7871 §7.1.2: a query-side ECS option with address
				// bits set beyond SOURCE PREFIX-LENGTH, or a non-zero
				// SCOPE PREFIX-LENGTH, is malformed — answer FORMERR
				// instead of silently accepting (and mis-caching) it.
				a.ECSFormErrs.Add(1)
				resp.RCode = dnsmsg.RCodeFormatError
				return resp
			}
			a.ECSQueries.Add(1)
			if ecs.SourcePrefix > 0 {
				req.ClientSubnet = ecs.Prefix()
			}
		}
	}

	var startNs int64
	if a.decisionLatency != nil {
		startNs = time.Now().UnixNano()
	}
	var scratch [mapping.ServersPerAnswer]*cdn.Server
	decision, level, err := a.decide(req, scratch[:0])
	if a.decisionLatency != nil {
		a.decisionLatency.ObserveNanos(time.Now().UnixNano() - startNs)
	}
	if err != nil {
		resp.RCode = dnsmsg.RCodeServerFailure
		return resp
	}
	ttl := uint32(decision.TTL.Seconds())
	if level >= DegradeStale {
		// Serve-stale posture (RFC 8767-style): the answer may rest on old
		// measurements, so clamp its lifetime in downstream caches (the
		// clamp is unset when only the epoch-0 rule degraded an unarmed
		// authority).
		if clamp := uint32(a.degrade.StaleTTL.Seconds()); clamp > 0 && ttl > clamp {
			ttl = clamp
		}
	}
	for _, srv := range decision.Servers {
		resp.AnswerA(q.Name, ttl, srv.Addr)
	}
	if a.epochDebug {
		resp.Additionals = append(resp.Additionals, dnsmsg.RR{
			Name: q.Name, Class: dnsmsg.ClassINET, TTL: 0,
			Data: &dnsmsg.TXT{Strings: []string{"epoch", strconv.FormatUint(decision.Epoch, 10)}},
		})
	}

	// Echo the ECS option with the answer's scope (RFC 7871 §7.2.2: a
	// server receiving ECS must include the option with its scope, even
	// when the scope is zero, so caches know how to file the answer).
	if ecs != nil {
		resp.EchoClientSubnet(ecs, decision.ScopePrefix)
	}
	return resp
}

// decide resolves a mapping request against the snapshot published right
// now. The snapshot is loaded once — one atomic pointer read — and the
// rung, the decision and its epoch all come from that same snapshot, so a
// concurrent swap can never mix an old answer with a new epoch or vice
// versa.
//
// The rung is picked first: stale maps still serve (the caller clamps the
// TTL), fallback-age maps and a rewound system's epoch-0 map answer from the
// generic fallback tables, and beyond ServfailAfter the decision is
// refused. The servers are appended to scratch[:0].
func (a *Authority) decide(req mapping.Request, scratch []*cdn.Server) (mapping.Response, DegradeLevel, error) {
	snap := a.system.Current()
	level := a.levelOf(snap)
	switch {
	case level >= DegradeServfail:
		a.DegradeServfails.Add(1)
		return mapping.Response{}, level, errStaleMap
	case level >= DegradeFallback:
		a.FallbackAnswers.Add(1)
		req.Degraded = true
	case level == DegradeStale:
		a.StaleAnswers.Add(1)
	}
	decision, err := a.system.MapInto(snap, req, scratch)
	return decision, level, err
}

// soa returns the zone's SOA record for negative/nodata answers.
func (a *Authority) soa() dnsmsg.RR {
	return dnsmsg.RR{
		Name: a.zone, Class: dnsmsg.ClassINET, TTL: 60,
		Data: &dnsmsg.SOA{
			MName:   dnsmsg.Name("ns1." + string(a.zone)),
			RName:   dnsmsg.Name("hostmaster." + strings.TrimPrefix(string(a.zone), "www.")),
			Serial:  2014032801,
			Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 30,
		},
	}
}
