package dnsserver

import (
	"context"
	"log/slog"
	"net/netip"
	"time"

	"eum/internal/dnsmsg"
)

// WithLogging wraps a handler with structured per-query access logging:
// one slog record per query with the question, requester, ECS option,
// response code, answer count and handler latency. Production name servers
// live and die by this telemetry — the paper's query-rate analyses (§5)
// come from exactly these logs.
func WithLogging(h Handler, logger *slog.Logger) Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return &loggingHandler{inner: h, logger: logger}
}

type loggingHandler struct {
	inner  Handler
	logger *slog.Logger
}

func (l *loggingHandler) ServeDNS(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message {
	start := time.Now()
	resp := l.inner.ServeDNS(remote, query)
	l.log(remote, query, resp, start)
	return resp
}

func (l *loggingHandler) log(remote netip.AddrPort, query, resp *dnsmsg.Message, start time.Time) {
	level, msg := slog.LevelInfo, "query"
	if resp == nil {
		level, msg = slog.LevelWarn, "query dropped"
	}
	ctx := context.Background()
	// Bail out before building any attributes when the record would be
	// discarded anyway: a name server at full query rate must not pay
	// per-query allocation for logging it has turned off.
	if !l.logger.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs,
		slog.String("remote", remote.String()),
		slog.Duration("latency", time.Since(start)),
	)
	if len(query.Questions) > 0 {
		q := query.Questions[0]
		attrs = append(attrs,
			slog.String("name", string(q.Name.Canonical())),
			slog.String("type", q.Type.String()),
		)
	}
	if n := len(query.Questions); n > 1 {
		// More than one question is abnormal for this server; record the
		// count so the log does not silently pretend the query was
		// ordinary while showing only the first question.
		attrs = append(attrs, slog.Int("questions", n))
	}
	if ecs := query.ClientSubnet(); ecs != nil {
		attrs = append(attrs, slog.String("ecs", ecs.Prefix().String()))
	}
	if resp == nil {
		attrs = append(attrs, slog.Bool("dropped", true))
		l.logger.LogAttrs(ctx, level, msg, attrs...)
		return
	}
	attrs = append(attrs,
		slog.String("rcode", resp.RCode.String()),
		slog.Int("answers", len(resp.Answers)),
	)
	if ecs := resp.ClientSubnet(); ecs != nil {
		attrs = append(attrs, slog.Int("scope", int(ecs.ScopePrefix)))
	}
	l.logger.LogAttrs(ctx, level, msg, attrs...)
}
