package dnsserver

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/netip"
	"strings"
	"testing"

	"eum/internal/dnsmsg"
)

func TestWithLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := WithLogging(&echoHandler{}, logger)

	q := dnsmsg.NewQuery(5, "logged.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.0"), 24)
	resp := h.ServeDNS(netip.MustParseAddrPort("198.51.100.9:5353"), q)
	if resp == nil {
		t.Fatal("no response through logging wrapper")
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"logged.example.net"`,
		`"type":"A"`,
		`"ecs":"203.0.113.0/24"`,
		`"rcode":"NOERROR"`,
		`"remote":"198.51.100.9:5353"`,
		`"answers":1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %s:\n%s", want, out)
		}
	}
}

func TestWithLoggingDropped(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := WithLogging(HandlerFunc(func(netip.AddrPort, *dnsmsg.Message) *dnsmsg.Message {
		return nil
	}), logger)
	q := dnsmsg.NewQuery(6, "dropped.example.net", dnsmsg.TypeA)
	if resp := h.ServeDNS(netip.MustParseAddrPort("10.0.0.1:53"), q); resp != nil {
		t.Fatal("wrapper invented a response")
	}
	if !strings.Contains(buf.String(), `"dropped":true`) {
		t.Errorf("drop not logged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "WARN") {
		t.Errorf("drop not logged at WARN:\n%s", buf.String())
	}
}

// keptRecords is a slog handler that keeps every record it is handed, as
// a handler that buffers or batches its output does.
type keptRecords struct{ records []slog.Record }

func (*keptRecords) Enabled(context.Context, slog.Level) bool { return true }
func (k *keptRecords) Handle(_ context.Context, r slog.Record) error {
	k.records = append(k.records, r)
	return nil
}
func (k *keptRecords) WithAttrs([]slog.Attr) slog.Handler { return k }
func (k *keptRecords) WithGroup(string) slog.Handler      { return k }

// TestWithLoggingKeepsNamesOfReusedQueries: the server decodes every
// datagram into one reused message whose names alias its storage, so the
// logger must copy the name it records; a handler that keeps records must
// still read the first query's name after a second is decoded over it.
func TestWithLoggingKeepsNamesOfReusedQueries(t *testing.T) {
	kept := &keptRecords{}
	h := WithLogging(&echoHandler{}, slog.New(kept))
	remote := netip.MustParseAddrPort("198.51.100.9:5353")
	var query dnsmsg.Message
	for _, name := range []dnsmsg.Name{"first.example.net", "later.example.net"} {
		wire, err := dnsmsg.NewQuery(1, name, dnsmsg.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := dnsmsg.UnpackInto(&query, wire); err != nil {
			t.Fatal(err)
		}
		h.ServeDNS(remote, &query)
	}
	var got []string
	for _, r := range kept.records {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "name" {
				got = append(got, a.Value.String())
			}
			return true
		})
	}
	if len(got) != 2 || got[0] != "first.example.net" || got[1] != "later.example.net" {
		t.Errorf("kept records name %q, want [first.example.net later.example.net]", got)
	}
}

// TestWithLoggingDisabledLevelSkipsWork is the regression test for the
// attribute-construction bug: the wrapper used to build the full attribute
// set (remote string, ECS prefix, rcode) for every query even when the
// logger's level discarded the record. With logging disabled the wrapper
// must now cost zero allocations per query.
func TestWithLoggingDisabledLevelSkipsWork(t *testing.T) {
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{
		Level: slog.LevelError, // both INFO answers and WARN drops disabled
	}))
	canned := (&dnsmsg.Message{}).Reply()
	h := WithLogging(HandlerFunc(func(netip.AddrPort, *dnsmsg.Message) *dnsmsg.Message {
		return canned
	}), logger)
	q := dnsmsg.NewQuery(8, "quiet.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.0"), 24)
	remote := netip.MustParseAddrPort("198.51.100.9:5353")
	if allocs := testing.AllocsPerRun(100, func() {
		if h.ServeDNS(remote, q) == nil {
			t.Fatal("no response")
		}
	}); allocs != 0 {
		t.Errorf("disabled logging still allocates %.0f per query, want 0", allocs)
	}
}

// TestWithLoggingMultiQuestion checks the wrapper records the question
// count when a query carries more than one question, instead of silently
// logging only the first.
func TestWithLoggingMultiQuestion(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := WithLogging(&echoHandler{}, logger)
	q := dnsmsg.NewQuery(9, "one.example.net", dnsmsg.TypeA)
	q.Questions = append(q.Questions, dnsmsg.Question{
		Name: "two.example.net", Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET,
	})
	if resp := h.ServeDNS(netip.MustParseAddrPort("10.0.0.1:53"), q); resp == nil {
		t.Fatal("no response")
	}
	out := buf.String()
	if !strings.Contains(out, `"questions":2`) {
		t.Errorf("multi-question query did not log its question count:\n%s", out)
	}
	if !strings.Contains(out, `"name":"one.example.net"`) {
		t.Errorf("first question missing from log:\n%s", out)
	}
}

func TestWithLoggingNilLogger(t *testing.T) {
	// nil logger falls back to slog.Default without panicking.
	h := WithLogging(&echoHandler{}, nil)
	q := dnsmsg.NewQuery(7, "x.example.net", dnsmsg.TypeA)
	if resp := h.ServeDNS(netip.MustParseAddrPort("10.0.0.1:53"), q); resp == nil {
		t.Fatal("no response")
	}
}
