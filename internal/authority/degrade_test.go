package authority

import (
	"testing"
	"time"

	"eum/internal/dnsmsg"
	"eum/internal/mapmaker"
	"eum/internal/mapping"
)

// TestDegradationLadderWalk kills the control plane (simulated by freezing
// the publish timestamp and advancing the authority's clock) and walks the
// full degradation ladder: fresh answers, then serve-stale with a clamped
// TTL, then fallback-table answers, then SERVFAIL — and back to fresh once
// the MapMaker recovers and publishes again.
func TestDegradationLadderWalk(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	mm := mapmaker.New(a.system, mapmaker.Config{Interval: time.Hour})

	// Simulated clock: always "offset" past the last successful publish,
	// so the map's age is exactly offset and a successful publish resets it.
	var offset time.Duration
	a.nowNanos = func() int64 { return a.system.PublishedAtNanos() + int64(offset) }

	a.SetDegradeConfig(DegradeConfig{
		StaleAfter:    100 * time.Millisecond,
		FallbackAfter: 300 * time.Millisecond,
		ServfailAfter: 900 * time.Millisecond,
		StaleTTL:      2 * time.Second,
	})

	ask := func() *dnsmsg.Message {
		t.Helper()
		return a.ServeDNS(resolverAddr, query("img.cdn.example.net", dnsmsg.TypeA))
	}

	// Rung 0: fresh map, full TTL.
	if lvl := a.Degradation(); lvl != DegradeFresh {
		t.Fatalf("fresh: level = %v", lvl)
	}
	resp := ask()
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("fresh: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
	if resp.Answers[0].TTL != 20 {
		t.Fatalf("fresh: TTL = %d, want 20", resp.Answers[0].TTL)
	}

	// Rung 1: map missed its cadence — serve stale with the TTL clamped.
	offset = 150 * time.Millisecond
	if lvl := a.Degradation(); lvl != DegradeStale {
		t.Fatalf("stale: level = %v", lvl)
	}
	resp = ask()
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("stale: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
	if resp.Answers[0].TTL != 2 {
		t.Fatalf("stale: TTL = %d, want clamp to 2", resp.Answers[0].TTL)
	}
	if a.StaleAnswers.Load() == 0 {
		t.Fatal("stale: StaleAnswers not counted")
	}

	// Rung 2: measurements distrusted — generic fallback tables.
	offset = 400 * time.Millisecond
	if lvl := a.Degradation(); lvl != DegradeFallback {
		t.Fatalf("fallback: level = %v", lvl)
	}
	resp = ask()
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("fallback: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
	if resp.Answers[0].TTL != 2 {
		t.Fatalf("fallback: TTL = %d, want clamp to 2", resp.Answers[0].TTL)
	}
	if a.FallbackAnswers.Load() == 0 {
		t.Fatal("fallback: FallbackAnswers not counted")
	}

	// Rung 3: map beyond salvage — refuse service.
	offset = time.Second
	if lvl := a.Degradation(); lvl != DegradeServfail {
		t.Fatalf("servfail: level = %v", lvl)
	}
	resp = ask()
	if resp.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("servfail: rcode = %v", resp.RCode)
	}
	if a.DegradeServfails.Load() == 0 {
		t.Fatal("servfail: DegradeServfails not counted")
	}

	// A crashing MapMaker build must not touch the ladder: the snapshot and
	// its publish time stay put, so the authority keeps refusing.
	mm.SetBuildFault(func() { panic("build crash") })
	before := a.system.Current()
	if sn := mm.Publish(); sn != before {
		t.Fatal("failed build replaced the snapshot")
	}
	if mm.BuildFailures() != 1 {
		t.Fatalf("BuildFailures = %d, want 1", mm.BuildFailures())
	}
	if resp = ask(); resp.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("post-crash: rcode = %v, want SERVFAIL", resp.RCode)
	}

	// Recovery: a successful publish resets the map's age and the authority
	// climbs straight back to fresh, full-TTL answers on a new epoch.
	mm.SetBuildFault(nil)
	sn := mm.Publish()
	offset = 0 // the clock now sits just past the fresh publish
	if sn.Epoch() <= before.Epoch() {
		t.Fatalf("recovery epoch = %d, want > %d", sn.Epoch(), before.Epoch())
	}
	if lvl := a.Degradation(); lvl != DegradeFresh {
		t.Fatalf("recovered: level = %v", lvl)
	}
	resp = ask()
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("recovered: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
	if resp.Answers[0].TTL != 20 {
		t.Fatalf("recovered: TTL = %d, want 20", resp.Answers[0].TTL)
	}
}

// TestDegradeConfigDefaults: derived thresholds and the disabled zero
// value.
func TestDegradeConfigDefaults(t *testing.T) {
	c := DegradeConfig{StaleAfter: time.Second}.withDefaults()
	if c.FallbackAfter != 4*time.Second || c.ServfailAfter != 16*time.Second {
		t.Fatalf("derived thresholds = %v/%v", c.FallbackAfter, c.ServfailAfter)
	}
	if c.StaleTTL != 5*time.Second {
		t.Fatalf("StaleTTL = %v", c.StaleTTL)
	}
	if z := (DegradeConfig{}).withDefaults(); z != (DegradeConfig{}) {
		t.Fatalf("zero config not disabled: %+v", z)
	}

	a := newAuthority(t, mapping.NSBased)
	if a.Degradation() != DegradeFresh {
		t.Fatal("disarmed watchdog not DegradeFresh")
	}
}

// TestEpochDebugRecord: with epoch debugging on, mapping answers carry a
// TXT additional naming the snapshot epoch the decision came from.
func TestEpochDebugRecord(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	a.SetEpochDebug(true)
	resp := a.ServeDNS(resolverAddr, query("img.cdn.example.net", dnsmsg.TypeA))
	if resp.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	var found bool
	for _, rr := range resp.Additionals {
		txt, ok := rr.Data.(*dnsmsg.TXT)
		if ok && len(txt.Strings) == 2 && txt.Strings[0] == "epoch" {
			found = true
			if want := a.system.Current().Epoch(); txt.Strings[1] != itoa(want) {
				t.Fatalf("epoch TXT = %q, want %d", txt.Strings[1], want)
			}
		}
	}
	if !found {
		t.Fatal("no epoch TXT additional in debug mode")
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
