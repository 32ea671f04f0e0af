package dnsmsg

import (
	"net/netip"
	"strings"
	"testing"
)

// FuzzUnpack exercises the wire parser with arbitrary bytes: it must never
// panic, and anything it accepts must survive a re-pack/re-parse cycle
// with stable section counts (parse-pack-parse fixpoint).
func FuzzUnpack(f *testing.F) {
	// Seed corpus: real packed messages of every flavour.
	q := NewQuery(0x1234, "seed.example.net", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.9"), 24)
	if wire, err := q.Pack(); err == nil {
		f.Add(wire)
	}
	r := q.Reply()
	r.Authoritative = true
	r.Answers = append(r.Answers,
		RR{Name: "seed.example.net", Class: ClassINET, TTL: 20,
			Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
		RR{Name: "seed.example.net", Class: ClassINET, TTL: 20,
			Data: &CNAME{Target: "other.example.net"}},
	)
	r.Authorities = append(r.Authorities, RR{Name: "example.net", Class: ClassINET, TTL: 300,
		Data: &SOA{MName: "ns.example.net", RName: "h.example.net", Minimum: 30}})
	if wire, err := r.Pack(); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xC0, 0x00})

	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := Unpack(wire)
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some parseable messages cannot repack (e.g. names that
			// were legal only via compression quirks); not a bug.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message failed to parse: %v", err)
		}
		if len(m2.Questions) != len(m.Questions) ||
			len(m2.Answers) != len(m.Answers) ||
			len(m2.Authorities) != len(m.Authorities) ||
			len(m2.Additionals) != len(m.Additionals) {
			t.Fatalf("section counts changed across repack: %v vs %v", m, m2)
		}
		if m2.ID != m.ID || m2.RCode != m.RCode || m2.Response != m.Response {
			t.Fatalf("header changed across repack")
		}
	})
}

// FuzzECSRoundTrip exercises the ECS option codec with arbitrary option
// bodies: anything unpackClientSubnet accepts must repack and re-parse to
// the same family, prefix lengths, and masked prefix — and the repacked
// form must always satisfy the RFC 7871 §6 masked-bits invariant, even
// when the input smuggled pad bits in (NonZeroPad).
func FuzzECSRoundTrip(f *testing.F) {
	// Conformant IPv4 /24.
	f.Add([]byte{0x00, 0x01, 24, 0, 203, 0, 113})
	// Pad-bit violation: /20 with bits set in the masked nibble.
	f.Add([]byte{0x00, 0x01, 20, 0, 203, 0, 0x71})
	// Scope violation in a query: scope 24.
	f.Add([]byte{0x00, 0x01, 24, 24, 203, 0, 113})
	// Conformant IPv6 /56.
	f.Add([]byte{0x00, 0x02, 56, 0, 0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0x56})
	// Source 0: no address octets at all.
	f.Add([]byte{0x00, 0x01, 0, 0})
	f.Add([]byte{})
	// Non-octet-aligned sources with conformant pad bits (RFC 7871 §6):
	// /20 (final nibble masked), /21, /23, and an IPv6 /57.
	f.Add([]byte{0x00, 0x01, 20, 0, 203, 0, 0x70})
	f.Add([]byte{0x00, 0x01, 21, 0, 203, 0, 0x70})
	f.Add([]byte{0x00, 0x01, 23, 20, 203, 0, 0x70})
	f.Add([]byte{0x00, 0x02, 57, 0, 0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0x56, 0x80})
	// Scope beyond the family bit length: must be rejected, not filed.
	f.Add([]byte{0x00, 0x01, 24, 33, 203, 0, 113})
	f.Add([]byte{0x00, 0x02, 56, 200, 0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0x56})

	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := unpackClientSubnet(body)
		if err != nil {
			return
		}
		wire, err := c.packOption(nil)
		if err != nil {
			t.Fatalf("accepted option failed to repack: %v", err)
		}
		c2, err := unpackClientSubnet(wire)
		if err != nil {
			t.Fatalf("repacked option failed to parse: %v", err)
		}
		if c2.NonZeroPad {
			t.Fatalf("repacked option violates the masked-bits invariant: %x", wire)
		}
		if c2.Family != c.Family || c2.SourcePrefix != c.SourcePrefix || c2.ScopePrefix != c.ScopePrefix {
			t.Fatalf("header fields changed across repack: %v vs %v", c, c2)
		}
		// Prefix masks the address, so it is stable across repack even when
		// the original wire form carried pad bits.
		if c2.Prefix() != c.Prefix() {
			t.Fatalf("prefix changed across repack: %v vs %v", c.Prefix(), c2.Prefix())
		}
		// ScopedPrefix can read address bits beyond SourcePrefix when the
		// scope is longer than the source; on a NonZeroPad option those are
		// exactly the wire bits that repacking re-masks, so the invariant
		// only holds for conformant inputs.
		if !c.NonZeroPad && c2.ScopedPrefix() != c.ScopedPrefix() {
			t.Fatalf("scoped prefix changed across repack: %v vs %v", c.ScopedPrefix(), c2.ScopedPrefix())
		}
	})
}

// FuzzNameRoundTrip checks the name codec in isolation: a name comes back
// as it was given, case included, less any trailing dot.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add("example.com")
	f.Add("")
	f.Add("a.b.c.d.e.f.g")
	f.Add("UPPER.Case.MiXeD")
	f.Fuzz(func(t *testing.T, s string) {
		n := Name(s)
		wire, err := packName(nil, n, new(compressor))
		if err != nil {
			return // invalid names are rejected, fine
		}
		got, off, err := unpackName(wire, 0)
		if err != nil {
			t.Fatalf("packed name failed to unpack: %v", err)
		}
		if off != len(wire) {
			t.Fatalf("offset %d != len %d", off, len(wire))
		}
		if want := Name(strings.TrimSuffix(s, ".")); got != want {
			t.Fatalf("round trip %q -> %q", want, got)
		}
	})
}
