package dnsmsg

import (
	"errors"
	"net/netip"
	"testing"
)

// TestScopedPrefixZeroScopeFallsBack is the regression test for the
// scope-0 caching bug: RFC 7871 §7.3.1 says a response with SCOPE
// PREFIX-LENGTH 0 is valid for all addresses but is still cached under
// the query's SOURCE PREFIX-LENGTH. ScopedPrefix used to return a /0 in
// that case, which would have let one client's answer shadow the entire
// address family in any cache keyed by ScopedPrefix.
// unpackClientSubnet decodes an ECS option body into an option of its own.
func unpackClientSubnet(body []byte) (*ClientSubnet, error) {
	c := new(ClientSubnet)
	if err := c.unpack(body); err != nil {
		return nil, err
	}
	return c, nil
}

func TestScopedPrefixZeroScopeFallsBack(t *testing.T) {
	ecs, err := NewClientSubnet(netip.MustParseAddr("203.0.113.77"), 24)
	if err != nil {
		t.Fatal(err)
	}
	// Query-side option: scope 0.
	if got, want := ecs.ScopedPrefix(), netip.MustParsePrefix("203.0.113.0/24"); got != want {
		t.Errorf("scope 0 ScopedPrefix = %v, want source prefix %v", got, want)
	}
	// Response-side scope narrower than source still wins.
	ecs.ScopePrefix = 20
	if got, want := ecs.ScopedPrefix(), netip.MustParsePrefix("203.0.112.0/20"); got != want {
		t.Errorf("scope 20 ScopedPrefix = %v, want %v", got, want)
	}
	// Source 0 with scope 0 genuinely means the whole family.
	zero, err := NewClientSubnet(netip.MustParseAddr("203.0.113.77"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := zero.ScopedPrefix(), netip.MustParsePrefix("0.0.0.0/0"); got != want {
		t.Errorf("source 0 ScopedPrefix = %v, want %v", got, want)
	}
}

// TestECSNonZeroPadDetected checks RFC 7871 §6 enforcement: address bits
// beyond SOURCE PREFIX-LENGTH must be zero, and an option violating that
// is flagged (for a §7.1.2 FORMERR) rather than silently accepted or
// fatally rejected.
func TestECSNonZeroPadDetected(t *testing.T) {
	// family 1, source /20, scope 0, address 203.0.113 — 0x71 has bits
	// set beyond the 20th (mask for /20's last byte is 0xF0).
	body := []byte{0x00, 0x01, 20, 0, 203, 0, 0x71}
	ecs, err := unpackClientSubnet(body)
	if err != nil {
		t.Fatalf("pad violation must parse (FORMERR needs the message): %v", err)
	}
	if !ecs.NonZeroPad {
		t.Error("non-zero pad bits not flagged")
	}
	if ecs.QueryConformant() {
		t.Error("pad violation reported as query-conformant")
	}
	// The wire address is preserved for logging...
	if ecs.Address != netip.MustParseAddr("203.0.113.0") {
		t.Errorf("wire address not preserved: %v", ecs.Address)
	}
	// ...but repacking re-masks, so the violation never propagates.
	repacked, err := ecs.packOption(nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := unpackClientSubnet(repacked)
	if err != nil {
		t.Fatal(err)
	}
	if again.NonZeroPad {
		t.Error("repacked option still carries pad bits")
	}
	if again.Address != netip.MustParseAddr("203.0.112.0") {
		t.Errorf("repacked address = %v, want masked 203.0.112.0", again.Address)
	}

	// A conformant body is not flagged.
	clean := []byte{0x00, 0x01, 20, 0, 203, 0, 0x70}
	ecs, err = unpackClientSubnet(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ecs.NonZeroPad || !ecs.QueryConformant() {
		t.Error("conformant option flagged as violating")
	}
}

// TestQueryConformantScope checks the other §7.1.2 requirement: SCOPE
// PREFIX-LENGTH must be 0 in queries.
func TestQueryConformantScope(t *testing.T) {
	ecs, err := NewClientSubnet(netip.MustParseAddr("203.0.113.77"), 24)
	if err != nil {
		t.Fatal(err)
	}
	if !ecs.QueryConformant() {
		t.Error("fresh query option not conformant")
	}
	ecs.ScopePrefix = 24
	if ecs.QueryConformant() {
		t.Error("non-zero scope reported as query-conformant")
	}
}

// TestScopedPrefixOverflow is the regression test for the malformed-scope
// bug: a response whose SCOPE PREFIX-LENGTH exceeds the address family's
// bit length (33+ for IPv4, 129+ for IPv6) used to make ScopedPrefix
// return the zero netip.Prefix with no indication anything was wrong, so
// a cache keyed on it would file the answer under an invalid prefix.
// ScopedPrefixChecked must surface ErrECSScope instead.
func TestScopedPrefixOverflow(t *testing.T) {
	cases := []struct {
		name  string
		addr  string
		scope uint8
	}{
		{"v4-scope-33", "203.0.113.77", 33},
		{"v4-scope-255", "203.0.113.77", 255},
		{"v6-scope-129", "2001:db8::1", 129},
		{"v6-scope-200", "2001:db8::1", 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := uint8(24)
			if netip.MustParseAddr(c.addr).Is6() {
				src = 56
			}
			ecs, err := NewClientSubnet(netip.MustParseAddr(c.addr), src)
			if err != nil {
				t.Fatal(err)
			}
			ecs.ScopePrefix = c.scope
			if _, err := ecs.ScopedPrefixChecked(); !errors.Is(err, ErrECSScope) {
				t.Errorf("ScopedPrefixChecked() err = %v, want ErrECSScope", err)
			}
			if p := ecs.ScopedPrefix(); p.IsValid() {
				t.Errorf("ScopedPrefix() = %v, want the invalid zero prefix", p)
			}
			// The malformed option must not pack either.
			if _, err := ecs.packOption(nil); !errors.Is(err, ErrPack) {
				t.Errorf("packOption() err = %v, want ErrPack", err)
			}
		})
	}
}

// TestUnpackRejectsOverflowScope checks the wire-level half: a response
// option carrying an out-of-family scope is rejected during parse, so the
// malformed answer never reaches a cache at all.
func TestUnpackRejectsOverflowScope(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"v4-scope-33", []byte{0x00, 0x01, 24, 33, 203, 0, 113}},
		{"v6-scope-129", []byte{0x00, 0x02, 56, 129, 0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0x56}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := unpackClientSubnet(c.body)
			if !errors.Is(err, ErrUnpack) {
				t.Errorf("unpack err = %v, want ErrUnpack", err)
			}
			if !errors.Is(err, ErrECSScope) {
				t.Errorf("unpack err = %v, want ErrECSScope", err)
			}
		})
	}
	// Scope at exactly the family width stays legal.
	for _, body := range [][]byte{
		{0x00, 0x01, 24, 32, 203, 0, 113},
		{0x00, 0x02, 56, 128, 0x20, 0x01, 0x0d, 0xb8, 0x12, 0x34, 0x56},
	} {
		if _, err := unpackClientSubnet(body); err != nil {
			t.Errorf("full-width scope rejected: %v", err)
		}
	}
}

// TestPackOptionMasksHandBuiltAddress checks the pack-side half of the §6
// invariant: a hand-assembled ClientSubnet whose Address carries bits
// beyond SourcePrefix packs with those bits zeroed.
func TestPackOptionMasksHandBuiltAddress(t *testing.T) {
	ecs := &ClientSubnet{
		Family:       ECSFamilyIPv4,
		SourcePrefix: 21,
		Address:      netip.MustParseAddr("10.20.31.0"), // 31 = 0b00011111, /21 keeps 0b00011000
	}
	wire, err := ecs.packOption(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x00, 0x01, 21, 0, 10, 20, 0x18}
	if string(wire) != string(want) {
		t.Errorf("packed = %x, want %x", wire, want)
	}
}
