package dnsmsg

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// unpackName decodes the name at off into an arena of its own, so nothing
// decoded later writes over it.
func unpackName(msg []byte, off int) (Name, int, error) {
	var names []byte
	return appendName(&names, msg, off)
}

func TestNameCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Foo.EXAMPLE.com.", "foo.example.com"},
		{"example.com", "example.com"},
		{"", ""},
		{".", ""},
	}
	for _, c := range cases {
		if got := Name(c.in).Canonical(); string(got) != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomainOf(t *testing.T) {
	cases := []struct {
		name, parent string
		want         bool
	}{
		{"a.b.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "EXAMPLE.COM.", true},
		{"badexample.com", "example.com", false},
		{"example.com", "a.example.com", false},
		{"anything.net", "", true},
	}
	for _, c := range cases {
		if got := Name(c.name).IsSubdomainOf(Name(c.parent)); got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", c.name, c.parent, got, c.want)
		}
	}
}

func TestPackNameRoundTrip(t *testing.T) {
	names := []Name{"", "com", "example.com", "a.very.deep.sub.domain.example.org"}
	for _, n := range names {
		buf, err := packName(nil, n, new(compressor))
		if err != nil {
			t.Fatalf("packName(%q): %v", n, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", n, err)
		}
		if got != n.Canonical() {
			t.Errorf("round trip %q -> %q", n, got)
		}
		if off != len(buf) {
			t.Errorf("offset %d, want %d", off, len(buf))
		}
	}
}

func TestPackNameCompression(t *testing.T) {
	cmp := new(compressor)
	buf, err := packName(nil, "www.example.com", cmp)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = packName(buf, "ftp.example.com", cmp)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should be: 3 "ftp" + 2-byte pointer = 6 bytes.
	if second := len(buf) - first; second != 6 {
		t.Errorf("compressed second name is %d bytes, want 6", second)
	}
	// Both must decode correctly.
	n1, off, err := unpackName(buf, 0)
	if err != nil || n1 != "www.example.com" {
		t.Fatalf("first name: %q, %v", n1, err)
	}
	n2, _, err := unpackName(buf, off)
	if err != nil || n2 != "ftp.example.com" {
		t.Fatalf("second name: %q, %v", n2, err)
	}
}

// TestPackNamePastCompressorLimit packs more distinct names than a
// compressor remembers suffixes. Every name still round-trips; a name past
// the limit is written in full up to a suffix remembered before it.
func TestPackNamePastCompressorLimit(t *testing.T) {
	cmp := new(compressor)
	var buf []byte
	var offs []int
	for i := range 2 * maxCompressed {
		offs = append(offs, len(buf))
		var err error
		if buf, err = packName(buf, Name(fmt.Sprintf("h%d.example.com", i)), cmp); err != nil {
			t.Fatal(err)
		}
	}
	for i, off := range offs {
		n, _, err := unpackName(buf, off)
		if want := fmt.Sprintf("h%d.example.com", i); err != nil || string(n) != want {
			t.Fatalf("name %d: %q, %v; want %q", i, n, err, want)
		}
	}
	label := fmt.Sprintf("h%d", 2*maxCompressed-1)
	last := Name(label + ".example.com")
	before := len(buf)
	buf, err := packName(buf, last, cmp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(buf)-before, 1+len(label)+2; got != want {
		t.Errorf("%s again, past the limit, packed to %d bytes, want %d (its first label and a pointer)", last, got, want)
	}
}

func TestPackNameFullPointer(t *testing.T) {
	cmp := new(compressor)
	buf, _ := packName(nil, "example.com", cmp)
	first := len(buf)
	buf, _ = packName(buf, "example.com", cmp)
	if second := len(buf) - first; second != 2 {
		t.Errorf("identical name packed to %d bytes, want 2 (pure pointer)", second)
	}
}

func TestPackNameLimits(t *testing.T) {
	long := Name(strings.Repeat("a", 64) + ".com")
	if _, err := packName(nil, long, nil); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("63+ octet label: err = %v, want ErrLabelTooLong", err)
	}
	var parts []string
	for i := 0; i < 50; i++ {
		parts = append(parts, "abcdefg")
	}
	tooLong := Name(strings.Join(parts, "."))
	if _, err := packName(nil, tooLong, nil); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("255+ octet name: err = %v, want ErrNameTooLong", err)
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// A pointer pointing at itself.
	wire := []byte{0xC0, 0x00}
	if _, _, err := unpackName(wire, 0); !errors.Is(err, ErrUnpack) {
		t.Errorf("self-pointer: err = %v, want ErrUnpack", err)
	}
	// Two pointers pointing at each other.
	wire = []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := unpackName(wire, 2); !errors.Is(err, ErrUnpack) {
		t.Errorf("pointer cycle: err = %v, want ErrUnpack", err)
	}
}

func TestUnpackNameForwardPointerRejected(t *testing.T) {
	// Pointer at offset 0 pointing forward to offset 2 — forward pointers
	// enable loops and are rejected.
	wire := []byte{0xC0, 0x02, 1, 'a', 0}
	if _, _, err := unpackName(wire, 0); err == nil {
		t.Error("forward pointer accepted")
	}
}

func TestUnpackNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},           // empty
		{5, 'a'},     // label longer than buffer
		{0xC0},       // pointer missing second byte
		{1, 'a'},     // missing terminator
		{1, 'a', +1}, // label runs past end
	}
	for i, wire := range cases {
		if _, _, err := unpackName(wire, 0); err == nil {
			t.Errorf("case %d: truncated name accepted", i)
		}
	}
}

func TestUnpackNameReservedLabelType(t *testing.T) {
	wire := []byte{0x80, 0x01, 0x00}
	if _, _, err := unpackName(wire, 0); !errors.Is(err, ErrUnpack) {
		t.Errorf("reserved label type: err = %v", err)
	}
}

func TestUnpackNameCaseInsensitiveCompression(t *testing.T) {
	// Pack "WWW.Example.COM" then "www.example.com": compressor must
	// treat them as the same name.
	cmp := new(compressor)
	buf, _ := packName(nil, "WWW.Example.COM", cmp)
	l1 := len(buf)
	buf, _ = packName(buf, "www.example.com", cmp)
	if len(buf)-l1 != 2 {
		t.Errorf("case-differing duplicate packed to %d bytes, want 2", len(buf)-l1)
	}
	if !bytes.Contains(bytes.ToLower(buf[:l1]), []byte("www")) {
		t.Error("packed bytes missing label text")
	}
}
