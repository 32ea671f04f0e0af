package dnsmsg

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return wire
}

func mustUnpack(t *testing.T, wire []byte) *Message {
	t.Helper()
	m, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return m
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "E2561.B.CDN.Example.NET", TypeA)
	got := mustUnpack(t, mustPack(t, q))
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	want := Question{Name: "e2561.b.cdn.example.net", Type: TypeA, Class: ClassINET}
	if got.Questions[0] != want {
		t.Errorf("question = %+v, want %+v", got.Questions[0], want)
	}
	if !got.EDNS || got.UDPSize != DefaultUDPSize {
		t.Errorf("EDNS = %v, UDPSize = %d", got.EDNS, got.UDPSize)
	}
}

func TestResponseRoundTripAllSections(t *testing.T) {
	q := NewQuery(7, "foo.example.net", TypeA)
	r := q.Reply()
	r.Authoritative = true
	r.Answers = append(r.Answers,
		RR{Name: "foo.example.net", Class: ClassINET, TTL: 20,
			Data: &A{Addr: netip.MustParseAddr("192.0.2.10")}},
		RR{Name: "foo.example.net", Class: ClassINET, TTL: 20,
			Data: &A{Addr: netip.MustParseAddr("192.0.2.11")}},
	)
	r.Authorities = append(r.Authorities,
		RR{Name: "example.net", Class: ClassINET, TTL: 3600,
			Data: &NS{Host: "ns1.example.net"}})
	r.Additionals = append(r.Additionals,
		RR{Name: "ns1.example.net", Class: ClassINET, TTL: 3600,
			Data: &A{Addr: netip.MustParseAddr("198.51.100.1")}})

	got := mustUnpack(t, mustPack(t, r))
	if !got.Response || !got.Authoritative || got.ID != 7 {
		t.Errorf("header: %+v", got.Header)
	}
	if len(got.Answers) != 2 || len(got.Authorities) != 1 || len(got.Additionals) != 1 {
		t.Fatalf("sections: %d/%d/%d", len(got.Answers), len(got.Authorities), len(got.Additionals))
	}
	a := got.Answers[0].Data.(*A)
	if a.Addr != netip.MustParseAddr("192.0.2.10") {
		t.Errorf("answer A = %v", a.Addr)
	}
	ns := got.Authorities[0].Data.(*NS)
	if ns.Host != "ns1.example.net" {
		t.Errorf("authority NS = %v", ns.Host)
	}
}

func TestECSQueryRoundTrip(t *testing.T) {
	q := NewQuery(1, "foo.net", TypeA)
	if err := q.SetClientSubnet(netip.MustParseAddr("203.0.113.77"), 24); err != nil {
		t.Fatal(err)
	}
	got := mustUnpack(t, mustPack(t, q))
	ecs := got.ClientSubnet()
	if ecs == nil {
		t.Fatal("ECS option lost in round trip")
	}
	if ecs.Family != ECSFamilyIPv4 || ecs.SourcePrefix != 24 || ecs.ScopePrefix != 0 {
		t.Errorf("ecs = %+v", ecs)
	}
	// Address must be masked to /24.
	if ecs.Address != netip.MustParseAddr("203.0.113.0") {
		t.Errorf("ECS address = %v, want masked 203.0.113.0", ecs.Address)
	}
	if ecs.Prefix() != netip.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("Prefix() = %v", ecs.Prefix())
	}
}

func TestECSWireFormatTruncatedAddress(t *testing.T) {
	// RFC 7871: a /24 IPv4 ECS option carries only 3 address octets.
	ecs, err := NewClientSubnet(netip.MustParseAddr("203.0.113.77"), 24)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ecs.packOption(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x00, 0x01, 24, 0, 203, 0, 113}
	if !bytes.Equal(body, want) {
		t.Errorf("ECS wire = %x, want %x", body, want)
	}
}

func TestECSIPv6(t *testing.T) {
	q := NewQuery(2, "foo.net", TypeAAAA)
	if err := q.SetClientSubnet(netip.MustParseAddr("2001:db8:1234:5678::1"), 56); err != nil {
		t.Fatal(err)
	}
	got := mustUnpack(t, mustPack(t, q))
	ecs := got.ClientSubnet()
	if ecs == nil || ecs.Family != ECSFamilyIPv6 || ecs.SourcePrefix != 56 {
		t.Fatalf("ecs = %+v", ecs)
	}
	if ecs.Address != netip.MustParseAddr("2001:db8:1234:5600::") {
		t.Errorf("masked v6 address = %v", ecs.Address)
	}
}

func TestECSScopeInResponse(t *testing.T) {
	// Server answers for a /20 scope from a /24 source (paper Fig 4).
	q := NewQuery(3, "foo.net", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("10.1.2.3"), 24)
	r := q.Reply()
	ecs := q.ClientSubnet()
	r.Options = append(r.Options, &ClientSubnet{
		Family:       ecs.Family,
		SourcePrefix: ecs.SourcePrefix,
		ScopePrefix:  20,
		Address:      ecs.Address,
	})
	got := mustUnpack(t, mustPack(t, r))
	gotECS := got.ClientSubnet()
	if gotECS == nil || gotECS.ScopePrefix != 20 {
		t.Fatalf("response ECS = %+v", gotECS)
	}
	if gotECS.ScopedPrefix() != netip.MustParsePrefix("10.1.0.0/20") {
		t.Errorf("ScopedPrefix = %v", gotECS.ScopedPrefix())
	}
}

func TestECSZeroSourcePrefix(t *testing.T) {
	// RFC 7871 allows source /0 to opt out of ECS processing.
	q := NewQuery(4, "foo.net", TypeA)
	if err := q.SetClientSubnet(netip.MustParseAddr("10.1.2.3"), 0); err != nil {
		t.Fatal(err)
	}
	got := mustUnpack(t, mustPack(t, q))
	ecs := got.ClientSubnet()
	if ecs == nil || ecs.SourcePrefix != 0 {
		t.Fatalf("ecs = %+v", ecs)
	}
}

func TestECSInvalidPrefix(t *testing.T) {
	if _, err := NewClientSubnet(netip.MustParseAddr("10.0.0.1"), 33); err == nil {
		t.Error("IPv4 /33 accepted")
	}
	if _, err := NewClientSubnet(netip.MustParseAddr("2001:db8::1"), 129); err == nil {
		t.Error("IPv6 /129 accepted")
	}
}

func TestECSMalformedWire(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"short", []byte{0, 1, 24}},
		{"addr-too-short", []byte{0, 1, 24, 0, 203, 0}},
		{"addr-too-long", []byte{0, 1, 24, 0, 203, 0, 113, 7}},
		{"bad-family", []byte{0, 9, 8, 0, 1}},
		{"v4-prefix-too-long", []byte{0, 1, 40, 0, 1, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := unpackClientSubnet(c.body); err == nil {
				t.Error("malformed ECS accepted")
			}
		})
	}
}

func TestSetClientSubnetReplaces(t *testing.T) {
	q := NewQuery(5, "foo.net", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("10.0.0.1"), 24)
	_ = q.SetClientSubnet(netip.MustParseAddr("192.0.2.1"), 24)
	count := 0
	for _, o := range q.Options {
		if o.Code() == OptionCodeClientSubnet {
			count++
		}
	}
	if count != 1 {
		t.Errorf("found %d ECS options, want 1", count)
	}
	if q.ClientSubnet().Address != netip.MustParseAddr("192.0.2.0") {
		t.Errorf("ECS address = %v", q.ClientSubnet().Address)
	}
}

func TestCNAMEChainRoundTrip(t *testing.T) {
	r := &Message{Header: Header{ID: 9, Response: true}}
	r.Questions = []Question{{Name: "www.whitehouse.gov", Type: TypeA, Class: ClassINET}}
	r.Answers = []RR{
		{Name: "www.whitehouse.gov", Class: ClassINET, TTL: 300,
			Data: &CNAME{Target: "e2561.b.cdn.example.net"}},
		{Name: "e2561.b.cdn.example.net", Class: ClassINET, TTL: 20,
			Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
	}
	got := mustUnpack(t, mustPack(t, r))
	cn := got.Answers[0].Data.(*CNAME)
	if cn.Target != "e2561.b.cdn.example.net" {
		t.Errorf("CNAME target = %v", cn.Target)
	}
}

func TestSOATXTRoundTrip(t *testing.T) {
	r := &Message{Header: Header{ID: 10, Response: true, RCode: RCodeNameError}}
	r.Authorities = []RR{{Name: "cdn.example.net", Class: ClassINET, TTL: 60,
		Data: &SOA{MName: "ns1.cdn.example.net", RName: "hostmaster.example.net",
			Serial: 2014032801, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 30}}}
	r.Answers = []RR{{Name: "whoami.cdn.example.net", Class: ClassINET, TTL: 0,
		Data: &TXT{Strings: []string{"resolver", "198.51.100.7"}}}}
	got := mustUnpack(t, mustPack(t, r))
	soa := got.Authorities[0].Data.(*SOA)
	if soa.Serial != 2014032801 || soa.Minimum != 30 || soa.MName != "ns1.cdn.example.net" {
		t.Errorf("SOA = %+v", soa)
	}
	txt := got.Answers[0].Data.(*TXT)
	if !reflect.DeepEqual(txt.Strings, []string{"resolver", "198.51.100.7"}) {
		t.Errorf("TXT = %v", txt.Strings)
	}
	if got.RCode != RCodeNameError {
		t.Errorf("RCode = %v", got.RCode)
	}
}

func TestExtendedRCode(t *testing.T) {
	m := &Message{Header: Header{ID: 11, Response: true, RCode: RCodeBadVers}, EDNS: true}
	got := mustUnpack(t, mustPack(t, m))
	if got.RCode != RCodeBadVers {
		t.Errorf("extended RCode = %v, want BADVERS", got.RCode)
	}
}

func TestUnknownRRPreserved(t *testing.T) {
	m := &Message{Header: Header{ID: 12, Response: true}}
	m.Answers = []RR{{Name: "x.net", Class: ClassINET, TTL: 5,
		Data: &Unknown{Typ: Type(99), Raw: []byte{1, 2, 3, 4}}}}
	got := mustUnpack(t, mustPack(t, m))
	u := got.Answers[0].Data.(*Unknown)
	if u.Typ != Type(99) || !bytes.Equal(u.Raw, []byte{1, 2, 3, 4}) {
		t.Errorf("unknown RR = %+v", u)
	}
}

func TestMultipleOPTRejected(t *testing.T) {
	m := &Message{Header: Header{ID: 13}, EDNS: true}
	wire := mustPack(t, m)
	// Duplicate the OPT record bytes by crafting a message with ARCOUNT 2
	// and the OPT appended twice.
	optStart := 12 // header only, no questions
	opt := wire[optStart:]
	crafted := append([]byte{}, wire[:12]...)
	crafted[11] = 2 // ARCOUNT = 2
	crafted = append(crafted, opt...)
	crafted = append(crafted, opt...)
	if _, err := Unpack(crafted); !errors.Is(err, ErrUnpack) {
		t.Errorf("duplicate OPT: err = %v", err)
	}
}

func TestUnpackTruncatedHeader(t *testing.T) {
	if _, err := Unpack([]byte{1, 2, 3}); !errors.Is(err, ErrUnpack) {
		t.Errorf("short header: err = %v", err)
	}
}

func TestUnpackGarbage(t *testing.T) {
	// Random mutations of a valid packet must never panic.
	q := NewQuery(0xABCD, "fuzz.example.com", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("10.9.8.7"), 24)
	wire := mustPack(t, q)
	f := func(idx int, val byte) bool {
		mut := append([]byte{}, wire...)
		mut[abs(idx)%len(mut)] = val
		_, _ = Unpack(mut) // must not panic; error is fine
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackTruncationsNeverPanic(t *testing.T) {
	r := &Message{Header: Header{ID: 1, Response: true}}
	r.Questions = []Question{{Name: "a.b.c.example.com", Type: TypeA, Class: ClassINET}}
	r.Answers = []RR{{Name: "a.b.c.example.com", Class: ClassINET, TTL: 1,
		Data: &CNAME{Target: "d.example.com"}}}
	wire := mustPack(t, r)
	for i := 0; i < len(wire); i++ {
		_, _ = Unpack(wire[:i])
	}
}

func TestReplyMirrorsQuery(t *testing.T) {
	q := NewQuery(55, "foo.net", TypeA)
	r := q.Reply()
	if !r.Response || r.ID != 55 || !r.EDNS {
		t.Errorf("reply = %+v", r)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Errorf("reply questions = %v", r.Questions)
	}
}

func TestMessageString(t *testing.T) {
	q := NewQuery(1, "foo.net", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("10.0.0.0"), 24)
	s := q.String()
	for _, want := range []string{"foo.net", "ecs", "edns"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	r := &Message{Header: Header{ID: 1, Response: true}}
	r.Questions = []Question{{Name: "a.really.long.domain.example.net", Type: TypeA, Class: ClassINET}}
	for i := 0; i < 8; i++ {
		r.Answers = append(r.Answers, RR{
			Name: "a.really.long.domain.example.net", Class: ClassINET, TTL: 20,
			Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	wire := mustPack(t, r)
	// Each answer's owner name should compress to a 2-byte pointer:
	// 2 (ptr) + 2 type + 2 class + 4 ttl + 2 rdlen + 4 rdata = 16 bytes.
	qLen := 12 + len("a.really.long.domain.example.net") + 2 + 4
	want := qLen + 8*16
	if len(wire) != want {
		t.Errorf("compressed message = %d bytes, want %d", len(wire), want)
	}
	got := mustUnpack(t, wire)
	if len(got.Answers) != 8 {
		t.Errorf("answers = %d", len(got.Answers))
	}
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}

// BenchmarkDNSMessagePack times the packer as the server runs it:
// AppendPack into one wire buffer reused across messages, which allocates
// nothing (Pack, the client's wrapper, allocates a fresh buffer per call).
func BenchmarkDNSMessagePack(b *testing.B) {
	q := NewQuery(1, "e0042.b.cdn.example.net", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.5"), 24)
	wire := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if wire, err = q.AppendPack(wire[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
