package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Question is a DNS query question (RFC 1035 §4.1.2).
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in zone-file style.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name.Canonical(), q.Class, q.Type)
}

func (q Question) pack(buf []byte, cmp *compressor) ([]byte, error) {
	buf, err := packName(buf, q.Name, cmp)
	if err != nil {
		return nil, err
	}
	return appendUint16(appendUint16(buf, uint16(q.Type)), uint16(q.Class)), nil
}

func unpackQuestion(msg []byte, off int, names *[]byte) (Question, int, error) {
	name, off, err := appendName(names, msg, off)
	if err != nil {
		return Question{}, 0, err
	}
	if off+4 > len(msg) {
		return Question{}, 0, ErrBufferTooSmall
	}
	q := Question{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(msg[off:])),
		Class: Class(binary.BigEndian.Uint16(msg[off+2:])),
	}
	return q, off + 4, nil
}

// RData is the type-specific payload of a resource record.
type RData interface {
	// Type returns the RR type code this body belongs to.
	Type() Type
	// packData appends the wire form of the RDATA (without the length
	// prefix). Compression is only legal inside RDATA for the name types
	// grandfathered by RFC 3597 (NS, CNAME, SOA, PTR).
	packData(buf []byte, cmp *compressor) ([]byte, error)
}

// RR is a resource record.
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file style.
func (rr RR) String() string {
	return fmt.Sprintf("%s %d %s %s %v", rr.Name.Canonical(), rr.TTL, rr.Class, rr.Data.Type(), rr.Data)
}

func (rr RR) pack(buf []byte, cmp *compressor) ([]byte, error) {
	if rr.Data == nil {
		return nil, fmt.Errorf("%w: RR %q has nil Data", ErrPack, string(rr.Name))
	}
	buf, err := packHeader(buf, rr.Name, rr.Data.Type(), rr.Class, rr.TTL, cmp)
	if err != nil {
		return nil, err
	}
	lenAt := len(buf) - 2
	if buf, err = rr.Data.packData(buf, cmp); err != nil {
		return nil, err
	}
	return setRDLength(buf, lenAt)
}

// packHeader appends a record's owner name, type, class, TTL and a
// placeholder RDLENGTH, which setRDLength fills once the RDATA follows.
func packHeader(buf []byte, name Name, typ Type, class Class, ttl uint32, cmp *compressor) ([]byte, error) {
	buf, err := packName(buf, name, cmp)
	if err != nil {
		return nil, err
	}
	buf = appendUint16(buf, uint16(typ))
	buf = appendUint16(buf, uint16(class))
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	return appendUint16(buf, 0), nil
}

// setRDLength writes the length of the RDATA that follows offset lenAt
// into the RDLENGTH there.
func setRDLength(buf []byte, lenAt int) ([]byte, error) {
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("%w: RDATA exceeds 65535 octets", ErrPack)
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// unpackRR decodes the record at off, its names into the arena *names. An
// OPT record comes back with nil Data and its RDATA in opt, for the
// message to lift into its EDNS fields.
func unpackRR(msg []byte, off int, names *[]byte) (rr RR, opt []byte, next int, err error) {
	name, off, err := appendName(names, msg, off)
	if err != nil {
		return RR{}, nil, 0, err
	}
	if off+10 > len(msg) {
		return RR{}, nil, 0, ErrBufferTooSmall
	}
	typ := Type(binary.BigEndian.Uint16(msg[off:]))
	rr = RR{
		Name:  name,
		Class: Class(binary.BigEndian.Uint16(msg[off+2:])),
		TTL:   binary.BigEndian.Uint32(msg[off+4:]),
	}
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return RR{}, nil, 0, ErrBufferTooSmall
	}
	if typ == TypeOPT {
		return rr, msg[off : off+rdlen], off + rdlen, nil
	}
	if rr.Data, err = unpackRData(typ, msg, off, rdlen, names); err != nil {
		return RR{}, nil, 0, err
	}
	return rr, nil, off + rdlen, nil
}

func unpackRData(typ Type, msg []byte, off, rdlen int, names *[]byte) (RData, error) {
	rd := msg[off : off+rdlen]
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("%w: A RDATA length %d", ErrUnpack, rdlen)
		}
		return &A{Addr: netip.AddrFrom4([4]byte(rd))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("%w: AAAA RDATA length %d", ErrUnpack, rdlen)
		}
		return &AAAA{Addr: netip.AddrFrom16([16]byte(rd))}, nil
	case TypeCNAME:
		n, _, err := appendName(names, msg, off)
		if err != nil {
			return nil, err
		}
		return &CNAME{Target: n}, nil
	case TypeNS:
		n, _, err := appendName(names, msg, off)
		if err != nil {
			return nil, err
		}
		return &NS{Host: n}, nil
	case TypePTR:
		n, _, err := appendName(names, msg, off)
		if err != nil {
			return nil, err
		}
		return &PTR{Target: n}, nil
	case TypeSOA:
		return unpackSOA(msg, off, rdlen, names)
	case TypeTXT:
		return unpackTXT(rd)
	default:
		cp := make([]byte, rdlen)
		copy(cp, rd)
		return &Unknown{Typ: typ, Raw: cp}, nil
	}
}

// A is an IPv4 address record.
type A struct {
	Addr netip.Addr
}

// Type implements RData.
func (*A) Type() Type { return TypeA }

func (a *A) packData(buf []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return nil, fmt.Errorf("%w: A record address %v is not IPv4", ErrPack, a.Addr)
	}
	b := a.Addr.As4()
	return append(buf, b[:]...), nil
}

// String returns the address in dotted-quad form.
func (a *A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record.
type AAAA struct {
	Addr netip.Addr
}

// Type implements RData.
func (*AAAA) Type() Type { return TypeAAAA }

func (a *AAAA) packData(buf []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return nil, fmt.Errorf("%w: AAAA record address %v is not IPv6", ErrPack, a.Addr)
	}
	b := a.Addr.As16()
	return append(buf, b[:]...), nil
}

// String returns the address in RFC 5952 form.
func (a *AAAA) String() string { return a.Addr.String() }

// CNAME is a canonical-name record. The paper's CDN uses long CNAME chains:
// customer domains are CNAMEd to CDN domains whose authority is delegated to
// the mapping system's name servers.
type CNAME struct {
	Target Name
}

// Type implements RData.
func (*CNAME) Type() Type { return TypeCNAME }

func (c *CNAME) packData(buf []byte, cmp *compressor) ([]byte, error) {
	return packName(buf, c.Target, cmp)
}

// String returns the target name.
func (c *CNAME) String() string { return string(c.Target.Canonical()) }

// NS is a name-server delegation record, the mechanism by which the global
// load balancer steers an LDNS to a nearby authoritative server cluster.
type NS struct {
	Host Name
}

// Type implements RData.
func (*NS) Type() Type { return TypeNS }

func (n *NS) packData(buf []byte, cmp *compressor) ([]byte, error) {
	return packName(buf, n.Host, cmp)
}

// String returns the name-server host name.
func (n *NS) String() string { return string(n.Host.Canonical()) }

// PTR is a pointer record (reverse DNS).
type PTR struct {
	Target Name
}

// Type implements RData.
func (*PTR) Type() Type { return TypePTR }

func (p *PTR) packData(buf []byte, cmp *compressor) ([]byte, error) {
	return packName(buf, p.Target, cmp)
}

// String returns the target name.
func (p *PTR) String() string { return string(p.Target.Canonical()) }

// SOA is a start-of-authority record.
type SOA struct {
	MName   Name // primary name server
	RName   Name // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL (RFC 2308)
}

// Type implements RData.
func (*SOA) Type() Type { return TypeSOA }

func (s *SOA) packData(buf []byte, cmp *compressor) ([]byte, error) {
	buf, err := packName(buf, s.MName, cmp)
	if err != nil {
		return nil, err
	}
	buf, err = packName(buf, s.RName, cmp)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, s.Serial)
	buf = binary.BigEndian.AppendUint32(buf, s.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, s.Retry)
	buf = binary.BigEndian.AppendUint32(buf, s.Expire)
	return binary.BigEndian.AppendUint32(buf, s.Minimum), nil
}

// String renders the SOA fields in zone-file order.
func (s *SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		s.MName.Canonical(), s.RName.Canonical(), s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

func unpackSOA(msg []byte, off, rdlen int, names *[]byte) (*SOA, error) {
	end := off + rdlen
	mname, off, err := appendName(names, msg, off)
	if err != nil {
		return nil, err
	}
	rname, off, err := appendName(names, msg, off)
	if err != nil {
		return nil, err
	}
	if off+20 > end || off+20 > len(msg) {
		return nil, ErrBufferTooSmall
	}
	return &SOA{
		MName:   mname,
		RName:   rname,
		Serial:  binary.BigEndian.Uint32(msg[off:]),
		Refresh: binary.BigEndian.Uint32(msg[off+4:]),
		Retry:   binary.BigEndian.Uint32(msg[off+8:]),
		Expire:  binary.BigEndian.Uint32(msg[off+12:]),
		Minimum: binary.BigEndian.Uint32(msg[off+16:]),
	}, nil
}

// TXT is a text record, carried as one or more character-strings.
// The mapping system uses TXT for diagnostic names like whoami lookups.
type TXT struct {
	Strings []string
}

// Type implements RData.
func (*TXT) Type() Type { return TypeTXT }

func (t *TXT) packData(buf []byte, _ *compressor) ([]byte, error) {
	if len(t.Strings) == 0 {
		return nil, fmt.Errorf("%w: TXT record needs at least one string", ErrPack)
	}
	for _, s := range t.Strings {
		if len(s) > 255 {
			return nil, fmt.Errorf("%w: TXT string exceeds 255 octets", ErrPack)
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

// String joins the character-strings with spaces.
func (t *TXT) String() string {
	out := ""
	for i, s := range t.Strings {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%q", s)
	}
	return out
}

func unpackTXT(rd []byte) (*TXT, error) {
	var out []string
	for len(rd) > 0 {
		l := int(rd[0])
		if 1+l > len(rd) {
			return nil, fmt.Errorf("%w: truncated TXT character-string", ErrUnpack)
		}
		out = append(out, string(rd[1:1+l]))
		rd = rd[1+l:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty TXT RDATA", ErrUnpack)
	}
	return &TXT{Strings: out}, nil
}

// Unknown preserves the raw RDATA of record types this package does not
// interpret, so messages survive a parse/repack round trip (RFC 3597).
type Unknown struct {
	Typ Type
	Raw []byte
}

// Type implements RData.
func (u *Unknown) Type() Type { return u.Typ }

func (u *Unknown) packData(buf []byte, _ *compressor) ([]byte, error) {
	return append(buf, u.Raw...), nil
}

// String hex-dumps the raw RDATA in RFC 3597 generic form.
func (u *Unknown) String() string { return fmt.Sprintf("\\# %d %x", len(u.Raw), u.Raw) }

func appendUint16(buf []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(buf, v)
}
