package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"unsafe"
)

// Header is the fixed 12-octet DNS message header (RFC 1035 §4.1.1),
// with the flag bits broken out.
type Header struct {
	ID                 uint16
	Response           bool   // QR
	OpCode             OpCode // 4 bits
	Authoritative      bool   // AA
	Truncated          bool   // TC
	RecursionDesired   bool   // RD
	RecursionAvailable bool   // RA
	RCode              RCode  // 4 bits here; extended by EDNS0
}

// Message is a complete DNS message. EDNS0 state (UDP size, extended
// RCode) is carried in the explicit fields and materialised as an OPT
// pseudo-RR in the additional section during packing; the reverse happens
// on unpack, so Additionals never contains the OPT itself.
type Message struct {
	Header
	Questions   []Question
	Answers     []RR
	Authorities []RR
	Additionals []RR

	// EDNS reports whether the message carries an OPT record.
	EDNS bool
	// UDPSize is the advertised EDNS0 UDP payload size (query) or the
	// responder's size (response). Zero means DefaultUDPSize when EDNS
	// is set.
	UDPSize uint16
	// Options are the EDNS0 options carried in the OPT record, e.g. the
	// ClientSubnet option.
	Options []EDNSOption

	// Storage the message owns and reuses, so that a server answering
	// every query from one reused message allocates nothing per query.
	names []byte       // the arena UnpackInto decodes names into
	ecs   ClientSubnet // the first ECS option, as decoded or attached
	as    []A          // the RDATA of the records AnswerA appends
	reply *Message     // what Reply builds into
}

// NewQuery builds a standard recursive query for (name, type) with a fresh
// EDNS0 OPT record.
func NewQuery(id uint16, name Name, typ Type) *Message {
	return &Message{
		Header: Header{
			ID:               id,
			OpCode:           OpCodeQuery,
			RecursionDesired: true,
		},
		Questions: []Question{{Name: name.Canonical(), Type: typ, Class: ClassINET}},
		EDNS:      true,
		UDPSize:   DefaultUDPSize,
	}
}

// Reply builds a response skeleton for m: same ID, same question, QR set,
// and EDNS mirrored if the query used it. The reply belongs to m: it is
// allocated on m's first call and reset and rebuilt on every later one, so
// a reply is valid until the next Reply or UnpackInto on m, and replying
// to a reused query allocates nothing once warm. Its question names alias
// m's.
func (m *Message) Reply() *Message {
	r := m.reply
	if r == nil {
		r = new(Message)
		m.reply = r
	}
	r.Reset()
	r.Header = Header{
		ID:               m.ID,
		Response:         true,
		OpCode:           m.OpCode,
		RecursionDesired: m.RecursionDesired,
	}
	r.EDNS = m.EDNS
	if m.EDNS {
		r.UDPSize = DefaultUDPSize
	}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// Canonical returns n.Canonical() without allocating once m's storage is
// warm: a name already canonical is returned as it is, and any other is
// lower-cased into m's name arena, so, like the names decoded into m, it
// holds until the next UnpackInto of m writes over it. A server that
// receives names of randomised case (DNS 0x20) folds each question once
// this way.
func (m *Message) Canonical(n Name) Name {
	s := strings.TrimSuffix(string(n), ".")
	if !hasUpper(s) {
		return Name(s)
	}
	start := len(m.names)
	m.names = appendLower(m.names, s)
	return Name(unsafe.String(&m.names[start], len(s)))
}

// AnswerA appends an A record for name to the answer section. Its RDATA
// lives in storage m keeps across Reset, so a reused reply appends
// records without allocating.
func (m *Message) AnswerA(name Name, ttl uint32, addr netip.Addr) {
	m.as = append(m.as, A{Addr: addr})
	m.Answers = append(m.Answers, RR{Name: name, Class: ClassINET, TTL: ttl, Data: &m.as[len(m.as)-1]})
}

// EchoClientSubnet attaches the response side of the query's ECS option
// q: its family, source prefix and address, with the answer's scope (RFC
// 7871 §7.2.2). Like SetClientSubnet it replaces any ECS option m carries
// and enables EDNS, and the option is stored in m itself.
func (m *Message) EchoClientSubnet(q *ClientSubnet, scope uint8) {
	m.setClientSubnet(ClientSubnet{
		Family:       q.Family,
		SourcePrefix: q.SourcePrefix,
		ScopePrefix:  scope,
		Address:      q.Address,
	})
}

// ClientSubnet returns the first ECS option in the message, or nil.
func (m *Message) ClientSubnet() *ClientSubnet {
	for _, o := range m.Options {
		if ecs, ok := o.(*ClientSubnet); ok {
			return ecs
		}
	}
	return nil
}

// SetClientSubnet attaches a query-side ECS option for addr/sourcePrefix,
// replacing any existing ECS option and enabling EDNS.
func (m *Message) SetClientSubnet(addr netip.Addr, sourcePrefix uint8) error {
	ecs, err := NewClientSubnet(addr, sourcePrefix)
	if err != nil {
		return err
	}
	m.setClientSubnet(*ecs)
	return nil
}

// setClientSubnet stores c as the message's one ECS option and enables
// EDNS.
func (m *Message) setClientSubnet(c ClientSubnet) {
	m.EDNS = true
	if m.UDPSize == 0 {
		m.UDPSize = DefaultUDPSize
	}
	out := m.Options[:0]
	for _, o := range m.Options {
		if o.Code() != OptionCodeClientSubnet {
			out = append(out, o)
		}
	}
	m.ecs = c
	m.Options = append(out, &m.ecs)
}

// compressorPool recycles compressors across Pack calls, so the serving
// hot path does not allocate one per response.
var compressorPool = sync.Pool{
	New: func() any { return new(compressor) },
}

// Pack encodes the message to wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack encodes the message into buf, which must be empty (length
// zero): compression offsets are relative to the start of the buffer. The
// buffer's capacity is reused, so callers can recycle wire buffers across
// messages (e.g. via a sync.Pool) and pack without allocating.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: AppendPack buffer must be empty", ErrPack)
	}
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.OpCode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xF)

	additionals := len(m.Additionals)
	if m.EDNS {
		additionals++
	}
	for _, n := range []int{len(m.Questions), len(m.Answers), len(m.Authorities), additionals} {
		if n > 0xFFFF {
			return nil, fmt.Errorf("%w: section count %d overflows", ErrPack, n)
		}
	}

	buf = appendUint16(buf, m.ID)
	buf = appendUint16(buf, flags)
	buf = appendUint16(buf, uint16(len(m.Questions)))
	buf = appendUint16(buf, uint16(len(m.Answers)))
	buf = appendUint16(buf, uint16(len(m.Authorities)))
	buf = appendUint16(buf, uint16(additionals))

	cmp := compressorPool.Get().(*compressor)
	defer func() {
		cmp.reset()
		compressorPool.Put(cmp)
	}()
	var err error
	for _, q := range m.Questions {
		if buf, err = q.pack(buf, cmp); err != nil {
			return nil, err
		}
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if buf, err = rr.pack(buf, cmp); err != nil {
				return nil, err
			}
		}
	}
	if m.EDNS {
		size := m.UDPSize
		if size == 0 {
			size = DefaultUDPSize
		}
		extRCode := uint32(m.RCode>>4) & 0xFF
		// The OPT record, written in place rather than boxed as an RR:
		// root owner, the UDP size as its class, the extended RCODE in
		// its TTL.
		if buf, err = packHeader(buf, "", TypeOPT, Class(size), extRCode<<24, cmp); err != nil {
			return nil, err
		}
		lenAt := len(buf) - 2
		if buf, err = packOptions(buf, m.Options); err != nil {
			return nil, err
		}
		return setRDLength(buf, lenAt)
	}
	return buf, nil
}

// Reset clears the message for reuse, keeping the capacity of its section
// slices and of the storage it owns, so a recycled message can be unpacked
// or built into without reallocating. Names decoded into m and records
// appended with AnswerA are written over by what follows.
func (m *Message) Reset() {
	m.Header = Header{}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authorities = m.Authorities[:0]
	m.Additionals = m.Additionals[:0]
	m.EDNS = false
	m.UDPSize = 0
	clear(m.Options)
	m.Options = m.Options[:0]
	m.names = m.names[:0]
	m.as = m.as[:0]
}

// Unpack decodes a wire-format message. Its names are its own: nothing
// decoded later writes over them.
func Unpack(wire []byte) (*Message, error) {
	m := &Message{}
	if err := UnpackInto(m, wire); err != nil {
		return nil, err
	}
	m.names = nil // a later UnpackInto of m decodes into a new arena
	return m, nil
}

// UnpackInto decodes a wire-format message into m, resetting it first.
// Reusing one message across datagrams is how a server decodes without
// allocating: the section slices, the first ECS option and the names all
// land in storage m keeps. Every name decoded — in the question, in a
// record, in RDATA — aliases m's name arena, and so does every name in a
// reply built with m.Reply: they hold until the next UnpackInto of m
// writes over them. A caller that keeps a name longer copies it
// (strings.Clone); Unpack returns names that are never written over.
// RData values other than names still allocate.
func UnpackInto(m *Message, wire []byte) error {
	m.Reset()
	if len(wire) < 12 {
		return ErrBufferTooSmall
	}
	m.ID = binary.BigEndian.Uint16(wire)
	flags := binary.BigEndian.Uint16(wire[2:])
	m.Response = flags&(1<<15) != 0
	m.OpCode = OpCode(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(wire[4:]))
	an := int(binary.BigEndian.Uint16(wire[6:]))
	ns := int(binary.BigEndian.Uint16(wire[8:]))
	ar := int(binary.BigEndian.Uint16(wire[10:]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		if q, off, err = unpackQuestion(wire, off, &m.names); err != nil {
			return err
		}
		m.Questions = append(m.Questions, q)
	}
	for _, sec := range []struct {
		n   int
		dst *[]RR
	}{{an, &m.Answers}, {ns, &m.Authorities}, {ar, &m.Additionals}} {
		for i := 0; i < sec.n; i++ {
			var rr RR
			var opt []byte
			if rr, opt, off, err = unpackRR(wire, off, &m.names); err != nil {
				return err
			}
			if rr.Data == nil {
				// The OPT record: its options go straight into m.Options,
				// the first ECS option into m's own.
				if m.EDNS {
					return fmt.Errorf("%w: multiple OPT records", ErrUnpack)
				}
				opts, err := appendOptions(m.Options, &m.ecs, opt)
				if err != nil {
					return err
				}
				m.Options = opts
				m.EDNS = true
				m.UDPSize = uint16(rr.Class)
				m.RCode |= RCode(rr.TTL>>24&0xFF) << 4
				continue
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return nil
}

// String renders the message in a dig-like multi-section format.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; id %d %s", m.ID, m.RCode)
	if m.Response {
		sb.WriteString(" qr")
	}
	if m.Authoritative {
		sb.WriteString(" aa")
	}
	if m.RecursionDesired {
		sb.WriteString(" rd")
	}
	if m.RecursionAvailable {
		sb.WriteString(" ra")
	}
	if m.EDNS {
		fmt.Fprintf(&sb, " edns(udp=%d", m.UDPSize)
		for _, o := range m.Options {
			fmt.Fprintf(&sb, " %v", o)
		}
		sb.WriteString(")")
	}
	sb.WriteString("\n")
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";; question: %s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&sb, "%s\n", rr)
	}
	for _, rr := range m.Authorities {
		fmt.Fprintf(&sb, ";; authority: %s\n", rr)
	}
	for _, rr := range m.Additionals {
		fmt.Fprintf(&sb, ";; additional: %s\n", rr)
	}
	return sb.String()
}
