package dnsmsg

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// EDNS0 option codes.
const (
	// OptionCodeClientSubnet is the EDNS Client Subnet option code
	// (RFC 7871 §6), the protocol extension end-user mapping depends on.
	OptionCodeClientSubnet uint16 = 8
)

// ECS address family numbers (RFC 7871 §6, from the IANA address family
// registry).
const (
	ECSFamilyIPv4 uint16 = 1
	ECSFamilyIPv6 uint16 = 2
)

// DefaultUDPSize is the EDNS0 UDP payload size this package advertises.
const DefaultUDPSize = 1232

// EDNSOption is a single option inside an OPT pseudo-RR.
type EDNSOption interface {
	// Code returns the option's EDNS0 option code.
	Code() uint16
	// packOption appends the option data (without the code/length header).
	packOption(buf []byte) ([]byte, error)
}

// OPT is the EDNS0 pseudo-RR (RFC 6891). Its header fields are smuggled
// through the RR's Class (UDP payload size) and TTL (extended RCODE, EDNS
// version, DO bit), which Message handles during pack/unpack.
type OPT struct {
	Options []EDNSOption
}

// Type implements RData.
func (*OPT) Type() Type { return TypeOPT }

func (o *OPT) packData(buf []byte, _ *compressor) ([]byte, error) {
	return packOptions(buf, o.Options)
}

// packOptions appends the wire form of an OPT record's options.
func packOptions(buf []byte, opts []EDNSOption) ([]byte, error) {
	for _, opt := range opts {
		buf = appendUint16(buf, opt.Code())
		lenAt := len(buf)
		buf = appendUint16(buf, 0)
		var err error
		buf, err = opt.packOption(buf)
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint16(buf[lenAt:], uint16(len(buf)-lenAt-2))
	}
	return buf, nil
}

// String lists the contained options.
func (o *OPT) String() string { return fmt.Sprintf("OPT %v", o.Options) }

// appendOptions decodes the options in an OPT record's RDATA onto out.
// The first ECS option is decoded into *ecs when ecs is not nil, so a
// message decodes it into storage of its own; every other option is
// allocated.
func appendOptions(out []EDNSOption, ecs *ClientSubnet, rd []byte) ([]EDNSOption, error) {
	for len(rd) > 0 {
		if len(rd) < 4 {
			return nil, fmt.Errorf("%w: truncated EDNS option header", ErrUnpack)
		}
		code := binary.BigEndian.Uint16(rd)
		olen := int(binary.BigEndian.Uint16(rd[2:]))
		if 4+olen > len(rd) {
			return nil, fmt.Errorf("%w: truncated EDNS option body", ErrUnpack)
		}
		body := rd[4 : 4+olen]
		switch code {
		case OptionCodeClientSubnet:
			c := ecs
			if c == nil {
				c = new(ClientSubnet)
			}
			ecs = nil
			if err := c.unpack(body); err != nil {
				return nil, err
			}
			out = append(out, c)
		default:
			cp := make([]byte, olen)
			copy(cp, body)
			out = append(out, &RawOption{OptCode: code, Data: cp})
		}
		rd = rd[4+olen:]
	}
	return out, nil
}

// RawOption preserves unknown EDNS options byte-for-byte.
type RawOption struct {
	OptCode uint16
	Data    []byte
}

// Code implements EDNSOption.
func (r *RawOption) Code() uint16 { return r.OptCode }

func (r *RawOption) packOption(buf []byte) ([]byte, error) {
	return append(buf, r.Data...), nil
}

// String hex-dumps the option.
func (r *RawOption) String() string { return fmt.Sprintf("opt%d:%x", r.OptCode, r.Data) }

// ClientSubnet is the EDNS Client Subnet option (RFC 7871).
//
// In a query, the LDNS sets Address to (a truncation of) the client's IP
// and SourcePrefix to the number of significant bits it is revealing —
// conventionally 24 for IPv4, since longer prefixes are discouraged for
// privacy (paper §2.1). ScopePrefix MUST be 0 in queries.
//
// In a response, the authoritative server echoes Address and SourcePrefix
// and sets ScopePrefix to the prefix length its answer is valid for. A
// scope shorter than the source ("/y where y <= x") tells caches the answer
// covers a superset of the client's block; scope 0 means the answer does
// not depend on the client subnet at all.
type ClientSubnet struct {
	Family       uint16     // ECSFamilyIPv4 or ECSFamilyIPv6
	SourcePrefix uint8      // significant bits of Address in the query
	ScopePrefix  uint8      // bits the answer is valid for (response only)
	Address      netip.Addr // client address, zeroed beyond SourcePrefix

	// NonZeroPad records that the option arrived off the wire with address
	// bits set beyond SOURCE PREFIX-LENGTH — a violation of RFC 7871 §6
	// ("MUST be set to 0") that §7.1.2 tells servers to answer with
	// FORMERR. Unpack preserves the wire address so callers can log or
	// reject it; packOption always re-masks, so the violation never
	// propagates back onto the wire.
	NonZeroPad bool
}

// NewClientSubnet builds a query-side ECS option for the given client
// address and source prefix length, masking the address down to the prefix
// as RFC 7871 §6 requires ("MUST be set to 0" beyond SOURCE PREFIX-LENGTH).
func NewClientSubnet(addr netip.Addr, sourcePrefix uint8) (*ClientSubnet, error) {
	family := ECSFamilyIPv4
	maxBits := uint8(32)
	if addr.Is6() && !addr.Is4In6() {
		family = ECSFamilyIPv6
		maxBits = 128
	} else {
		addr = addr.Unmap()
	}
	if sourcePrefix > maxBits {
		return nil, fmt.Errorf("%w: ECS source prefix /%d exceeds address width", ErrPack, sourcePrefix)
	}
	p, err := addr.Prefix(int(sourcePrefix))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPack, err)
	}
	return &ClientSubnet{
		Family:       family,
		SourcePrefix: sourcePrefix,
		Address:      p.Addr(),
	}, nil
}

// Code implements EDNSOption.
func (*ClientSubnet) Code() uint16 { return OptionCodeClientSubnet }

// Prefix returns the option's address block as a netip.Prefix using the
// source prefix length.
func (c *ClientSubnet) Prefix() netip.Prefix {
	p, err := c.Address.Prefix(int(c.SourcePrefix))
	if err != nil {
		return netip.Prefix{}
	}
	return p
}

// ScopedPrefixChecked returns the address block a cache should file the
// response's answer under. RFC 7871 §7.3.1: a scope of 0 means the answer
// is valid for all addresses, but the cache entry is still stored under
// the query's source prefix — so scope 0 falls back to SourcePrefix
// rather than producing a /0 that would let one client's answer shadow
// the whole address family.
//
// A malformed response can carry a SCOPE PREFIX-LENGTH beyond the address
// family's bit length (33+ for IPv4, 129+ for IPv6); that surfaces as
// ErrECSScope so callers can drop the answer instead of filing it under a
// zero prefix.
func (c *ClientSubnet) ScopedPrefixChecked() (netip.Prefix, error) {
	bits := int(c.ScopePrefix)
	if bits == 0 {
		bits = int(c.SourcePrefix)
	}
	p, err := c.Address.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("%w: scope /%d for %v", ErrECSScope, bits, c.Address)
	}
	return p, nil
}

// ScopedPrefix is ScopedPrefixChecked for callers that treat a malformed
// scope as "no usable prefix": it returns the zero netip.Prefix (IsValid
// false) when the scope exceeds the address family.
func (c *ClientSubnet) ScopedPrefix() netip.Prefix {
	p, err := c.ScopedPrefixChecked()
	if err != nil {
		return netip.Prefix{}
	}
	return p
}

// QueryConformant reports whether the option is legal in a query per RFC
// 7871 §7.1.2: every address bit beyond SOURCE PREFIX-LENGTH zero, and
// SCOPE PREFIX-LENGTH zero. A server receiving a non-conformant option
// must answer FORMERR instead of accepting it.
func (c *ClientSubnet) QueryConformant() bool {
	return !c.NonZeroPad && c.ScopePrefix == 0
}

// String renders like "ecs 1.2.3.0/24/0".
func (c *ClientSubnet) String() string {
	return fmt.Sprintf("ecs %s/%d/%d", c.Address, c.SourcePrefix, c.ScopePrefix)
}

func (c *ClientSubnet) packOption(buf []byte) ([]byte, error) {
	var addrBytes []byte
	switch c.Family {
	case ECSFamilyIPv4:
		if !c.Address.Is4() && !c.Address.Is4In6() {
			return nil, fmt.Errorf("%w: ECS family IPv4 with address %v", ErrPack, c.Address)
		}
		b := c.Address.Unmap().As4()
		addrBytes = b[:]
		if c.SourcePrefix > 32 {
			return nil, fmt.Errorf("%w: ECS IPv4 source prefix /%d", ErrPack, c.SourcePrefix)
		}
		if c.ScopePrefix > 32 {
			return nil, fmt.Errorf("%w: ECS IPv4 scope prefix /%d", ErrPack, c.ScopePrefix)
		}
	case ECSFamilyIPv6:
		if !c.Address.Is6() {
			return nil, fmt.Errorf("%w: ECS family IPv6 with address %v", ErrPack, c.Address)
		}
		b := c.Address.As16()
		addrBytes = b[:]
		if c.SourcePrefix > 128 {
			return nil, fmt.Errorf("%w: ECS IPv6 source prefix /%d", ErrPack, c.SourcePrefix)
		}
		if c.ScopePrefix > 128 {
			return nil, fmt.Errorf("%w: ECS IPv6 scope prefix /%d", ErrPack, c.ScopePrefix)
		}
	default:
		return nil, fmt.Errorf("%w: ECS family %d", ErrPack, c.Family)
	}
	buf = appendUint16(buf, c.Family)
	buf = append(buf, c.SourcePrefix, c.ScopePrefix)
	// RFC 7871 §6: ADDRESS is truncated to the minimum bytes covering
	// SOURCE PREFIX-LENGTH bits, and bits beyond the prefix MUST be 0 —
	// mask the final partial byte so a hand-built option with an unmasked
	// address still packs conformantly.
	nbytes := (int(c.SourcePrefix) + 7) / 8
	buf = append(buf, addrBytes[:nbytes]...)
	if r := c.SourcePrefix % 8; r != 0 {
		buf[len(buf)-1] &= 0xFF << (8 - r)
	}
	return buf, nil
}

// unpack decodes an ECS option body into c.
func (c *ClientSubnet) unpack(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("%w: ECS option shorter than 4 octets", ErrUnpack)
	}
	*c = ClientSubnet{
		Family:       binary.BigEndian.Uint16(body),
		SourcePrefix: body[2],
		ScopePrefix:  body[3],
	}
	addrLen := (int(c.SourcePrefix) + 7) / 8
	if len(body) != 4+addrLen {
		return fmt.Errorf("%w: ECS address length %d does not match source prefix /%d",
			ErrUnpack, len(body)-4, c.SourcePrefix)
	}
	switch c.Family {
	case ECSFamilyIPv4:
		if c.SourcePrefix > 32 {
			return fmt.Errorf("%w: ECS IPv4 source prefix /%d", ErrUnpack, c.SourcePrefix)
		}
		if c.ScopePrefix > 32 {
			// RFC 7871 §7.3: a response scope wider than the family's bit
			// length is malformed; accepting it would leave caches with a
			// prefix they cannot represent. ErrECSScope under ErrUnpack so
			// callers can classify either way.
			return fmt.Errorf("%w: %w: IPv4 scope /%d", ErrUnpack, ErrECSScope, c.ScopePrefix)
		}
		var b [4]byte
		copy(b[:], body[4:])
		c.Address = netip.AddrFrom4(b)
	case ECSFamilyIPv6:
		if c.SourcePrefix > 128 {
			return fmt.Errorf("%w: ECS IPv6 source prefix /%d", ErrUnpack, c.SourcePrefix)
		}
		if c.ScopePrefix > 128 {
			return fmt.Errorf("%w: %w: IPv6 scope /%d", ErrUnpack, ErrECSScope, c.ScopePrefix)
		}
		var b [16]byte
		copy(b[:], body[4:])
		c.Address = netip.AddrFrom16(b)
	default:
		return fmt.Errorf("%w: ECS family %d", ErrUnpack, c.Family)
	}
	// RFC 7871 §6 requires every address bit beyond SOURCE PREFIX-LENGTH
	// to be zero. The length check above already rejects surplus whole
	// bytes, so only the final partial byte can smuggle bits in. Flag the
	// violation rather than failing the whole message parse: responders
	// need the parsed message (ID, question) to answer FORMERR per §7.1.2.
	if r := c.SourcePrefix % 8; r != 0 {
		if body[4+addrLen-1]&^(0xFF<<(8-r)) != 0 {
			c.NonZeroPad = true
		}
	}
	return nil
}
