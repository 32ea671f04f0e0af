package dnsmsg

import (
	"fmt"
	"strings"
	"unsafe"
)

// Name is a fully-qualified domain name in presentation form. Names are
// stored without a trailing dot; the root zone is the empty string.
// Comparison and compression are case-insensitive per RFC 1035 §2.3.3.
type Name string

// Canonical returns the name lower-cased with any trailing dot removed,
// the form used as map keys throughout the mapping system. Only ASCII
// letters fold (RFC 4343); a name already in that form is returned without
// allocating.
func (n Name) Canonical() Name {
	s := strings.TrimSuffix(string(n), ".")
	if !hasUpper(s) {
		return Name(s)
	}
	return Name(appendLower(nil, s))
}

// lower returns c lower-cased if it is an ASCII letter.
func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasUpper reports whether s holds an ASCII upper-case letter.
func hasUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if lower(s[i]) != s[i] {
			return true
		}
	}
	return false
}

// appendLower appends s to dst with its ASCII letters lower-cased.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		dst = append(dst, lower(s[i]))
	}
	return dst
}

// IsSubdomainOf reports whether n is equal to or a subdomain of parent.
func (n Name) IsSubdomainOf(parent Name) bool {
	ns, ps := string(n.Canonical()), string(parent.Canonical())
	if ps == "" {
		return true
	}
	return ns == ps || len(ns) > len(ps) && ns[len(ns)-len(ps)-1] == '.' && strings.HasSuffix(ns, ps)
}

// validate checks RFC 1035 length limits: each label <= 63 octets and the
// whole encoded name <= 255 octets. It scans the string directly rather
// than splitting it, so validation performs no allocation on the packing
// hot path.
func (n Name) validate() error {
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return nil
	}
	encoded := 1 // terminating root
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '.' {
			continue
		}
		l := i - start
		if l == 0 {
			return fmt.Errorf("%w: empty label in %q", ErrPack, string(n))
		}
		if l > 63 {
			return ErrLabelTooLong
		}
		encoded += 1 + l
		start = i + 1
	}
	if encoded > 255 {
		return ErrNameTooLong
	}
	return nil
}

// compressor tracks names already emitted during packing so later
// occurrences can be replaced by 2-byte compression pointers (RFC 1035
// §4.1.4). Pointers may only target offsets < 0x4000. Names match
// case-insensitively (RFC 1035 §2.3.3), so each suffix is kept as written
// and compared folded. It holds a fixed number of suffixes, which a reply
// of a few records never fills; past them, later names are written out in
// full. Its storage is one array, so a compressor is one allocation.
type compressor struct {
	n      int
	suffix [maxCompressed]string
	off    [maxCompressed]uint16
}

// maxCompressed is how many suffixes a compressor remembers.
const maxCompressed = 64

// find returns the offset an earlier suffix equal to s but for case was
// written at.
func (c *compressor) find(s string) (int, bool) {
	for i, prev := range c.suffix[:c.n] {
		if len(prev) == len(s) && equalFold(prev, s) {
			return int(c.off[i]), true
		}
	}
	return 0, false
}

// add records that suffix s is written at off, while there is room and
// off can be pointed at.
func (c *compressor) add(s string, off int) {
	if c.n < maxCompressed && off < 0x4000 {
		c.suffix[c.n], c.off[c.n] = s, uint16(off)
		c.n++
	}
}

// reset forgets every suffix.
func (c *compressor) reset() {
	clear(c.suffix[:c.n])
	c.n = 0
}

// equalFold reports whether a and b, of equal length, are the same but
// for the case of ASCII letters.
func equalFold(a, b string) bool {
	for i := 0; i < len(a); i++ {
		if lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}

// packName appends the wire encoding of n to buf, compressing against
// previously packed names (none when cmp is nil), and returns the extended
// buffer. A name keeps the case it is given, so a reply echoes its
// question byte for byte, as resolvers that randomise case (DNS 0x20)
// check; a later name that differs only in case points at the earlier
// one. Packing allocates nothing beyond buffer growth.
func packName(buf []byte, n Name, cmp *compressor) ([]byte, error) {
	if err := n.validate(); err != nil {
		return nil, err
	}
	s := strings.TrimSuffix(string(n), ".")
	for start := 0; start < len(s); {
		suffix := s[start:]
		if cmp != nil {
			if off, ok := cmp.find(suffix); ok {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			cmp.add(suffix, len(buf))
		}
		end := strings.IndexByte(suffix, '.')
		if end < 0 {
			end = len(suffix)
		}
		buf = append(buf, byte(end))
		buf = append(buf, suffix[:end]...)
		start += end + 1
	}
	return append(buf, 0), nil
}

// appendName decodes a possibly-compressed name starting at off in msg
// into the arena *names. It returns the name and the offset of the first
// byte after the name's encoding in the original (non-pointer-following)
// stream. The name aliases the bytes it appended to the arena, so it reads
// what they hold until the arena is written over (see UnpackInto). A name
// that outgrows the arena's capacity moves it to a new array, leaving the
// names already returned where they were.
func appendName(names *[]byte, msg []byte, off int) (Name, int, error) {
	buf := *names
	start := len(buf)
	// next is the offset to return: set the first time we follow a pointer.
	next := -1
	ptrHops := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrBufferTooSmall
		}
		b := msg[off]
		switch {
		case b == 0:
			if next == -1 {
				next = off + 1
			}
			*names = buf
			if len(buf) == start {
				return "", next, nil
			}
			return Name(unsafe.String(&buf[start], len(buf)-start)), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrBufferTooSmall
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			ptrHops++
			// A name has at most 127 labels; any pointer chain longer than
			// that must contain a loop.
			if ptrHops > 127 || ptr >= off {
				return "", 0, ErrCompressionLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type 0x%02x", ErrUnpack, b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrBufferTooSmall
			}
			if len(buf) > start {
				buf = append(buf, '.')
			}
			buf = append(buf, msg[off+1:off+1+l]...)
			if len(buf)-start > 255 {
				return "", 0, fmt.Errorf("%w: name too long", ErrUnpack)
			}
			off += 1 + l
		}
	}
}
