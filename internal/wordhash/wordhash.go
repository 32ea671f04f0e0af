// Package wordhash is the hash the map's fingerprints are taken with: the
// platform fingerprint a wire image's header carries and the layout
// fingerprint a replica names its base by. It folds eight bytes per step
// with xxHash64's round and finishes with xxHash64's avalanche, so every
// input bit reaches every bit of the sum. Publisher and replica both
// compute it, so its values are part of the wire format.
package wordhash

import (
	"math/bits"
	"unsafe"
)

// The xxHash64 primes.
const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime5 = 0x27D4EB2F165667C5
)

// Hash accumulates words; the zero value is not ready, New is.
type Hash struct{ acc uint64 }

// New returns an empty hash.
func New() Hash { return Hash{acc: prime5} }

// Word folds one 64-bit word into the hash.
func (h *Hash) Word(v uint64) {
	h.acc = bits.RotateLeft64(h.acc+v*prime2, 31) * prime1
}

// String folds a string's length, then its bytes eight to a word,
// little-endian, the last word zero-padded.
func (h *Hash) String(s string) {
	h.Word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.Word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	var w uint64
	for i := len(s) - 1; i >= 0; i-- {
		w = w<<8 | uint64(s[i])
	}
	if len(s) > 0 {
		h.Word(w)
	}
}

// Column folds a column's length, then its values packed little-endian
// into words — eight bytes, four u16s, two u32s or one u64 each — the last
// word zero-padded. The packing is by value, not by memory, so hosts of
// either byte order agree.
func Column[E uint8 | uint16 | uint32 | uint64](h *Hash, col []E) {
	h.Word(uint64(len(col)))
	width := 8 * uint(unsafe.Sizeof(E(0)))
	var w uint64
	var n uint
	for _, v := range col {
		w |= uint64(v) << n
		if n += width; n == 64 {
			h.Word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.Word(w)
	}
}

// Sum returns the hash of everything folded in so far.
func (h *Hash) Sum() uint64 {
	z := h.acc
	z ^= z >> 33
	z *= prime2
	z ^= z >> 29
	z *= prime3
	return z ^ z>>32
}
