package wordhash

import (
	"math/bits"
	"testing"
)

func sum(f func(h *Hash)) uint64 {
	h := New()
	f(&h)
	return h.Sum()
}

// TestEveryBitReachesTheSum: flipping any one bit of either of two words
// moves the sum, by at least a sixth of its bits, and to a value no other
// flip gives.
func TestEveryBitReachesTheSum(t *testing.T) {
	base := sum(func(h *Hash) { h.Word(0x0123456789abcdef); h.Word(0xfedcba9876543210) })
	seen := map[uint64]string{base: "no flip"}
	for word := 0; word < 2; word++ {
		for b := 0; b < 64; b++ {
			ws := [2]uint64{0x0123456789abcdef, 0xfedcba9876543210}
			ws[word] ^= 1 << b
			got := sum(func(h *Hash) { h.Word(ws[0]); h.Word(ws[1]) })
			if moved := bits.OnesCount64(got ^ base); moved < 11 {
				t.Errorf("flipping bit %d of word %d moves %d bits of the sum", b, word, moved)
			}
			if prev, ok := seen[got]; ok {
				t.Errorf("flipping bit %d of word %d sums as %s does", b, word, prev)
			}
			seen[got] = "another flip"
		}
	}
}

// TestPacking: a column packs its values little-endian into words after
// its length, and a string its bytes, so each hashes as those words do;
// and the length keeps columns of the same words apart.
func TestPacking(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"u16 column", sum(func(h *Hash) { Column(h, []uint16{1, 2, 3, 4, 5}) }),
			sum(func(h *Hash) { h.Word(5); h.Word(1 | 2<<16 | 3<<32 | 4<<48); h.Word(5) })},
		{"u8 column", sum(func(h *Hash) { Column(h, []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9}) }),
			sum(func(h *Hash) { h.Word(9); h.Word(0x0807060504030201); h.Word(9) })},
		{"u32 column", sum(func(h *Hash) { Column(h, []uint32{1, 2, 3}) }),
			sum(func(h *Hash) { h.Word(3); h.Word(1 | 2<<32); h.Word(3) })},
		{"u64 column", sum(func(h *Hash) { Column(h, []uint64{7, 8}) }),
			sum(func(h *Hash) { h.Word(2); h.Word(7); h.Word(8) })},
		{"string", sum(func(h *Hash) { h.String("abcdefghij") }),
			sum(func(h *Hash) { h.Word(10); h.Word(0x6867666564636261); h.Word('i' | 'j'<<8) })},
	} {
		if c.got != c.want {
			t.Errorf("%s: %#x, its words hash to %#x", c.name, c.got, c.want)
		}
	}
	if sum(func(h *Hash) { Column(h, []uint8{0}) }) == sum(func(h *Hash) { Column(h, []uint8{0, 0}) }) {
		t.Error("columns of one and two zero bytes hash alike")
	}
	if sum(func(h *Hash) { h.String("") }) == sum(func(h *Hash) {}) {
		t.Error("an empty string adds nothing to the hash")
	}
}
