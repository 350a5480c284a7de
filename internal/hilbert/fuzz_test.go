package hilbert

import (
	"testing"

	"stpq/internal/kwset"
)

// fuzzWidths exercises single-word, exact-boundary and multi-word layouts.
var fuzzWidths = []int{1, 7, 63, 64, 65, 128, 200, 512}

// bytesToSet interprets raw fuzz bytes as a keyword bitvector of the given
// width: byte i contributes bits 8i..8i+7, truncated at width.
func bytesToSet(raw []byte, width int) kwset.Set {
	s := kwset.NewSet(width)
	for i, b := range raw {
		for j := 0; j < 8; j++ {
			id := i*8 + j
			if id >= width {
				return s
			}
			if b&(1<<uint(j)) != 0 {
				s.Add(id)
			}
		}
	}
	return s
}

// FuzzHilbertKeywordRoundtrip fuzzes the order-1 hypercube mapping H(t.W)
// (paper Section 4.2) over large vocabularies: EncodeKeywords and
// DecodeKeywords must be mutually inverse, and the node-update rule
// (decode → OR → re-encode, both the Value-level UpdateNodeValue and the
// set-level NodeUpdateKeywords) must coincide with encoding the plain
// bitwise union.
func FuzzHilbertKeywordRoundtrip(f *testing.F) {
	f.Add([]byte{0x00}, []byte{0x00})
	f.Add([]byte{0x01}, []byte{0x80})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0x00})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, []byte{0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add(make([]byte, 64), []byte{0xaa, 0x55})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		for _, w := range fuzzWidths {
			a := bytesToSet(rawA, w)
			b := bytesToSet(rawB, w)

			// Inverse pair: decode(encode(x)) == x.
			ha := EncodeKeywords(a, w)
			if back := DecodeKeywords(ha); !back.Equal(a) {
				t.Fatalf("w=%d: decode(encode(a)) = %v, want %v", w, back, a)
			}
			hb := EncodeKeywords(b, w)
			if back := DecodeKeywords(hb); !back.Equal(b) {
				t.Fatalf("w=%d: decode(encode(b)) = %v, want %v", w, back, b)
			}

			// Node-update rule ≡ encode of the OR'd bitset.
			want := a.Union(b)
			updated := UpdateNodeValue(ha, hb)
			if updated.Cmp(EncodeKeywords(want, w)) != 0 {
				t.Fatalf("w=%d: UpdateNodeValue != encode(a ∪ b)", w)
			}
			if got := DecodeKeywords(updated); !got.Equal(want) {
				t.Fatalf("w=%d: decode(UpdateNodeValue) = %v, want %v", w, got, want)
			}
			if got := NodeUpdateKeywords(a, b, w); !got.Equal(want) {
				t.Fatalf("w=%d: NodeUpdateKeywords = %v, want %v", w, got, want)
			}

			// The rule is idempotent and commutative, as a summary must be.
			if again := UpdateNodeValue(updated, hb); again.Cmp(updated) != 0 {
				t.Fatalf("w=%d: node update not idempotent", w)
			}
			if rev := UpdateNodeValue(hb, ha); rev.Cmp(updated) != 0 {
				t.Fatalf("w=%d: node update not commutative", w)
			}
		}
	})
}

// FuzzHilbertEncode holds Encode, Encode2D and Encode4D to the branchy
// reference transform at any point of any order from 1 to 16, for one to
// four dimensions.
func FuzzHilbertEncode(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint8(15))
	f.Add(uint32(0xffff), uint32(0x8000), uint32(1), uint32(0x7fff), uint8(15))
	f.Add(uint32(5), uint32(3), uint32(6), uint32(0), uint8(2))
	f.Fuzz(func(t *testing.T, a, b, c, d uint32, order uint8) {
		bits := uint(order%16) + 1
		mask := uint32(1)<<bits - 1
		p := []uint32{a & mask, b & mask, c & mask, d & mask}
		for n := 1; n <= 4; n++ {
			checkEncode(t, p[:n], bits)
		}
	})
}
