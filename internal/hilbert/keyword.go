package hilbert

import (
	"fmt"
	"math/bits"

	"stpq/internal/kwset"
)

// Value is a w-bit Hilbert value H(t.W) of a keyword bitvector, stored as
// little-endian 64-bit words (word 0 holds bits 0..63, bit w−1 is the most
// significant). Values of equal width are totally ordered by Cmp.
type Value struct {
	words []uint64
	w     int
}

// NewValue returns the zero value of the given bit width.
func NewValue(width int) Value {
	return Value{words: make([]uint64, (width+63)/64), w: width}
}

// Width returns the bit width of the value.
func (v Value) Width() int { return v.w }

// Bit returns bit j of the value (j=0 least significant).
func (v Value) Bit(j int) bool {
	if j < 0 || j/64 >= len(v.words) {
		return false
	}
	return v.words[j/64]&(1<<(uint(j)%64)) != 0
}

// setBit sets bit j.
func (v *Value) setBit(j int) {
	v.words[j/64] |= 1 << (uint(j) % 64)
}

// Cmp compares v and u as unsigned integers: −1 if v<u, 0 if equal, +1 if
// v>u. Values of different widths compare by numeric value.
func (v Value) Cmp(u Value) int {
	n := len(v.words)
	if len(u.words) > n {
		n = len(u.words)
	}
	for i := n - 1; i >= 0; i-- {
		var a, b uint64
		if i < len(v.words) {
			a = v.words[i]
		}
		if i < len(u.words) {
			b = u.words[i]
		}
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the value in hexadecimal for debugging.
func (v Value) String() string {
	s := ""
	for i := len(v.words) - 1; i >= 0; i-- {
		s += fmt.Sprintf("%016x", v.words[i])
	}
	return "0x" + s
}

// EncodeKeywords maps a keyword bitvector to its Hilbert value on the
// order-1 Hilbert curve through the w-dimensional hypercube (paper
// Section 4.2). width fixes the vocabulary size w; keyword ids ≥ width are
// ignored. The mapping is a bijection, and consecutive Hilbert values
// always differ in exactly one keyword (Gray property), so a run of
// Hilbert-adjacent features shares most keywords.
//
// Construction: the hypercube walk is the binary-reflected Gray code under
// the bit role assignment that reproduces the paper's Figure 5 — keyword 0
// (the "first place" keyword) acts as the most significant Gray bit and
// keyword i (i ≥ 1) as Gray bit i−1. The Hilbert value is then the Gray
// rank, obtained by prefix-XOR from the most significant bit.
func EncodeKeywords(set kwset.Set, width int) Value {
	g := NewValue(width)
	if set.Has(0) {
		g.setBit(width - 1)
	}
	set.ForEach(func(id int) {
		if id >= 1 && id < width {
			g.setBit(id - 1)
		}
	})
	return grayToBinary(g)
}

// KeywordMinHash returns the SRT bulk loader's keyword coordinate: the top
// nbits bits (1 to 32) of the least splitmix64 image of the set's ids, all
// ones for the empty set. It is a MinHash: two sets share it with
// probability about their Jaccard similarity, so similar keyword sets sort
// together, and every id can move it. It replaces the top bits of H(t.W)
// for the sort only (DESIGN.md §4): bit j of that rank depends on id 0 and
// the ids above j alone, so at 128 keywords 16 ids decided it and most
// features shared one value. Because it is a minimum,
// KeywordMinHash(A ∪ B) = min(KeywordMinHash(A), KeywordMinHash(B)).
func KeywordMinHash(set kwset.Set, nbits uint) uint32 {
	if nbits == 0 || nbits > 32 {
		panic("hilbert: KeywordMinHash bits must be in [1,32]")
	}
	least := ^uint64(0)
	for i, word := range set.WordsBits() {
		for ; word != 0; word &= word - 1 {
			least = min(least, splitmix64(uint64(i*64+bits.TrailingZeros64(word))))
		}
	}
	return uint32(least >> (64 - nbits))
}

// splitmix64 is the finalizer of Steele, Lea and Flood's SplitMix64
// generator (its state step included): a fixed bijection on 64-bit words
// whose outputs for consecutive inputs look independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// DecodeKeywords is the inverse of EncodeKeywords: it recovers the keyword
// bitvector from a Hilbert value. It is the "mapped to binary vectors" half
// of the node-update rule in Section 4.2.
func DecodeKeywords(v Value) kwset.Set {
	g := binaryToGray(v)
	out := kwset.NewSet(v.w)
	if g.Bit(v.w - 1) {
		out.Add(0)
	}
	for j := 0; j < v.w-1; j++ {
		if g.Bit(j) {
			out.Add(j + 1)
		}
	}
	return out
}

// UpdateNodeValue implements the SRT node maintenance rule of Section 4.2:
// the previous aggregated Hilbert value and the Hilbert value of a newly
// inserted object are mapped back to binary vectors, their disjunction is
// computed, and the result is re-encoded as the node's new Hilbert value.
func UpdateNodeValue(prev, added Value) Value {
	a := DecodeKeywords(prev)
	b := DecodeKeywords(added)
	a.UnionInPlace(b)
	return EncodeKeywords(a, prev.w)
}

// NodeUpdateKeywords applies the Section 4.2 node-update rule to keyword
// bitvectors: the previous node summary and the inserted entry's keywords
// are encoded to Hilbert values, merged with UpdateNodeValue (decode → OR →
// re-encode), and the result decoded back to a bitvector. Because
// EncodeKeywords is a bijection this equals the plain bitwise union; the
// live insertion path routes through it so the paper's rule is what
// actually maintains node summaries online.
func NodeUpdateKeywords(prev, added kwset.Set, width int) kwset.Set {
	merged := UpdateNodeValue(EncodeKeywords(prev, width), EncodeKeywords(added, width))
	return DecodeKeywords(merged)
}

// grayToBinary converts a Gray-coded value to its rank: b_{w-1} = g_{w-1},
// b_j = b_{j+1} XOR g_j. Runs in O(w) bit operations using word-level
// carry-less prefix parity.
func grayToBinary(g Value) Value {
	b := NewValue(g.w)
	acc := 0 // running parity of gray bits above the current position
	for i := len(g.words) - 1; i >= 0; i-- {
		word := g.words[i]
		// Compute prefix XOR within the word from the MSB side.
		// p_j = parity of bits j..63 of word (plus acc).
		p := word
		p ^= p >> 1
		p ^= p >> 2
		p ^= p >> 4
		p ^= p >> 8
		p ^= p >> 16
		p ^= p >> 32
		if acc != 0 {
			p = ^p
		}
		b.words[i] = p
		acc = int(p & 1) // parity including all higher bits
	}
	// Mask stray bits beyond width.
	if g.w%64 != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(g.w%64)) - 1
	}
	return b
}

// binaryToGray converts a rank back to Gray code: g = b XOR (b >> 1),
// where the shift is across word boundaries.
func binaryToGray(b Value) Value {
	g := NewValue(b.w)
	for i := 0; i < len(b.words); i++ {
		shifted := b.words[i] >> 1
		if i+1 < len(b.words) {
			shifted |= b.words[i+1] << 63
		}
		g.words[i] = b.words[i] ^ shifted
	}
	return g
}

// OnesCount returns the number of set bits in the value (for tests).
func (v Value) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}
