// Package hilbert implements the two Hilbert-curve constructions used by
// the stpq library.
//
// The first is a general n-dimensional Hilbert curve (Skilling's
// transformation) over quantized integer coordinates. The SRT-index bulk
// loader sorts feature objects by the Hilbert index of their mapped 4-D
// point {x, y, t.s, Ĥ(t.W)} (paper Section 4.2 with Hilbert bulk insertion
// [Kamel & Faloutsos]); the plain R-tree and IR²-tree bulk loaders use the
// 2-D specialization.
//
// The second is the keyword mapping H(t.W) of Section 4.2: the order-1
// Hilbert curve through the vertices of the w-dimensional unit hypercube,
// which linearizes keyword bitvectors so that consecutive values differ in
// exactly one keyword (a Gray-code walk). Encode/Decode work directly on
// bitsets, so vocabularies of hundreds of keywords need no big-integer
// arithmetic. For w=3 the ordering reproduces the paper's Figure 5
// (000, 010, 011, 001, 101, 111, 110, 100) exactly.
package hilbert

// Encode returns the Hilbert index of the point with the given coordinates
// on the n-dimensional Hilbert curve of order `bits` (each coordinate in
// [0, 2^bits)). n*bits must be at most 64. The mapping is a bijection
// between coordinate space and [0, 2^(n*bits)).
func Encode(coords []uint32, bits uint) uint64 {
	return encodeInPlace(append([]uint32(nil), coords...), bits)
}

// encodeInPlace is Encode over coordinates it may overwrite. It keeps no
// reference to x, so Encode2D's and Encode4D's slices stay on the stack.
func encodeInPlace(x []uint32, bits uint) uint64 {
	axesToTranspose(x, bits)
	// Interleave: bit (bits-1) of x[0] is the most significant index bit.
	var h uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := range x {
			h = (h << 1) | uint64((x[i]>>uint(b))&1)
		}
	}
	return h
}

// Decode is the inverse of Encode: it fills coords with the point at index
// h on the n-dimensional Hilbert curve of order `bits`, where n =
// len(coords).
func Decode(h uint64, coords []uint32, bits uint) {
	n := len(coords)
	for i := range coords {
		coords[i] = 0
	}
	// De-interleave.
	for b := 0; b < int(bits); b++ {
		for i := n - 1; i >= 0; i-- {
			coords[i] |= uint32(h&1) << uint(b)
			h >>= 1
		}
	}
	transposeToAxes(coords, bits)
}

// axesToTranspose converts coordinates into the "transposed" Hilbert index
// in place (Skilling, "Programming the Hilbert curve", AIP 2004), without
// his branch per bit: bit k of x[i] becomes the mask m, which selects between
// flipping the low bits of x[0] (t = 0) and exchanging them with x[i]'s.
func axesToTranspose(x []uint32, bits uint) {
	n := len(x)
	if n == 0 || bits == 0 {
		return
	}
	// Inverse undo.
	for k := bits - 1; k > 0; k-- {
		p := uint32(1)<<k - 1
		for i := range x {
			m := -(x[i] >> k & 1)
			t := (x[0] ^ x[i]) & p &^ m
			x[0] ^= p&m | t
			x[i] ^= t
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for k := bits - 1; k > 0; k-- {
		t ^= (uint32(1)<<k - 1) & -(x[n-1] >> k & 1)
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x []uint32, bits uint) {
	n := len(x)
	if n == 0 || bits == 0 {
		return
	}
	// Gray decode.
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != uint32(1)<<bits; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				tt := (x[0] ^ x[i]) & p
				x[0] ^= tt
				x[i] ^= tt
			}
		}
	}
}

// Encode2D returns the Hilbert index of (x, y) on the 2-D curve of order
// `bits`; it is the sort key of the classic Hilbert-packed R-tree.
func Encode2D(x, y uint32, bits uint) uint64 {
	return encodeInPlace([]uint32{x, y}, bits)
}

// Encode4D returns the Hilbert index of a point of the mapped 4-D space
// {x, y, score, keywordHilbert} used by the SRT-index bulk loader.
func Encode4D(x, y, s, kw uint32, bits uint) uint64 {
	return encodeInPlace([]uint32{x, y, s, kw}, bits)
}
