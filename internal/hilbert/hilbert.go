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
	x := append([]uint32(nil), coords...)
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
// `bits` (at most 32); it is the sort key of the classic Hilbert-packed
// R-tree.
func Encode2D(x, y uint32, bits uint) uint64 {
	return walk(automaton2, spread2(x)<<1|spread2(y), 2, bits)
}

// Encode4D returns the Hilbert index of a point of the mapped 4-D space
// {x, y, score, keywordHilbert} used by the SRT-index bulk loader, on the
// curve of order `bits` (at most 16).
func Encode4D(x, y, s, kw uint32, bits uint) uint64 {
	return walk(automaton4, spread4(x)<<3|spread4(y)<<2|spread4(s)<<1|spread4(kw), 4, bits)
}

// walk runs an n-D automaton over the Morton word m, level bits−1 first.
func walk(table []uint16, m uint64, n, bits uint) uint64 {
	mask := uint(1)<<n - 1
	var h uint64
	var row uint
	for k := int(bits) - 1; k >= 0; k-- {
		e := uint(table[row|uint(m>>(n*uint(k)))&mask])
		h = h<<n | uint64(e&mask)
		row = e &^ mask
	}
	return h
}

// spread2 moves bit i of v to bit 2i.
func spread2(v uint32) uint64 {
	m := uint64(v)
	m = (m | m<<16) & 0x0000ffff0000ffff
	m = (m | m<<8) & 0x00ff00ff00ff00ff
	m = (m | m<<4) & 0x0f0f0f0f0f0f0f0f
	m = (m | m<<2) & 0x3333333333333333
	return (m | m<<1) & 0x5555555555555555
}

// spread4 moves bit i of v's low 16 bits to bit 4i.
func spread4(v uint32) uint64 {
	m := uint64(v & 0xffff)
	m = (m | m<<24) & 0x000000ff000000ff
	m = (m | m<<12) & 0x000f000f000f000f
	m = (m | m<<6) & 0x0303030303030303
	return (m | m<<3) & 0x1111111111111111
}

// Encode2D and Encode4D walk the transform as a Mealy machine, one bit
// column per level, top level first: axesToTranspose reads level k's column
// through the signed axis permutation the levels above built, level k's own
// steps touch only lower bits, and the Gray step XORs in the parity of the
// columns above. So a state is (signed permutation, parity), the input a
// column and the output the key's n-bit digit.
var (
	automaton2 = deriveAutomaton(2) // 8 states × 4 digits
	automaton4 = deriveAutomaton(4) // 384 states × 16 digits
)

// curveState: the lower bits of axis j are input axis perm[j]'s, complemented
// if bit j of flip is set; parity is the XOR of the columns above.
type curveState struct {
	perm   [4]uint8
	flip   uint8
	parity uint8
}

// deriveAutomaton returns the table found breadth-first from the identity
// state, numbered 0. Entry s<<n | d, for state s and column d (bit n−1−i is
// input axis i's), is the next state's row offset (its number << n) ORed
// with the output digit.
func deriveAutomaton(n int) []uint16 {
	start := curveState{perm: [4]uint8{0, 1, 2, 3}}
	ids := map[curveState]int{start: 0}
	var table []uint16
	for queue := []curveState{start}; len(queue) > 0; queue = queue[1:] {
		for d := 0; d < 1<<n; d++ {
			next, out := queue[0].step(n, d)
			id, ok := ids[next]
			if !ok {
				id = len(ids)
				ids[next] = id
				queue = append(queue, next)
			}
			table = append(table, uint16(id<<n|out))
		}
	}
	return table
}

// step runs one level of axesToTranspose on column d: the Gray-coded column
// XOR the parity is the output digit, and the level's invert (flip axis 0)
// and exchange (swap axes 0 and i) steps move the state.
func (s curveState) step(n, d int) (curveState, int) {
	var c [4]uint8
	for j := 0; j < n; j++ {
		c[j] = uint8(d>>(n-1-int(s.perm[j])))&1 ^ s.flip>>j&1
	}
	out, g := 0, uint8(0)
	for i := 0; i < n; i++ {
		g ^= c[i]
		out = out<<1 | int(g^s.parity)
	}
	s.parity ^= g
	for i := 0; i < n; i++ {
		if c[i] != 0 {
			s.flip ^= 1
		} else {
			s.perm[0], s.perm[i] = s.perm[i], s.perm[0]
			s.flip = s.flip&^(1|1<<i) | s.flip>>i&1 | s.flip&1<<i
		}
	}
	return s, out
}
