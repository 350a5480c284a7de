package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The 2-D curve of order b must be a bijection [0,2^b)² ↔ [0, 4^b).
func TestEncode2DBijection(t *testing.T) {
	const bits = 4
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 1<<bits; x++ {
		for y := uint32(0); y < 1<<bits; y++ {
			h := Encode2D(x, y, bits)
			if h >= 1<<(2*bits) {
				t.Fatalf("index %d out of range", h)
			}
			if seen[h] {
				t.Fatalf("duplicate index %d at (%d,%d)", h, x, y)
			}
			seen[h] = true
		}
	}
	if len(seen) != 1<<(2*bits) {
		t.Fatalf("not a bijection: %d cells", len(seen))
	}
}

// Consecutive Hilbert indexes must be grid neighbors (the locality property
// bulk loading relies on).
func TestEncode2DAdjacency(t *testing.T) {
	const bits = 5
	coords := make([]uint32, 2)
	var px, py uint32
	for h := uint64(0); h < 1<<(2*bits); h++ {
		Decode(h, coords, bits)
		if h > 0 {
			dx := int(coords[0]) - int(px)
			dy := int(coords[1]) - int(py)
			if dx*dx+dy*dy != 1 {
				t.Fatalf("step %d not unit: (%d,%d)->(%d,%d)", h, px, py, coords[0], coords[1])
			}
		}
		px, py = coords[0], coords[1]
	}
}

// Known fixed points of the order-1 2-D curve: (0,0)=0 and the curve ends
// adjacent to the start.
func TestEncode2DOrigin(t *testing.T) {
	if got := Encode2D(0, 0, 8); got != 0 {
		t.Errorf("Encode2D(0,0) = %d, want 0", got)
	}
}

// Encode and Decode must be inverses in 4-D (the SRT mapped space).
func TestEncodeDecodeRoundTrip4D(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		const bits = 8
		mask := uint32(1<<bits - 1)
		in := []uint32{a & mask, b & mask, c & mask, d & mask}
		h := Encode(in, bits)
		out := make([]uint32, 4)
		Decode(h, out, bits)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// 4-D adjacency: consecutive indexes differ by one unit step in one dim.
func TestEncode4DAdjacency(t *testing.T) {
	const bits = 2
	coords := make([]uint32, 4)
	prev := make([]uint32, 4)
	for h := uint64(0); h < 1<<(4*bits); h++ {
		Decode(h, coords, bits)
		if h > 0 {
			sum := 0
			for i := range coords {
				d := int(coords[i]) - int(prev[i])
				sum += d * d
			}
			if sum != 1 {
				t.Fatalf("step %d not unit: %v -> %v", h, prev, coords)
			}
		}
		copy(prev, coords)
	}
}

func TestEncode4DDistinct(t *testing.T) {
	const bits = 3
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x := uint32(rng.Intn(8))
		y := uint32(rng.Intn(8))
		s := uint32(rng.Intn(8))
		k := uint32(rng.Intn(8))
		h := Encode4D(x, y, s, k, bits)
		key := uint64(x)<<24 | uint64(y)<<16 | uint64(s)<<8 | uint64(k)
		if prev, ok := firstSeen[key]; ok && prev != h {
			t.Fatal("Encode4D not deterministic")
		}
		firstSeen[key] = h
		seen[h] = true
	}
	_ = seen
}

var firstSeen = map[uint64]uint64{}

func TestEncodeZeroDims(t *testing.T) {
	if got := Encode(nil, 8); got != 0 {
		t.Errorf("Encode(nil) = %d", got)
	}
	Decode(0, nil, 8) // must not panic
}

// referenceAxesToTranspose is Skilling's transform as he wrote it, one
// branch per bit per axis: the reference the branch-free axesToTranspose is
// held to, bit for bit.
func referenceAxesToTranspose(x []uint32, bits uint) {
	n := len(x)
	if n == 0 || bits == 0 {
		return
	}
	// Inverse undo.
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := uint32(1) << (bits - 1); q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// referenceEncode is Encode over referenceAxesToTranspose.
func referenceEncode(coords []uint32, bits uint) uint64 {
	x := append([]uint32(nil), coords...)
	referenceAxesToTranspose(x, bits)
	var h uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := range x {
			h = (h << 1) | uint64((x[i]>>uint(b))&1)
		}
	}
	return h
}

// checkEncode compares every encoder that takes len(c) coordinates with the
// reference at one point.
func checkEncode(t testing.TB, c []uint32, bits uint) {
	t.Helper()
	want := referenceEncode(c, bits)
	if got := Encode(c, bits); got != want {
		t.Fatalf("Encode(%v, %d) = %d, reference %d", c, bits, got, want)
	}
	var got uint64
	switch len(c) {
	case 2:
		got = Encode2D(c[0], c[1], bits)
	case 4:
		got = Encode4D(c[0], c[1], c[2], c[3], bits)
	default:
		return
	}
	if got != want {
		t.Fatalf("Encode%dD(%v, %d) = %d, reference %d", len(c), c, bits, got, want)
	}
}

// TestEncodeMatchesReference: the branch-free transform gives Skilling's
// index at every point of the small curves (n = 1–4, every order whose grid
// has at most 2^16 cells) and at random points of every order up to 16.
// The bulk loaders sort by these keys, so a differing key would move items
// between pages.
func TestEncodeMatchesReference(t *testing.T) {
	for n := 1; n <= 4; n++ {
		c := make([]uint32, n)
		for bits := uint(1); int(bits)*n <= 16; bits++ {
			for cell := 0; cell < 1<<(int(bits)*n); cell++ {
				for i := range c {
					c[i] = uint32(cell>>(i*int(bits))) & (1<<bits - 1)
				}
				checkEncode(t, c, bits)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 4; n++ {
		c := make([]uint32, n)
		for bits := uint(1); bits <= 16; bits++ {
			for trial := 0; trial < 5000; trial++ {
				for i := range c {
					c[i] = rng.Uint32() & (1<<bits - 1)
				}
				checkEncode(t, c, bits)
			}
		}
	}
}

// TestAllocsEncode: a 2-D or 4-D key allocates nothing.
func TestAllocsEncode(t *testing.T) {
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		sink += Encode2D(3, 5, 16) + Encode4D(1, 2, 3, 4, 16)
	})
	if allocs != 0 {
		t.Errorf("Encode2D + Encode4D allocate %v times per call", allocs)
	}
	_ = sink
}
