package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stpq/internal/kwset"
)

// valueFromRank builds a Value of the given width whose numeric value is
// rank (rank < 2^64 is enough for the exhaustive small-w tests).
func valueFromRank(rank uint64, width int) Value {
	v := NewValue(width)
	for j := 0; j < width && j < 64; j++ {
		if rank&(1<<uint(j)) != 0 {
			v.setBit(j)
		}
	}
	return v
}

// rankOf extracts the numeric value of a small Value.
func rankOf(v Value) uint64 {
	if len(v.words) == 0 {
		return 0
	}
	return v.words[0]
}

// Paper Figure 5: for w = 3 the keyword order must be
// 000, 010, 011, 001, 101, 111, 110, 100 (first keyword listed first).
func TestKeywordOrderMatchesPaperFigure5(t *testing.T) {
	want := []string{"000", "010", "011", "001", "101", "111", "110", "100"}
	for rank, pattern := range want {
		set := DecodeKeywords(valueFromRank(uint64(rank), 3))
		got := ""
		for i := 0; i < 3; i++ {
			if set.Has(i) {
				got += "1"
			} else {
				got += "0"
			}
		}
		if got != pattern {
			t.Errorf("rank %d: got %s, want %s", rank, got, pattern)
		}
		// And the inverse direction.
		s := kwset.NewSet(3)
		for i, ch := range pattern {
			if ch == '1' {
				s.Add(i)
			}
		}
		if enc := EncodeKeywords(s, 3); rankOf(enc) != uint64(rank) {
			t.Errorf("encode(%s) = %d, want %d", pattern, rankOf(enc), rank)
		}
	}
}

// EncodeKeywords/DecodeKeywords must be mutually inverse bijections for
// every vector — exhaustive for small w.
func TestKeywordBijectionExhaustive(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 8, 10} {
		seen := make(map[uint64]bool)
		for vec := uint64(0); vec < 1<<uint(w); vec++ {
			s := kwset.NewSet(w)
			for i := 0; i < w; i++ {
				if vec&(1<<uint(i)) != 0 {
					s.Add(i)
				}
			}
			h := EncodeKeywords(s, w)
			r := rankOf(h)
			if r >= 1<<uint(w) {
				t.Fatalf("w=%d: rank %d out of range", w, r)
			}
			if seen[r] {
				t.Fatalf("w=%d: duplicate rank %d", w, r)
			}
			seen[r] = true
			if back := DecodeKeywords(h); !back.Equal(s) {
				t.Fatalf("w=%d vec=%b: decode(encode) = %v, want %v", w, vec, back, s)
			}
		}
	}
}

// Gray property: vectors at consecutive Hilbert ranks differ in exactly one
// keyword (paper Section 4.2: "vectors with distance 1 have only one
// different keyword").
func TestKeywordGrayProperty(t *testing.T) {
	for _, w := range []int{2, 3, 7, 12} {
		prev := DecodeKeywords(valueFromRank(0, w))
		for rank := uint64(1); rank < 1<<uint(w); rank++ {
			cur := DecodeKeywords(valueFromRank(rank, w))
			diff := cur.UnionCount(prev) - cur.IntersectCount(prev)
			if diff != 1 {
				t.Fatalf("w=%d rank=%d: hamming=%d, want 1", w, rank, diff)
			}
			prev = cur
		}
	}
}

// The paper's locality bound: rank distance w' implies at most w' keyword
// differences.
func TestKeywordLocalityBound(t *testing.T) {
	const w = 10
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := uint64(rng.Intn(1 << w))
		b := uint64(rng.Intn(1 << w))
		sa := DecodeKeywords(valueFromRank(a, w))
		sb := DecodeKeywords(valueFromRank(b, w))
		hamming := sa.UnionCount(sb) - sa.IntersectCount(sb)
		dist := int64(a) - int64(b)
		if dist < 0 {
			dist = -dist
		}
		if int64(hamming) > dist {
			t.Fatalf("hamming %d > rank distance %d", hamming, dist)
		}
	}
}

// Round trip must hold for large vocabularies spanning multiple words.
func TestKeywordRoundTripWide(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, w := range []int{64, 128, 130, 256} {
			s := kwset.NewSet(w)
			n := rng.Intn(10)
			for i := 0; i < n; i++ {
				s.Add(rng.Intn(w))
			}
			h := EncodeKeywords(s, w)
			if !DecodeKeywords(h).Equal(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// UpdateNodeValue must implement: decode(update(a,b)) = decode(a) ∪
// decode(b) — the SRT node-summary maintenance rule.
func TestUpdateNodeValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const w = 128
		a := randSet(rng, w)
		b := randSet(rng, w)
		va := EncodeKeywords(a, w)
		vb := EncodeKeywords(b, w)
		merged := DecodeKeywords(UpdateNodeValue(va, vb))
		want := a.Union(b)
		return merged.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randSet(rng *rand.Rand, w int) kwset.Set {
	s := kwset.NewSet(w)
	for i := 0; i < rng.Intn(8); i++ {
		s.Add(rng.Intn(w))
	}
	return s
}

// Cmp must be a total order consistent with numeric comparison.
func TestValueCmp(t *testing.T) {
	a := valueFromRank(5, 80)
	b := valueFromRank(9, 80)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp inconsistent for small values")
	}
	// High-word difference.
	hi := NewValue(128)
	hi.setBit(100)
	lo := NewValue(128)
	lo.setBit(63)
	if hi.Cmp(lo) != 1 || lo.Cmp(hi) != -1 {
		t.Error("Cmp inconsistent across words")
	}
}

// MinHash's exact identity: the coordinate of a union is the lesser of the
// coordinates, the empty set's all ones being the identity — at every
// width the sort uses and below it.
func TestKeywordMinHashUnionIsMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, w := range []int{24, 128, 256} {
			a, b := randSet(rng, w), randSet(rng, w)
			for _, nbits := range []uint{1, 16, 32} {
				if KeywordMinHash(a.Union(b), nbits) != min(KeywordMinHash(a, nbits), KeywordMinHash(b, nbits)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if got := KeywordMinHash(kwset.NewSet(128), 16); got != 0xffff {
		t.Errorf("coordinate of ∅ = %#x, want 0xffff", got)
	}
}

// Every id moves the coordinate: a singleton's differs from the empty
// set's. The top 16 bits of H(t.W) did not — at 128 keywords only ids 0 and
// 113–127 reached them. Distinct singletons also sort apart, bar the few
// 16-bit collisions the birthday bound allows at 256 ids.
func TestKeywordMinHashEveryIDMoves(t *testing.T) {
	for _, w := range []int{24, 128, 256} {
		empty := KeywordMinHash(kwset.NewSet(w), 16)
		seen := make(map[uint32]int)
		for id := 0; id < w; id++ {
			c := KeywordMinHash(kwset.SetFromWords(w, id), 16)
			if c == empty {
				t.Errorf("w = %d: id %d leaves the coordinate at the empty set's %#x", w, id, c)
			}
			seen[c]++
		}
		if collided := w - len(seen); collided > w/128 {
			t.Errorf("w = %d: %d singletons share a coordinate", w, collided)
		}
	}
}

func TestKeywordMinHashPanicsOnBadBits(t *testing.T) {
	for _, nbits := range []uint{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected a panic for %d bits", nbits)
				}
			}()
			KeywordMinHash(kwset.NewSet(8), nbits)
		}()
	}
}

func TestValueBitOutOfRange(t *testing.T) {
	v := NewValue(8)
	if v.Bit(-1) || v.Bit(100) {
		t.Error("out-of-range bits must read as 0")
	}
}

func TestValueString(t *testing.T) {
	v := valueFromRank(255, 64)
	if got := v.String(); got != "0x00000000000000ff" {
		t.Errorf("String = %q", got)
	}
}

func TestEmptySetEncodesToZero(t *testing.T) {
	h := EncodeKeywords(kwset.NewSet(64), 64)
	if h.OnesCount() != 0 {
		t.Errorf("H(∅) = %v, want 0", h)
	}
}
