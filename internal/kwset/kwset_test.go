package kwset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVocabularyIntern(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("pizza")
	b := v.Intern("burger")
	if a == b {
		t.Fatal("distinct words must get distinct ids")
	}
	if got := v.Intern("Pizza"); got != a {
		t.Errorf("case-insensitive intern: got %d, want %d", got, a)
	}
	if got := v.Intern("  pizza "); got != a {
		t.Errorf("trimmed intern: got %d, want %d", got, a)
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2", v.Size())
	}
	if v.Word(a) != "pizza" || v.Word(b) != "burger" {
		t.Error("Word round-trip failed")
	}
	if v.Intern("") != -1 || v.Intern("   ") != -1 {
		t.Error("empty keyword must be rejected")
	}
}

func TestVocabularyLookup(t *testing.T) {
	v := VocabularyOf("italian", "pizza", "greek")
	if v.Lookup("PIZZA") != 1 {
		t.Error("Lookup should normalize")
	}
	if v.Lookup("sushi") != -1 {
		t.Error("unknown word should return -1")
	}
	words := v.Words()
	if len(words) != 3 || words[0] != "italian" {
		t.Errorf("Words = %v", words)
	}
}

func TestLookupSetDropsUnknown(t *testing.T) {
	v := VocabularyOf("italian", "pizza")
	s := v.LookupSet("pizza", "sushi")
	if s.Count() != 1 || !s.Has(1) {
		t.Errorf("LookupSet = %v", s)
	}
	if v.Size() != 2 {
		t.Error("LookupSet must not grow the vocabulary")
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(128)
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	for _, id := range []int{0, 63, 64, 127} {
		if !s.Has(id) {
			t.Errorf("missing id %d", id)
		}
	}
	if s.Has(1) || s.Has(128) || s.Has(-1) {
		t.Error("unexpected membership")
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Error("Remove failed")
	}
	s.Remove(-1)
	s.Remove(1000)
}

func TestSetGrow(t *testing.T) {
	s := NewSet(4)
	s.Add(200)
	if !s.Has(200) || s.Width() < 201 {
		t.Errorf("grow failed: width=%d", s.Width())
	}
}

func TestSetAlgebra(t *testing.T) {
	a := SetFromWords(64, 1, 2, 3)
	b := SetFromWords(64, 3, 4)
	if got := a.Union(b).IDs(); len(got) != 4 {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).IDs(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Intersect = %v", got)
	}
	if a.IntersectCount(b) != 1 || a.UnionCount(b) != 4 {
		t.Error("count mismatch")
	}
	if !a.Intersects(b) {
		t.Error("Intersects should be true")
	}
	c := SetFromWords(64, 9)
	if a.Intersects(c) {
		t.Error("disjoint sets must not intersect")
	}
}

func TestUnionInPlaceGrows(t *testing.T) {
	a := SetFromWords(8, 1)
	b := SetFromWords(256, 200)
	a.UnionInPlace(b)
	if !a.Has(1) || !a.Has(200) {
		t.Error("UnionInPlace lost bits")
	}
	if a.Width() != 256 {
		t.Errorf("width = %d, want 256", a.Width())
	}
}

func TestJaccard(t *testing.T) {
	a := SetFromWords(32, 0, 1)
	b := SetFromWords(32, 1, 2)
	if got := a.Jaccard(b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := a.Jaccard(a); got != 1 {
		t.Errorf("self Jaccard = %v, want 1", got)
	}
	empty := NewSet(32)
	if got := empty.Jaccard(empty); got != 0 {
		t.Errorf("empty Jaccard = %v, want 0", got)
	}
	if got := a.Jaccard(empty); got != 0 {
		t.Errorf("Jaccard with empty = %v, want 0", got)
	}
}

// Paper example, Section 3: W = {italian, pizza}, λ = 0.5.
// Ontario's Pizza {pizza, italian} has sim = 1, Beijing {chinese, asian}
// has sim = 0.
func TestJaccardPaperExample(t *testing.T) {
	v := NewVocabulary()
	q := v.SetOf("italian", "pizza")
	ontario := v.SetOf("pizza", "italian")
	beijing := v.SetOf("chinese", "asian")
	if got := ontario.Jaccard(q); got != 1 {
		t.Errorf("Ontario sim = %v, want 1", got)
	}
	if got := beijing.Jaccard(q); got != 0 {
		t.Errorf("Beijing sim = %v, want 0", got)
	}
	johns := v.SetOf("pizza", "sandwiches", "subs")
	// |∩|=1, |∪|=4
	if got := johns.Jaccard(q); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("John's sim = %v, want 0.25", got)
	}
}

// Jaccard is symmetric and bounded in [0,1].
func TestJaccardProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSet(rng, 130, 4)
		b := randomSet(rng, 130, 4)
		j1, j2 := a.Jaccard(b), b.Jaccard(a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func randomSet(rng *rand.Rand, width, n int) Set {
	s := NewSet(width)
	for i := 0; i < n; i++ {
		s.Add(rng.Intn(width))
	}
	return s
}

func TestFromBitsRoundTrip(t *testing.T) {
	s := SetFromWords(130, 0, 64, 129)
	got := FromBits(130, s.WordsBits())
	if !got.Equal(s) {
		t.Errorf("round trip mismatch: %v vs %v", got, s)
	}
	// FromBits must mask stray bits beyond width.
	raw := []uint64{0, 0, ^uint64(0)}
	m := FromBits(130, raw)
	if m.Count() != 2 { // only bits 128,129 survive
		t.Errorf("mask failed: count = %d", m.Count())
	}
}

func TestEqualDifferentWidths(t *testing.T) {
	a := SetFromWords(10, 1, 2)
	b := SetFromWords(300, 1, 2)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("sets with same members but different widths must be Equal")
	}
	b.Add(250)
	if a.Equal(b) {
		t.Error("different members must not be Equal")
	}
}

func TestDecode(t *testing.T) {
	v := VocabularyOf("a", "b", "c")
	s := v.LookupSet("c", "a")
	got := v.Decode(s)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("Decode = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := SetFromWords(64, 1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Error("Clone must not alias")
	}
}

func TestSetString(t *testing.T) {
	s := SetFromWords(16, 3, 1)
	if got := s.String(); got != "kwset[1 3]" {
		t.Errorf("String = %q", got)
	}
}

// cardOracle recomputes cardinality from the raw bits, bypassing the cache.
func cardOracle(s Set) int {
	n := 0
	for _, b := range s.WordsBits() {
		n += popcount(b)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestCountCacheMaintained(t *testing.T) {
	s := NewSet(200)
	check := func(op string) {
		t.Helper()
		if got, want := s.Count(), cardOracle(s); got != want {
			t.Fatalf("after %s: Count = %d, oracle = %d", op, got, want)
		}
	}
	check("NewSet")
	s.Add(3)
	check("Add(3)")
	s.Add(3) // duplicate add must not double-count
	check("Add(3) again")
	s.Add(199)
	check("Add(199)")
	s.Add(512) // grows the set
	check("Add(512)")
	s.Remove(3)
	check("Remove(3)")
	s.Remove(3) // removing an absent id must not under-count
	check("Remove(3) again")
	s.Remove(-1)
	check("Remove(-1)")
	c := s.Clone()
	if got, want := c.Count(), cardOracle(c); got != want {
		t.Fatalf("Clone: Count = %d, oracle = %d", got, want)
	}
	c.Add(7)
	check("Clone mutation must not affect original")
}

func TestCountAfterBulkOps(t *testing.T) {
	a := SetFromWords(128, 1, 2, 3, 100)
	b := SetFromWords(128, 3, 4, 100, 127)
	cases := []struct {
		name string
		s    Set
		want int
	}{
		{"Union", a.Union(b), 6},
		{"Intersect", a.Intersect(b), 2},
		{"FromBits", FromBits(128, a.WordsBits()), 4},
		{"FromBitsOwned", FromBitsOwned(128, append([]uint64(nil), b.WordsBits()...)), 4},
	}
	for _, tc := range cases {
		if got := tc.s.Count(); got != tc.want {
			t.Errorf("%s.Count = %d, want %d", tc.name, got, tc.want)
		}
		if got, want := tc.s.Count(), cardOracle(tc.s); got != want {
			t.Errorf("%s: Count = %d, oracle = %d", tc.name, got, want)
		}
	}
	u := a.Clone()
	u.UnionInPlace(b)
	if got := u.Count(); got != 6 {
		t.Errorf("UnionInPlace Count = %d, want 6", got)
	}
}

func TestIntersectUnionCount(t *testing.T) {
	cases := []struct {
		a, b                 Set
		wantInter, wantUnion int
	}{
		{SetFromWords(64, 1, 2, 3), SetFromWords(64, 2, 3, 4), 2, 4},
		{SetFromWords(64, 1), SetFromWords(256, 200), 0, 2},
		{SetFromWords(256, 1, 200), SetFromWords(64, 1), 1, 2},
		{NewSet(64), NewSet(64), 0, 0},
		{Set{}, SetFromWords(64, 5), 0, 1},
	}
	for i, tc := range cases {
		inter, union := tc.a.IntersectUnionCount(tc.b)
		if inter != tc.wantInter || union != tc.wantUnion {
			t.Errorf("case %d: IntersectUnionCount = (%d, %d), want (%d, %d)",
				i, inter, union, tc.wantInter, tc.wantUnion)
		}
		if gi, gu := tc.a.IntersectCount(tc.b), tc.a.UnionCount(tc.b); inter != gi || union != gu {
			t.Errorf("case %d: fused (%d, %d) disagrees with separate (%d, %d)", i, inter, union, gi, gu)
		}
	}
}

func TestFromBitsOwnedAliasesAndMasks(t *testing.T) {
	raw := []uint64{^uint64(0), ^uint64(0)}
	s := FromBitsOwned(70, raw)
	if got := s.Count(); got != 70 {
		t.Errorf("Count = %d, want 70 (excess bits must be masked)", got)
	}
	if raw[1] != (1<<6)-1 {
		t.Errorf("masking must happen in place, raw[1] = %#x", raw[1])
	}
	if &raw[0] != &s.WordsBits()[0] {
		t.Error("FromBitsOwned must alias, not copy")
	}
	// Longer raw slices are truncated to the width's word count.
	long := []uint64{1, 2, 3, 4}
	if got := FromBitsOwned(128, long); len(got.WordsBits()) != 2 {
		t.Errorf("words = %d, want 2", len(got.WordsBits()))
	}
}

func TestAllocsJaccard(t *testing.T) {
	a := SetFromWords(512, 1, 64, 200, 511)
	b := SetFromWords(512, 64, 128, 200)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += a.Jaccard(b)
	})
	if allocs != 0 {
		t.Errorf("Jaccard allocs/op = %v, want 0", allocs)
	}
	inter, union := 2, 5
	if want := float64(inter) / float64(union); a.Jaccard(b) != want {
		t.Errorf("Jaccard = %v, want %v", a.Jaccard(b), want)
	}
	_ = sink
}
