package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stpq/internal/kwset"
)

// randSet draws a set of up to seven ids below w.
func randSet(rng *rand.Rand, w int) kwset.Set {
	s := kwset.NewSet(w)
	for i := 0; i < rng.Intn(8); i++ {
		s.Add(rng.Intn(w))
	}
	return s
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
