package obs

// shapekey_fuzz_test.go pins the property the per-shape statistics lean
// on: ShapeKey.String is injective over real keys (distinct keys never
// collide on one label, so no row of the table merges two shapes) and
// stable (equal keys always intern to the same label), across the full
// RBucket range including the exp2 over/underflow fallback and the NN
// no-radius sentinel.

import (
	"math"
	"testing"
)

// fuzz enum vocabularies: the only values real keys ever carry.
var (
	fuzzAlgs     = []string{"stps", "stds", "auto"}
	fuzzVariants = []string{"range", "influence", "nn"}
	fuzzSims     = []string{"jaccard", "dice", "cosine", "overlap"}
)

// keyFrom maps arbitrary fuzz bytes onto a well-formed ShapeKey.
func keyFrom(a, v, s uint8, k int, rb int64, sets uint8) ShapeKey {
	rbucket := int(rb)
	if rb%5 == 0 {
		rbucket = math.MinInt32 // the NN sentinel, often
	}
	return ShapeKey{
		Alg:     fuzzAlgs[int(a)%len(fuzzAlgs)],
		Variant: fuzzVariants[int(v)%len(fuzzVariants)],
		Sim:     fuzzSims[int(s)%len(fuzzSims)],
		K:       k,
		RBucket: rbucket,
		Sets:    int(sets),
	}
}

func FuzzShapeKeyString(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), 10, int64(-13), uint8(2),
		uint8(1), uint8(1), uint8(1), 10, int64(-12), uint8(2))
	// Adjacent buckets: the √2 spacing is what keeps 3-digit previews apart.
	f.Add(uint8(0), uint8(0), uint8(0), 10, int64(100), uint8(1),
		uint8(0), uint8(0), uint8(0), 10, int64(101), uint8(1))
	// exp2 overflow and underflow: both sides of the "r#" fallback.
	f.Add(uint8(0), uint8(0), uint8(0), 1, int64(4000), uint8(1),
		uint8(0), uint8(0), uint8(0), 1, int64(4001), uint8(1))
	f.Add(uint8(0), uint8(0), uint8(0), 1, int64(-4000), uint8(1),
		uint8(0), uint8(0), uint8(0), 1, int64(-4001), uint8(1))
	// Sentinel vs a deeply negative real bucket.
	f.Add(uint8(0), uint8(2), uint8(0), 5, int64(math.MinInt32), uint8(1),
		uint8(0), uint8(2), uint8(0), 5, int64(math.MinInt32+1), uint8(1))
	f.Fuzz(func(t *testing.T, a1, v1, s1 uint8, k1 int, rb1 int64, sets1 uint8,
		a2, v2, s2 uint8, k2 int, rb2 int64, sets2 uint8) {
		k1 &= 0xFFFF // keep K in a realistic range, sign included
		k2 &= 0xFFFF
		ka := keyFrom(a1, v1, s1, k1, rb1, sets1)
		kb := keyFrom(a2, v2, s2, k2, rb2, sets2)
		sa, sb := ka.String(), kb.String()
		if ka == kb && sa != sb {
			t.Fatalf("equal keys rendered differently: %q vs %q", sa, sb)
		}
		if ka != kb && sa == sb {
			t.Fatalf("distinct keys collided on %q: %+v vs %+v", sa, ka, kb)
		}
		// Interning stability: the table must hand back the identical label
		// for the same key, every time.
		st := NewShapeStats()
		if n1, n2 := st.Name(ka), st.Name(ka); n1 != n2 || n1 != sa {
			t.Fatalf("interning unstable: %q then %q (String %q)", n1, n2, sa)
		}
	})
}
