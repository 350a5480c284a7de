package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// Level is the least level whose score is not below s: refLevel's answer
// at every multiple of 1/15, the doubles on either side of it, 0, 1 and
// 20,000 random scores; every level it returns prices s soundly.
func TestLevel(t *testing.T) {
	scores := []float64{0, 1, math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
	for l := 1; l < 15; l++ {
		x := float64(l) / 15
		scores = append(scores, x, math.Nextafter(x, 0), math.Nextafter(x, 2))
	}
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 20_000; i++ {
		scores = append(scores, rng.Float64())
	}
	for _, s := range scores {
		l := Level(s)
		if int(l) != refLevel(s) {
			t.Fatalf("Level(%v) = %d, want %d", s, l, refLevel(s))
		}
		if LevelScore(l) < s {
			t.Fatalf("Level(%v) = %d prices it at %v, below", s, l, LevelScore(l))
		}
	}
	if Level(math.NaN()) != MaxLevel || Level(2) != MaxLevel {
		t.Fatal("NaN and scores above 1 must take the top level")
	}
}

// maxLevels is the nibble-wise maximum, level by level, on random tables
// and on the extremes.
func TestMaxLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	words := []uint64{0, math.MaxUint64, 0x0f0f0f0f0f0f0f0f, 0xf0f0f0f0f0f0f0f0, 0x123456789abcdef0}
	for i := 0; i < 2000; i++ {
		words = append(words, rng.Uint64())
	}
	for _, a := range words {
		for j := 0; j < 8; j++ {
			b := words[rng.Intn(len(words))]
			got := []uint64{a}
			maxLevels(got, []uint64{b})
			for k := 0; k < 16; k++ {
				sh := 4 * k
				if want := max(a>>sh&15, b>>sh&15); got[0]>>sh&15 != want {
					t.Fatalf("maxLevels(%x, %x) = %x: level %d is %d, want %d", a, b, got[0], k, got[0]>>sh&15, want)
				}
			}
		}
	}
}
