package hilbert

import (
	"math/bits"

	"stpq/internal/kwset"
)

// KeywordMinHash returns the SRT bulk loader's keyword coordinate: the top
// nbits bits (1 to 32) of the least splitmix64 image of the set's ids, all
// ones for the empty set. It is a MinHash: two sets share it with
// probability about their Jaccard similarity, so similar keyword sets sort
// together, and every id can move it. It stands where the paper puts the
// keyword Hilbert value H(t.W) (DESIGN.md §4): bit j of that rank depends on
// id 0 and the ids above j alone, so at 128 keywords 16 ids decided its top
// bits and most features shared one value. Because it is a minimum,
// KeywordMinHash(A ∪ B) = min(KeywordMinHash(A), KeywordMinHash(B)).
func KeywordMinHash(set kwset.Set, nbits uint) uint32 {
	if nbits == 0 || nbits > 32 {
		panic("hilbert: KeywordMinHash bits must be in [1,32]")
	}
	least := ^uint64(0)
	for i, word := range set.WordsBits() {
		for ; word != 0; word &= word - 1 {
			least = min(least, kwset.Splitmix64(uint64(i*64+bits.TrailingZeros64(word))))
		}
	}
	return uint32(least >> (64 - nbits))
}
