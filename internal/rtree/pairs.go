package rtree

import (
	"math/bits"

	"stpq/internal/kwset"
)

// PairSigBits is the width of the keyword-pair signature every internal
// slot of a tree with keywords carries. It is a constant: at 512 bits a
// 4 KiB inner page of 128 keywords holds 24 slots beside a score table
// (levels.go).
const PairSigBits = 512

// PairSigHashes is how many bits a key sets in a signature: the three
// 9-bit fields at the bottom of its Splitmix64 image.
const PairSigHashes = 3

// sigWords is the signature's length in 64-bit words.
const sigWords = PairSigBits / 64

// PairSig is the keyword-pair signature of an internal entry, a Bloom
// filter over two kinds of key: the pair of keywords a < b, for every pair
// that occurs together in one feature below the entry, and the singleton
// token of keyword k, for every k that is the only keyword (below the
// width, as a leaf slot counts them) of a feature below. A feature holding
// c keywords sets the bits of all C(c, 2) of its pairs, so a key whose bits
// are not all set proves that no feature below holds both keywords of the
// pair, or that every feature below holding k holds another keyword too; a
// key whose bits are set proves nothing. A key sets PairSigHashes bits. It
// is folded exactly, as e.W is: a leaf entry adds its keys, an internal
// entry its signature (Entry.absorb).
type PairSig [sigWords]uint64

// pairKey is the key of the keyword pair a < b, and tokenKey the key of
// keyword k's singleton token: the pair (k, k), which no pair of two
// keywords is. They are fixed, so page images reproduce.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func tokenKey(k uint32) uint64 { return pairKey(k, k) }

// set sets the bits of key.
func (s *PairSig) set(key uint64) {
	h := kwset.Splitmix64(key)
	for range PairSigHashes {
		bit := h & (PairSigBits - 1)
		s[bit/64] |= 1 << (bit % 64)
		h >>= 9
	}
}

// sigBytes is a signature as a page slot stores it.
type sigBytes = [PairSigBits / 8]byte

// sigHas returns 1 if the signature sig holds the key whose Splitmix64
// image is h — if all its bits are set — and 0 if not. The bits are read
// and combined without a branch: whether each is set is close to a coin
// toss, which a branch would mispredict.
func sigHas(sig *sigBytes, h uint64) int {
	return int(sigBit(sig, h) & sigBit(sig, h>>9) & sigBit(sig, h>>18))
}

// sigBit returns the bit of sig the low 9 bits of b name, 0 or 1.
func sigBit(sig *sigBytes, b uint64) byte { return sig[b/8%(PairSigBits/8)] >> (b % 8) & 1 }

// addSet sets the keys of the leaf whose keyword words are words: every
// pair of its keyword ids below width and the token of its keyword if it
// has one alone. It reads the words directly, with no callback: every leaf
// entry a bulk load, an Insert or a Delete folds into its parent passes
// through here. Ids from the width on are left out, as a page slot leaves
// them.
func (s *PairSig) addSet(words []uint64, width int) {
	n, only := 0, 0
all:
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			a := i*64 + bits.TrailingZeros64(w)
			if a >= width {
				break all
			}
			n, only = n+1, a
		pairs:
			for j, rest := i, w&(w-1); j < len(words); j++ {
				if j > i {
					rest = words[j]
				}
				for ; rest != 0; rest &= rest - 1 {
					b := j*64 + bits.TrailingZeros64(rest)
					if b >= width {
						break pairs
					}
					s.set(pairKey(uint32(a), uint32(b)))
				}
			}
		}
	}
	if n == 1 {
		s.set(tokenKey(uint32(only)))
	}
}

// or sets every bit of c in s.
func (s *PairSig) or(c *PairSig) {
	for i := range s {
		s[i] |= c[i]
	}
}

// covers reports whether s holds every bit c folds into its parent on a
// tree of the given keyword width: a leaf's keys, an internal entry's
// signature.
func (s *PairSig) covers(c *Entry, width int) bool {
	var own PairSig
	switch {
	case c.Leaf:
		own.addSet(c.Keywords.WordsBits(), width)
	case c.pairs != nil:
		own = *c.pairs
	}
	for i := range s {
		if own[i]&^s[i] != 0 {
			return false
		}
	}
	return true
}
