package rtree

import (
	"math/bits"

	"stpq/internal/kwset"
)

// PairSigBits is the width of the keyword-pair signature an internal slot
// of a tree with signatures carries (Config.PairBits). It is a constant:
// at 512 bits a 128-keyword slot grows from 60 to 124 bytes, and a 4 KiB
// inner page still holds 33 slots (24 beside a score table, levels.go).
const PairSigBits = 512

// sigWords is the signature's length in 64-bit words.
const sigWords = PairSigBits / 64

// PairSig is the keyword-pair signature of an internal entry: bit
// pairBit(a, b) is set for every pair of keywords a < b that occur
// together in one feature below the entry. A feature holding c keywords
// sets the bits of all C(c, 2) of its pairs, so a bit that is clear proves
// that no feature below holds both keywords of a pair that hashes to it;
// a set bit proves nothing. It is folded exactly, as e.W is: a leaf entry
// adds its pairs, an internal entry its signature (Entry.absorb).
type PairSig [sigWords]uint64

// pairBit is the signature bit of the keyword pair a < b: the low bits of
// Splitmix64(a<<32 | b). It is fixed, so page images reproduce.
func pairBit(a, b int) uint32 {
	return uint32(kwset.Splitmix64(uint64(a)<<32|uint64(b)) & (PairSigBits - 1))
}

// addSet sets the bits of every pair of the keyword ids below width in
// words, reading the words directly, with no callback: every leaf entry a
// bulk load, an Insert or a Delete folds into its parent passes through
// here. Ids from width on are left out, as a page slot leaves them.
func (s *PairSig) addSet(words []uint64, width int) {
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			a := i*64 + bits.TrailingZeros64(w)
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
					bit := pairBit(a, b)
					s[bit/64] |= 1 << (bit % 64)
				}
			}
		}
	}
}

// or sets every bit of c in s.
func (s *PairSig) or(c *PairSig) {
	for i := range s {
		s[i] |= c[i]
	}
}

// covers reports whether s holds every bit c folds into its parent: the
// pairs of a leaf's keywords below width, an internal entry's signature.
func (s *PairSig) covers(c *Entry, width int) bool {
	var own PairSig
	switch {
	case c.Leaf:
		own.addSet(c.Keywords.WordsBits(), width)
	case c.Pairs != nil:
		own = *c.Pairs
	}
	for i := range s {
		if own[i]&^s[i] != 0 {
			return false
		}
	}
	return true
}

// Pair is one pair of query keywords A < B and the signature bit it sets:
// what PageView.PairCap probes a slot for.
type Pair struct{ A, B, Bit uint32 }

// AppendPairs appends to dst every pair of the keyword ids in words, A < B,
// in increasing order of A then B, with its signature bit. A query's pairs
// are taken once per stream into a buffer the stream keeps.
func AppendPairs(dst []Pair, words []uint64) []Pair {
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			a := i*64 + bits.TrailingZeros64(w)
			for j, rest := i, w&(w-1); j < len(words); j++ {
				if j > i {
					rest = words[j]
				}
				for ; rest != 0; rest &= rest - 1 {
					b := j*64 + bits.TrailingZeros64(rest)
					dst = append(dst, Pair{A: uint32(a), B: uint32(b), Bit: pairBit(a, b)})
				}
			}
		}
	}
	return dst
}

// PairCap caps inter — how many query keywords internal slot i's summary
// e.W holds — at the most that one feature below the slot can hold. Let
// hits be the number of pairs whose two keywords are both in e.W and whose
// bit is set in the slot's signature. A feature holding c query keywords
// sets the bits of all C(c, 2) of their pairs, so c is at most the largest
// c with C(c, 2) ≤ hits; a bit another pair set only makes hits larger.
// Every NodeBoundCounts is monotone in its count, so pricing a slot with
// the cap keeps ŝ(e) ≥ s(t) for every t below. On a leaf, on a tree
// without signatures and for inter < 2 it returns inter.
func (v *PageView) PairCap(i int, pairs []Pair, inter int) int {
	if v.sigOff == 0 || inter < 2 {
		return inter
	}
	p := v.slot(i)
	sig := p[v.sigOff:v.stride]
	width := uint32(v.t.cfg.KeywordWidth)
	need, hits := inter*(inter-1)/2, 0
	for _, q := range pairs {
		if q.B < width && bitAt(sig, q.Bit) && v.holds(p, q.A) && v.holds(p, q.B) {
			if hits++; hits >= need {
				return inter
			}
		}
	}
	return pairCount(hits)
}

// holds reports whether the summary of inner slot p holds keyword k,
// below the tree's width: its bit, or on a slot with a table its level.
func (v *PageView) holds(p []byte, k uint32) bool {
	if v.lvOff > 0 {
		return tableLevel(p[v.lvOff:], k) != 0
	}
	return bitAt(p[v.kwOff:], k)
}

// bitAt reads bit i of little-endian words stored in p.
func bitAt(p []byte, i uint32) bool { return p[i/8]>>(i%8)&1 != 0 }
