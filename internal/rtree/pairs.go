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

// PairSigHashes is how many bits a key sets in the signature of a tree
// built with Config.PairTokens: the three 9-bit fields at the bottom of its
// Splitmix64 image. Such a signature holds a singleton token besides the
// pairs (PairSig).
const PairSigHashes = 3

// sigWords is the signature's length in 64-bit words.
const sigWords = PairSigBits / 64

// PairSig is the keyword-pair signature of an internal entry, a Bloom
// filter over two kinds of key: the pair of keywords a < b, for every pair
// that occurs together in one feature below the entry, and on a tree with
// Config.PairTokens the singleton token of keyword k, for every k that is
// the only keyword (below the width, as a leaf slot counts them) of a
// feature below. A feature holding c keywords sets the bits of all C(c, 2)
// of its pairs, so a key whose bits are not all set proves that no feature
// below holds both keywords of the pair, or that every feature below
// holding k holds another keyword too; a key whose bits are set proves
// nothing. A key sets one bit, the low 9 bits of its Splitmix64 image, on
// a tree without Config.PairTokens; PairSigHashes bits on a tree with it.
// It is folded exactly, as e.W is: a leaf entry adds its keys, an internal
// entry its signature (Entry.absorb).
type PairSig [sigWords]uint64

// pairKey is the key of the keyword pair a < b, and tokenKey the key of
// keyword k's singleton token: the pair (k, k), which no pair of two
// keywords is. They are fixed, so page images reproduce.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func tokenKey(k uint32) uint64 { return pairKey(k, k) }

// keyBits is how many bits a key sets in a signature with tokens or
// without.
func keyBits(tokens bool) int {
	if tokens {
		return PairSigHashes
	}
	return 1
}

// set sets the bits of key in a signature with tokens or without.
func (s *PairSig) set(key uint64, tokens bool) {
	h := kwset.Splitmix64(key)
	for range keyBits(tokens) {
		bit := h & (PairSigBits - 1)
		s[bit/64] |= 1 << (bit % 64)
		h >>= 9
	}
}

// sigBytes is a signature as a page slot stores it.
type sigBytes = [PairSigBits / 8]byte

// sigHas returns 1 if the signature sig, with tokens or without, holds
// the key whose Splitmix64 image is h — if all its bits are set — and 0 if
// not. The bits are read and combined without a branch: whether each is
// set is close to a coin toss, which a branch would mispredict.
func sigHas(sig *sigBytes, h uint64, tokens bool) int {
	b := sigBit(sig, h)
	if tokens {
		b &= sigBit(sig, h>>9) & sigBit(sig, h>>18)
	}
	return int(b)
}

// sigBit returns the bit of sig the low 9 bits of b name, 0 or 1.
func sigBit(sig *sigBytes, b uint64) byte { return sig[b/8%(PairSigBits/8)] >> (b % 8) & 1 }

// addSet sets the keys of the leaf whose keyword words are words on a tree
// configured by cfg: every pair of its keyword ids below the width and, on
// a tree with tokens, the token of its keyword if it has one alone. It
// reads the words directly, with no callback: every leaf entry a bulk
// load, an Insert or a Delete folds into its parent passes through here.
// Ids from the width on are left out, as a page slot leaves them.
func (s *PairSig) addSet(words []uint64, cfg *Config) {
	width, tokens := cfg.KeywordWidth, cfg.PairTokens
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
					s.set(pairKey(uint32(a), uint32(b)), tokens)
				}
			}
		}
	}
	if n == 1 && tokens {
		s.set(tokenKey(uint32(only)), tokens)
	}
}

// or sets every bit of c in s.
func (s *PairSig) or(c *PairSig) {
	for i := range s {
		s[i] |= c[i]
	}
}

// covers reports whether s holds every bit c folds into its parent on a
// tree configured by cfg: a leaf's keys, an internal entry's signature.
func (s *PairSig) covers(c *Entry, cfg *Config) bool {
	var own PairSig
	switch {
	case c.Leaf:
		own.addSet(c.Keywords.WordsBits(), cfg)
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

// PairCap prices internal slot i of a tree with signatures by what one
// feature below can hold of the query keywords in q, when inter of them
// are in the slot's summary e.W. count is inter capped by the pairs: a
// feature holding c query keywords sets the bits of all C(c, 2) of their
// pairs, so c is at most the largest c with C(c, 2) ≤ hits, the number of
// pairs of keywords in e.W whose key the signature holds; a bit another
// key set only makes hits larger. least is the fewest keywords such a
// feature holds: count, or 2 where count is 1, the tree has tokens and no
// query keyword in e.W has its token. A pair is hashed only where e.W
// holds both its keywords, and only until hits reach C(inter, 2). On a
// leaf, on a tree without signatures, for inter 0, and for inter 1 on a
// tree without tokens it returns inter, inter.
func (v *PageView) PairCap(i int, q *LevelQuery, inter int) (count, least int) {
	if v.sigOff == 0 || inter == 0 || inter == 1 && !v.tokens {
		return inter, inter
	}
	p := v.slot(i)
	sig := (*sigBytes)(p[v.sigOff:v.stride])
	width, tokens := uint32(v.t.cfg.KeywordWidth), v.tokens
	held := q.held[:0]
	for j, k := range q.ids {
		if k >= width {
			break
		}
		if v.holds(p, k) {
			held = append(held, heldLevel{pos: int32(j)})
		}
	}
	q.held = held
	count = inter
	if need := inter * (inter - 1) / 2; need > 0 {
		count = pairCount(q.pairHits(sig, held, tokens, need))
	}
	if count == 1 && tokens && !q.hasToken(sig, held) {
		return 1, 2
	}
	return count, count
}

// pairHits counts the pairs of the keywords in held whose key the
// signature bytes sig, with tokens or without, hold, stopping at need.
func (q *LevelQuery) pairHits(sig *sigBytes, held []heldLevel, tokens bool, need int) int {
	hits := 0
	for x, a := range held {
		for _, b := range held[:x] {
			if hits += sigHas(sig, q.pairHash(a, b), tokens); hits >= need {
				return hits
			}
		}
	}
	return hits
}

// hasToken reports whether the signature bytes sig, which hold tokens,
// hold the token of a keyword in held.
func (q *LevelQuery) hasToken(sig *sigBytes, held []heldLevel) bool {
	for _, a := range held {
		if sigHas(sig, q.tokens[a.pos], true) != 0 {
			return true
		}
	}
	return false
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
