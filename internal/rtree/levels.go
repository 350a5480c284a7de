package rtree

import (
	"math"
	"math/bits"
	"slices"

	"stpq/internal/kwset"
)

// ScoreLevelBits is the width of one score level in the table every
// internal slot of a tree with keywords carries in place of its keyword
// bitmap e.W and its score e.s. At 128 keywords the table is 64 bytes, and
// with the pair signature an inner slot is 164 bytes: a 4 KiB page holds 24
// of them.
const ScoreLevelBits = 4

// MaxLevelWidth is the most levels a score table keeps: one for each
// keyword up to this width, 128 bytes at 256 keywords. Above it keyword k
// shares the level of bucket k mod MaxLevelWidth with every keyword of its
// bucket, the best of their levels, so that a table, and the slot, stay
// the size they are at MaxLevelWidth however wide the vocabulary grows; a
// keyword is never priced below its own level.
const MaxLevelWidth = 256

// MaxLevel is the highest score level. Level l stands for the score
// LevelScore(l) = l/15; level 0 in a table means that no feature below
// holds the keyword.
const MaxLevel = 1<<ScoreLevelBits - 1

// levelScores[l] is l/15, the score level l stands for.
var levelScores = func() (s [MaxLevel + 1]float64) {
	for l := range s {
		s[l] = float64(l) / MaxLevel
	}
	return s
}()

// LevelScore returns the score level l stands for, l/15.
func LevelScore(l uint8) float64 { return levelScores[l&MaxLevel] }

// Level is the score level of a feature scoring s: the least l ≥ 1 with
// LevelScore(l) ≥ s — max(1, ⌈15·s⌉), corrected for the rounding of l/15
// — so a level never prices a feature below its score. Scores are in
// [0, 1]; anything above 1, and NaN, takes the top level.
func Level(s float64) uint8 {
	if !(s < 1) {
		return MaxLevel
	}
	l := max(1, int(math.Ceil(s*MaxLevel)))
	for l > 1 && levelScores[l-1] >= s {
		l--
	}
	for l < MaxLevel && levelScores[l] < s {
		l++
	}
	return uint8(l)
}

// levelWords returns the number of 64-bit words the table of a tree of the
// given keyword width takes, 16 levels to a word.
func levelWords(width int) int { return (buckets(width)*ScoreLevelBits + 63) / 64 }

// buckets returns how many levels the table of a tree of the given keyword
// width keeps: a level a keyword up to MaxLevelWidth, MaxLevelWidth above.
func buckets(width int) int { return min(width, MaxLevelWidth) }

// The table of an internal entry is folded exactly, as e.W is: a leaf
// raises the level of the bucket of each of its keywords below the width
// to its own (addLeaf), an internal entry the levels of its table
// (maxLevels).

// addLeaf raises to level l the level of the bucket of every keyword id
// below width set in words, and reports whether there was one.
func addLeaf(tbl, words []uint64, width int, l uint8) (held bool) {
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			k := i*64 + bits.TrailingZeros64(w)
			if k >= width {
				return held
			}
			b := k % MaxLevelWidth
			sh := uint(b%16) * ScoreLevelBits
			if x := &tbl[b/16]; uint8(*x>>sh&MaxLevel) < l {
				*x = *x&^(MaxLevel<<sh) | uint64(l)<<sh
			}
			held = true
		}
	}
	return held
}

// maxLevels raises every level of dst to the one src holds.
func maxLevels(dst, src []uint64) {
	const lo = 0x0f0f0f0f0f0f0f0f
	for i, a := range dst {
		b := src[i]
		dst[i] = maxBytes(a&lo, b&lo) | maxBytes(a>>4&lo, b>>4&lo)<<4
	}
}

// maxBytes returns the bytewise maximum of a and b, whose bytes are all
// below 16: a byte of (a|16) − b keeps bit 4 exactly when a ≥ b, and no
// byte borrows from the next.
func maxBytes(a, b uint64) uint64 {
	const h = 0x1010101010101010
	m := ((a | h) - b) & h >> 4 * MaxLevel // 0x0f in every byte where a ≥ b
	return a&m | b&^m
}

// coversLevels reports whether no level c folds into its parent — a
// leaf's at each of its keywords below width, an internal entry's table —
// is above the one tbl holds.
func coversLevels(tbl []uint64, c *Entry, width int) bool {
	own := make([]uint64, len(tbl))
	switch {
	case c.Leaf:
		addLeaf(own, c.Keywords.WordsBits(), width, Level(c.Score))
	case c.levels != nil:
		copy(own, c.levels)
	}
	maxLevels(own, tbl)
	return slices.Equal(own, tbl)
}

// topLevel returns the highest level of the table bytes tbl of a tree of
// the given keyword width: what e.s is read off.
func topLevel(tbl []byte, width int) (top uint8) {
	for b, n := uint32(0), uint32(buckets(width)); b < n; b++ {
		top = max(top, tableLevel(tbl, b))
	}
	return top
}

// presence sets in kw, zeroed, the bit of every keyword below width whose
// bucket's level in tbl is not 0: e.W read off the table, exact up to
// MaxLevelWidth keywords and above it every keyword of each bucket held.
func presence(kw, tbl []uint64, width int) {
	for i, x := range tbl {
		m := (x | x>>1 | x>>2 | x>>3) & 0x1111111111111111 // bit 4j: level j is not 0, gathered below
		m = (m | m>>3) & 0x0303030303030303
		m = (m | m>>6) & 0x000f000f000f000f
		m = (m | m>>12) & 0x000000ff000000ff
		m = (m | m>>24) & 0xffff
		kw[i/4] |= m << (16 * (i % 4))
	}
	// Keyword k's bit is bucket k mod MaxLevelWidth's, a word at a time.
	const bucketWords = MaxLevelWidth / 64
	for i := bucketWords; i < len(kw); i++ {
		kw[i] = kw[i-bucketWords]
	}
	if r := width % 64; r != 0 && len(kw) > bucketWords {
		kw[len(kw)-1] &= 1<<r - 1
	}
}

// LevelCount is one price point of an internal slot: some feature below
// may hold Count of the query keywords and have a score up to Score, and
// none holding more of them scores above it. Least is the fewest keywords
// — below the tree's width, as a leaf slot counts them — a feature priced
// at the point holds: Count, or 2 where Count is 1 and no query keyword
// the point counts has its singleton token (PairSig). Score is a level's,
// LevelScore(l).
type LevelCount struct {
	Score float64
	Count int
	Least int
}

// LevelQuery is a query keyword set prepared for pricing the internal
// slots of a tree (PageView.NextInner). It holds the query's ids and the
// Splitmix64 image of each one's token key; a pair's key is hashed where a
// slot holds both its keywords. And it holds the buffers a slot is priced
// in. A stream keeps one and Resets it per query.
type LevelQuery struct {
	ids    []uint32
	tokens []uint64
	// held is the current slot's query keywords, by decreasing level.
	held  []heldLevel
	front []LevelCount
}

// heldLevel is a query keyword a slot holds: its position in ids and its
// bucket's level there.
type heldLevel struct {
	pos   int32
	level uint8
}

// Reset prepares q for the keyword ids set in words.
func (q *LevelQuery) Reset(words []uint64) {
	q.ids, q.tokens = q.ids[:0], q.tokens[:0]
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			k := uint32(i*64 + bits.TrailingZeros64(w))
			q.ids, q.tokens = append(q.ids, k), append(q.tokens, kwset.Splitmix64(tokenKey(k)))
		}
	}
}

// pairHash is the Splitmix64 image of the key of the pair of held keywords
// a and b.
func (q *LevelQuery) pairHash(a, b heldLevel) uint64 {
	x, y := q.ids[a.pos], q.ids[b.pos]
	return kwset.Splitmix64(pairKey(min(x, y), max(x, y)))
}

// Front returns the price points of the slot NextInner last met: by
// decreasing score, each with the most query keywords one feature at or
// above that score can hold and the fewest keywords it holds, kept only
// where that count grows or that least falls. Valid until the next
// NextInner.
func (q *LevelQuery) Front() []LevelCount { return q.front }

// NextInner returns the first slot at or after i of an internal page that
// holds a keyword of q, or Len() when there is none, and leaves its price
// points in q.Front(). It reads only the levels of the query keywords'
// buckets in the slot's score table and, in its signature, the keys of
// pairs of them and their tokens. A feature below that holds the set S of
// query keywords has a score level at most the least level in S, and all
// pairs of S set their keys; so at the threshold of S's least level it is
// counted among the keywords at or above it, and its C(|S|, 2) pairs among
// the hits there, and if S is its only keyword, S's token is among the
// tokens there: the front point at or above that level prices it soundly.
// A keyword sharing its bucket is held at the bucket's level, which is at
// least its own.
func (v *PageView) NextInner(i int, q *LevelQuery) int {
	n, _ := slices.BinarySearch(q.ids, uint32(v.t.cfg.KeywordWidth)) // the ids a slot holds
	ids, held := q.ids[:n], q.held
	for off := nodeHeaderSize + i*v.stride; i < v.count; i, off = i+1, off+v.stride {
		held = held[:0]
		tbl := v.data[off+v.lvOff : off+v.lvOff+8*v.lvWords]
		for j, k := range ids {
			l := tableLevel(tbl, k%MaxLevelWidth)
			if l == 0 {
				continue
			}
			held = append(held, heldLevel{pos: int32(j), level: l})
			for x := len(held) - 1; x > 0 && held[x-1].level < l; x-- {
				held[x-1], held[x] = held[x], held[x-1]
			}
		}
		if len(held) == 0 {
			continue
		}
		q.held = held
		if sig := (*sigBytes)(v.data[off+v.sigOff : off+v.stride]); len(held) == 1 { // one keyword, one point
			least := 1
			if sigHas(sig, q.tokens[held[0].pos]) == 0 {
				least = 2
			}
			q.front = append(q.front[:0], LevelCount{Score: LevelScore(held[0].level), Count: 1, Least: least})
		} else {
			q.front = levelFront(sig, q)
		}
		return i
	}
	q.held = held
	return v.count
}

// levelFront computes the price points of a slot whose signature is sig
// from q.held: down the levels held, at the last keyword of each level, the
// keywords so far, the pairs among them whose key the signature holds and,
// while one feature can hold but one of them, whether one has its token.
func levelFront(sig *sigBytes, q *LevelQuery) []LevelCount {
	front, held := q.front[:0], q.held
	hits, seen, token := 0, 0, false
	var last LevelCount
	for x, a := range held {
		for _, b := range held[:x] {
			hits += sigHas(sig, q.pairHash(a, b))
		}
		if x+1 < len(held) && held[x+1].level == a.level {
			continue // the level goes on
		}
		c := min(x+1, pairCount(hits))
		least := c
		if c == 1 {
			for ; !token && seen <= x; seen++ {
				token = sigHas(sig, q.tokens[held[seen].pos]) != 0
			}
			if !token {
				least = 2
			}
		}
		if c > last.Count || least < last.Least {
			last = LevelCount{Score: LevelScore(a.level), Count: c, Least: least}
			front = append(front, last)
		}
	}
	return front
}

// pairCount is the most keywords one feature can hold when hits of their
// pairs are set: the largest c with C(c, 2) ≤ hits.
func pairCount(hits int) int {
	c := 1
	for c*(c+1)/2 <= hits { // C(c+1, 2) ≤ hits
		c++
	}
	return c
}

// tableLevel reads bucket b's level off the table bytes tbl.
func tableLevel(tbl []byte, b uint32) uint8 { return tbl[b/2] >> (b % 2 * ScoreLevelBits) & MaxLevel }
