// Package kwset implements the textual substrate of the stpq library:
// a vocabulary that interns keyword strings, and keyword sets represented
// as fixed-width bitsets over that vocabulary.
//
// The paper (Section 3) measures textual relevance with the Jaccard
// similarity between a feature object's keywords t.W and the query keywords
// W. The bitset representation makes Jaccard, intersection and union
// counts O(w/64), and doubles as the binary vector that Section 4.2 maps to
// a Hilbert value.
package kwset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Vocabulary interns keyword strings and assigns each distinct keyword a
// stable small integer id in [0, Size).
//
// A Vocabulary is not safe for concurrent mutation; concurrent lookups are
// safe once construction is complete.
type Vocabulary struct {
	ids   map[string]int
	words []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]int)}
}

// VocabularyOf builds a vocabulary from the given words, ignoring
// duplicates. Words are normalized with Normalize.
func VocabularyOf(words ...string) *Vocabulary {
	v := NewVocabulary()
	for _, w := range words {
		v.Intern(w)
	}
	return v
}

// Normalize lower-cases and trims a keyword. All vocabulary operations
// normalize their inputs, so "Pizza" and " pizza " denote the same keyword.
func Normalize(w string) string { return strings.ToLower(strings.TrimSpace(w)) }

// Clone returns an independent copy of the vocabulary with the same ids.
// Rebuilding a database interns new keywords into a clone and swaps it in,
// so queries running against the previous snapshot keep a stable view.
func (v *Vocabulary) Clone() *Vocabulary {
	c := &Vocabulary{
		ids:   make(map[string]int, len(v.ids)),
		words: append([]string(nil), v.words...),
	}
	for w, id := range v.ids {
		c.ids[w] = id
	}
	return c
}

// Intern returns the id of the keyword w, assigning a fresh id if w has not
// been seen before. Empty keywords (after normalization) are rejected with
// id -1.
func (v *Vocabulary) Intern(w string) int {
	w = Normalize(w)
	if w == "" {
		return -1
	}
	if id, ok := v.ids[w]; ok {
		return id
	}
	id := len(v.words)
	v.ids[w] = id
	v.words = append(v.words, w)
	return id
}

// Lookup returns the id of w, or -1 if w is not in the vocabulary.
func (v *Vocabulary) Lookup(w string) int {
	if id, ok := v.ids[Normalize(w)]; ok {
		return id
	}
	return -1
}

// Word returns the keyword string with the given id.
// It panics if the id is out of range.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// Size returns the number of distinct keywords.
func (v *Vocabulary) Size() int { return len(v.words) }

// Words returns a copy of all interned keywords in id order.
func (v *Vocabulary) Words() []string {
	out := make([]string, len(v.words))
	copy(out, v.words)
	return out
}

// SetOf builds a keyword set of width equal to the vocabulary size
// (rounded up to the vocabulary's current size) containing the given words.
// Unknown words are interned, growing the vocabulary.
func (v *Vocabulary) SetOf(words ...string) Set {
	ids := make([]int, 0, len(words))
	for _, w := range words {
		if id := v.Intern(w); id >= 0 {
			ids = append(ids, id)
		}
	}
	s := NewSet(v.Size())
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// LookupSet builds a keyword set containing only the words already present
// in the vocabulary; unknown words are silently dropped. This is the query
// side: a query keyword absent from the corpus can never match.
func (v *Vocabulary) LookupSet(words ...string) Set {
	s := NewSet(v.Size())
	for _, w := range words {
		if id := v.Lookup(w); id >= 0 {
			s.Add(id)
		}
	}
	return s
}

// Decode returns the keyword strings of s in id order.
func (v *Vocabulary) Decode(s Set) []string {
	out := make([]string, 0, s.Count())
	s.ForEach(func(id int) {
		if id < len(v.words) {
			out = append(out, v.words[id])
		}
	})
	return out
}

// Set is a keyword set over a fixed-width vocabulary, stored as a bitset.
// The zero value is an empty set of width 0. Sets of different widths may
// be combined; the result has the larger width.
type Set struct {
	bits []uint64
	w    int32 // width in bits (number of vocabulary slots)
	// card caches the cardinality as Count()+1; 0 means unknown. Sets built
	// through NewSet/Add/Remove/FromBits/FromBitsOwned keep it current, so
	// Count() is O(1) in the per-node-visit similarity kernels; only the
	// bulk operations (Union, UnionInPlace, Intersect) leave it unknown and
	// Count() falls back to a popcount pass. Width and cardinality are
	// 32-bit so that a Set is 32 bytes: it sits in every R-tree entry a
	// reader decodes or a heap keeps.
	card int32
}

// NewSet returns an empty set able to hold keyword ids in [0, width).
func NewSet(width int) Set {
	if width < 0 {
		width = 0
	}
	return Set{bits: make([]uint64, (width+63)/64), w: int32(width), card: 1}
}

// SetFromWords is a convenience constructor for tests: it builds a set of
// the given width with the listed ids.
func SetFromWords(width int, ids ...int) Set {
	s := NewSet(width)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Width returns the vocabulary width the set was created with.
func (s Set) Width() int { return int(s.w) }

// Add inserts the keyword id into the set, growing the set if needed.
func (s *Set) Add(id int) {
	if id < 0 {
		return
	}
	if id >= int(s.w) {
		s.grow(id + 1)
	}
	mask := uint64(1) << (uint(id) % 64)
	if s.bits[id/64]&mask == 0 && s.card > 0 {
		s.card++
	}
	s.bits[id/64] |= mask
}

// Remove deletes the keyword id from the set.
func (s *Set) Remove(id int) {
	if id < 0 || id >= int(s.w) {
		return
	}
	mask := uint64(1) << (uint(id) % 64)
	if s.bits[id/64]&mask != 0 && s.card > 0 {
		s.card--
	}
	s.bits[id/64] &^= mask
}

// grow widens the set to at least width bits.
func (s *Set) grow(width int) {
	need := (width + 63) / 64
	if need > len(s.bits) {
		nb := make([]uint64, need)
		copy(nb, s.bits)
		s.bits = nb
	}
	if int32(width) > s.w {
		s.w = int32(width)
	}
}

// Has reports whether the keyword id is in the set.
func (s Set) Has(id int) bool {
	if id < 0 || id/64 >= len(s.bits) {
		return false
	}
	return s.bits[id/64]&(1<<(uint(id)%64)) != 0
}

// Count returns the number of keywords in the set. Sets whose cardinality
// is cached (anything but the result of a bulk Union/Intersect) answer in
// O(1); the rest fall back to a popcount pass.
func (s Set) Count() int {
	if s.card > 0 {
		return int(s.card - 1)
	}
	return countBits(s.bits)
}

// countBits counts the set bits of a word slice.
func countBits(words []uint64) int {
	n := 0
	for _, b := range words {
		n += bits.OnesCount64(b)
	}
	return n
}

// IsEmpty reports whether the set has no keywords.
func (s Set) IsEmpty() bool {
	if s.card > 0 {
		return s.card == 1
	}
	for _, b := range s.bits {
		if b != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := Set{bits: make([]uint64, len(s.bits)), w: s.w, card: s.card}
	copy(c.bits, s.bits)
	return c
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	a, b := s, t
	if len(b.bits) > len(a.bits) {
		a, b = b, a
	}
	out := a.Clone()
	for i, bb := range b.bits {
		out.bits[i] |= bb
	}
	if b.w > out.w {
		out.w = b.w
	}
	out.card = 0 // cardinality unknown after bulk OR
	return out
}

// UnionInPlace ORs t into s, growing s if necessary. It is the node-summary
// update primitive of the SRT-index and IR²-tree.
func (s *Set) UnionInPlace(t Set) {
	if t.w > s.w {
		s.grow(int(t.w))
	}
	for i, bb := range t.bits {
		s.bits[i] |= bb
	}
	s.card = 0 // cardinality unknown after bulk OR
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	w := s.w
	if t.w > w {
		w = t.w
	}
	out := NewSet(int(w))
	n := len(s.bits)
	if len(t.bits) < n {
		n = len(t.bits)
	}
	for i := 0; i < n; i++ {
		out.bits[i] = s.bits[i] & t.bits[i]
	}
	out.card = 0 // cardinality unknown after bulk AND
	return out
}

// IntersectCount returns |s ∩ t| without allocating.
func (s Set) IntersectCount(t Set) int {
	n := len(s.bits)
	if len(t.bits) < n {
		n = len(t.bits)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.bits[i] & t.bits[i])
	}
	return c
}

// UnionCount returns |s ∪ t| without allocating.
func (s Set) UnionCount(t Set) int {
	a, b := s.bits, t.bits
	if len(b) > len(a) {
		a, b = b, a
	}
	c := 0
	for i, aa := range a {
		if i < len(b) {
			c += bits.OnesCount64(aa | b[i])
		} else {
			c += bits.OnesCount64(aa)
		}
	}
	return c
}

// Intersects reports whether s and t share at least one keyword. This is
// the sim(t, W) > 0 relevance test used throughout the algorithms.
func (s Set) Intersects(t Set) bool {
	n := len(s.bits)
	if len(t.bits) < n {
		n = len(t.bits)
	}
	for i := 0; i < n; i++ {
		if s.bits[i]&t.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same keywords
// (regardless of width).
func (s Set) Equal(t Set) bool {
	a, b := s.bits, t.bits
	if len(b) > len(a) {
		a, b = b, a
	}
	for i, aa := range a {
		var bb uint64
		if i < len(b) {
			bb = b[i]
		}
		if aa != bb {
			return false
		}
	}
	return true
}

// IntersectUnionCount returns |s ∩ t| and |s ∪ t| without allocating. It
// is the inner loop of the Jaccard similarity kernel. When both
// cardinalities are cached — query sets always, index entries since page
// decode fills them — the union follows from |s|+|t|−|s∩t| and one popcount
// per word suffices; otherwise a single fused pass counts both.
func (s Set) IntersectUnionCount(t Set) (inter, union int) {
	if s.card > 0 && t.card > 0 {
		inter = s.IntersectCount(t)
		return inter, int(s.card-1) + int(t.card-1) - inter
	}
	a, b := s.bits, t.bits
	if len(b) > len(a) {
		a, b = b, a
	}
	for i, aa := range a {
		if i < len(b) {
			bb := b[i]
			inter += bits.OnesCount64(aa & bb)
			union += bits.OnesCount64(aa | bb)
		} else {
			union += bits.OnesCount64(aa)
		}
	}
	return inter, union
}

// Jaccard returns the Jaccard similarity |s∩t| / |s∪t| ∈ [0,1].
// Two empty sets have similarity 0, matching the paper's convention that a
// feature with no overlapping keyword is irrelevant.
func (s Set) Jaccard(t Set) float64 {
	inter, union := s.IntersectUnionCount(t)
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ForEach calls fn for each keyword id in ascending order.
func (s Set) ForEach(fn func(id int)) {
	for i, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(i*64 + b)
			word &^= 1 << uint(b)
		}
	}
}

// IDs returns the keyword ids in ascending order.
func (s Set) IDs() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(id int) { out = append(out, id) })
	return out
}

// WordsBits returns the set as a slice of uint64 bit words, least
// significant word first, sized to the set's width. The returned slice
// aliases the set's storage; callers must not modify it. It is the
// interchange format with the hilbert package and with page
// serialization.
func (s Set) WordsBits() []uint64 { return s.bits }

// FromBits constructs a set of the given width from raw bit words. The
// slice is copied.
func FromBits(width int, raw []uint64) Set {
	s := NewSet(width)
	copy(s.bits, raw)
	// Mask off bits beyond width in the last word.
	if width%64 != 0 && len(s.bits) > 0 {
		s.bits[len(s.bits)-1] &= (1 << uint(width%64)) - 1
	}
	s.card = int32(countBits(s.bits)) + 1
	return s
}

// FromBitsOwned constructs a set of the given width that takes ownership of
// raw: the slice is aliased, not copied, and excess bits beyond width are
// masked off in place. Page decoding uses it with a caller's arena so each
// entry's keyword set costs zero extra allocations; callers must not reuse
// raw afterwards. The cardinality is counted here, once, and every
// similarity kernel that reads the entry reads the count instead of
// recounting.
func FromBitsOwned(width int, raw []uint64) Set {
	if width < 0 {
		width = 0
	}
	words := (width + 63) / 64
	if len(raw) > words {
		raw = raw[:words]
	}
	if width%64 != 0 && len(raw) == words && words > 0 {
		raw[words-1] &= (1 << uint(width%64)) - 1
	}
	return Set{bits: raw, w: int32(width), card: int32(countBits(raw)) + 1}
}

// String renders the set as a sorted id list, for debugging.
func (s Set) String() string {
	ids := s.IDs()
	sort.Ints(ids)
	return fmt.Sprintf("kwset%v", ids)
}
