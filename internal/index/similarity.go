package index

import (
	"fmt"
	"math"
)

// Similarity selects the textual similarity function sim(t, W) of
// Definition 1. The paper's experiments use Jaccard but define sim()
// generically; each measure here comes with a sound node-level bound so
// the ŝ(e) ≥ s(t) contract of Section 4.1 — and with it every algorithm —
// holds unchanged.
//
// All measures return 0 when the sets share no keyword, so the
// sim(t, W) > 0 relevance filter is measure-independent.
type Similarity int

const (
	// Jaccard is |t.W ∩ W| / |t.W ∪ W| (the paper's choice).
	Jaccard Similarity = iota
	// Dice is 2|t.W ∩ W| / (|t.W| + |W|).
	Dice
	// Cosine is |t.W ∩ W| / √(|t.W|·|W|) (set cosine).
	Cosine
	// Overlap is |t.W ∩ W| / min(|t.W|, |W|).
	Overlap
)

// String implements fmt.Stringer.
func (s Similarity) String() string {
	switch s {
	case Jaccard:
		return "jaccard"
	case Dice:
		return "dice"
	case Cosine:
		return "cosine"
	case Overlap:
		return "overlap"
	default:
		return fmt.Sprintf("Similarity(%d)", int(s))
	}
}

// SimCounts computes sim(t, w) from counts: inter = |t ∩ w|, tc = |t| and
// wc = |w|. It is the one expression: the feature stream prices a page slot
// from the counts its keyword scan takes, and a decoded Entry is priced
// from its set's counts. Sets that share no keyword score 0.
func (s Similarity) SimCounts(inter, tc, wc int) float64 {
	if inter == 0 {
		return 0
	}
	switch s {
	case Dice:
		return 2 * float64(inter) / float64(tc+wc)
	case Cosine:
		return float64(inter) / math.Sqrt(float64(tc)*float64(wc))
	case Overlap:
		return float64(inter) / float64(min(tc, wc))
	default: // Jaccard: |t ∪ w| = |t| + |w| − |t ∩ w|
		return float64(inter) / float64(tc+wc-inter)
	}
}

// NodeBoundCounts returns an upper bound on sim(t, w) over every feature
// t whose keywords are contained in the node summary eW, from inter =
// |eW ∩ w| and wc = |w|. Derivations (with i = |eW ∩ w| ≥ j = |t.W ∩ w|
// and |t.W| ≥ j):
//
//	Jaccard: |t∩w|/|t∪w| ≤ j/|w| ≤ i/|w|
//	Dice:    2j/(|t|+|w|) ≤ 2j/(j+|w|) ≤ 2i/(i+|w|), which increases in
//	         j and is ≤ 1 since i ≤ |w|; a feature with t.W = eW ∩ w meets it
//	Cosine:  |t∩w|/√(|t||w|) ≤ √(|t∩w|/|w|) ≤ √(i/|w|), capped at 1
//	Overlap: ≤ 1 whenever i ≥ 1
func (s Similarity) NodeBoundCounts(inter, wc int) float64 {
	if inter == 0 {
		return 0
	}
	switch s {
	case Dice:
		return s.SimCounts(inter, inter, wc)
	case Cosine:
		return math.Min(1, math.Sqrt(float64(inter)/float64(wc)))
	case Overlap:
		return 1
	default: // Jaccard
		return float64(inter) / float64(wc)
	}
}
