package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/storage"
)

// PageView reads one node where it lies, in its page's image, without
// decoding it. It is the one way a page is read: a page is a fixed-width
// slot array, so every loop reads the slots it needs at the slot stride.
// A loop that only walks the geometry reads a slot's rectangle or
// location, child page, item id and visibility (Rect, Point, Child,
// ItemID, Visible); a loop that filters by keywords and then prices — the
// feature stream, which rejects most slots of a node on their keyword
// words alone — scans a leaf's words in the image and counts the
// survivors' (NextIntersecting, NextCounted) and reads their scores
// (Score), and scans an internal page's score tables at the query
// keywords, leaving each survivor's price points (NextInner); and a loop
// that needs a keyword set decodes the slot (Entry). decodeNode, the
// mutators' private copy, is Entry over every slot.
//
// A view is a value holding the page's image (storage.BufferPool.Get) and
// no lock, so it reads the bytes it fetched however often the page is
// evicted meanwhile. Nothing a view hands out aliases the image — Entry
// copies the keyword words, because a write to the page on a tree being
// built or merged rewrites the image in place. The methods take a pointer
// only so that a call per slot does not copy the view.
type PageView struct {
	data []byte // header and count slots, nothing beyond
	t    *Tree
	// hidden is the tree's WithExclude set on a leaf that may hold
	// tombstoned items, nil otherwise.
	hidden map[int64]struct{}
	pageLayout
	count int
	leaf  bool
}

// View returns the node at page id as a view of its image: one logical
// read, on a miss a physical read and possibly an eviction, exactly as the
// paper counts a node visit — and nothing decoded. Visible and Entry hide
// what WithExclude tombstoned.
func (t *Tree) View(id storage.PageID) (PageView, error) {
	data, err := t.pool.Get(id)
	if err != nil {
		return PageView{}, err
	}
	return t.viewOf(data)
}

// viewOf validates a page image once — header, count against the capacity
// and against the bytes present — so the accessors index unchecked. The
// slot layout is the tree's, computed when the tree was made.
func (t *Tree) viewOf(data []byte) (PageView, error) {
	if len(data) < nodeHeaderSize {
		return PageView{}, fmt.Errorf("rtree: short page: %d bytes", len(data))
	}
	leaf := data[0]&1 == 1
	v := PageView{
		t:          t,
		leaf:       leaf,
		count:      int(binary.LittleEndian.Uint16(data[1:3])),
		pageLayout: *t.layout(leaf),
	}
	if v.count > v.capacity {
		return PageView{}, fmt.Errorf("rtree: corrupt page: count %d exceeds capacity %d", v.count, v.capacity)
	}
	end := nodeHeaderSize + v.count*v.stride
	if end > len(data) {
		return PageView{}, fmt.Errorf("rtree: short page: %d entries need %d bytes, have %d", v.count, end, len(data))
	}
	v.data = data[:end]
	if v.leaf && len(t.exclude) > 0 {
		v.hidden = t.exclude
	}
	return v, nil
}

// Len returns the number of slots in the node.
func (v *PageView) Len() int { return v.count }

// Leaf reports whether the node is a leaf.
func (v *PageView) Leaf() bool { return v.leaf }

// NextIntersecting returns the first slot at or after i whose keyword words
// share a bit with q, or Len() when there is none. It agrees slot by slot
// with Set.Intersects on the decoded entry: words are compared up to the
// narrower of the two sets, so an empty q meets nothing. The page is a
// leaf: an inner page of a tree with keywords keeps score tables, which
// NextInner reads.
func (v *PageView) NextIntersecting(i int, q []uint64) int {
	n := min(v.words, len(q))
	if n == 0 {
		return v.count
	}
	// Masking the tree's last word on the query side: once, not per slot.
	last := q[n-1]
	if n == v.words {
		last &= v.lastMask
	}
	for off := nodeHeaderSize + i*v.stride + v.kwOff; i < v.count; i, off = i+1, off+v.stride {
		w := v.data[off : off+8*n]
		hit := binary.LittleEndian.Uint64(w[8*(n-1):]) & last
		for j := 0; j < n-1; j++ {
			hit |= binary.LittleEndian.Uint64(w[8*j:]) & q[j]
		}
		if hit != 0 {
			return i
		}
	}
	return v.count
}

// NextCounted is NextIntersecting that counts: it returns the first slot
// at or after i whose keyword words share a bit with q, or Len(), with
// inter = |words ∩ q| and count = |words| — what Set.IntersectCount(q) and
// Count give on the slot's decoded Entry, whose words are masked to the
// tree's keyword width — so the slot is priced without being decoded.
// A tree of two keyword words — the width the benchmark's 128-keyword
// trees have — scans unrolled with the counts fused in; any other width,
// or a query narrower than the tree, takes NextIntersecting and counts the
// slot it meets. Like NextIntersecting it reads a leaf; the feature stream
// meets every internal page by NextInner.
func (v *PageView) NextCounted(i int, q []uint64) (slot, inter, count int) {
	// The query's last word is masked once, a slot's only to be counted.
	data, end, stride, mask := v.data, v.count, v.stride, v.lastMask
	n := min(v.words, len(q))
	if n == 2 && v.words == 2 {
		off := nodeHeaderSize + i*stride + v.kwOff
		q0, q1 := q[0], q[1]&mask
		for ; i < end; i, off = i+1, off+stride {
			w := data[off : off+16]
			x0, x1 := binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[8:])
			if x0&q0|x1&q1 != 0 {
				return i, bits.OnesCount64(x0&q0) + bits.OnesCount64(x1&q1), bits.OnesCount64(x0) + bits.OnesCount64(x1&mask)
			}
		}
		return end, 0, 0
	}
	if i = v.NextIntersecting(i, q); i == end {
		return i, 0, 0
	}
	last := v.words - 1
	w := v.slot(i)[v.kwOff:v.stride]
	for j := 0; j <= last; j++ {
		x := binary.LittleEndian.Uint64(w[8*j:])
		if j == last {
			x &= mask
		}
		count += bits.OnesCount64(x)
		if j < n {
			inter += bits.OnesCount64(x & q[j])
		}
	}
	return i, inter, count
}

// slot returns the node's bytes from the start of slot i on; viewOf made
// sure the slot's stride of them is there.
func (v *PageView) slot(i int) []byte { return v.data[nodeHeaderSize+i*v.stride:] }

// Rect returns slot i's rectangle: a child's MBR, or the degenerate
// rectangle at a leaf item's location.
func (v *PageView) Rect(i int) geo.Rect {
	if !v.leaf {
		return mbrOf(v.slot(i))
	}
	return geo.RectOf(v.Point(i))
}

// Point returns the location of leaf slot i. Unlike Rect it is inlined,
// so a loop over a leaf's slots pays no call per slot.
func (v *PageView) Point(i int) geo.Point { return pointOf(v.slot(i)) }

// pointOf reads the location of the leaf slot p, and mbrOf the MBR of the
// internal slot p. Each slices the bytes it reads once, so the reads
// themselves need no bounds check.
func pointOf(p []byte) geo.Point {
	c := p[8:24]
	return geo.Point{X: floatAt(c, 0), Y: floatAt(c, 8)}
}

func mbrOf(p []byte) geo.Rect {
	c := p[4:36]
	return geo.Rect{
		Min: geo.Point{X: floatAt(c, 0), Y: floatAt(c, 8)},
		Max: geo.Point{X: floatAt(c, 16), Y: floatAt(c, 24)},
	}
}

// Child returns the child page of internal slot i.
func (v *PageView) Child(i int) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(v.slot(i)))
}

// ItemID returns the item id of leaf slot i.
func (v *PageView) ItemID(i int) int64 { return int64(binary.LittleEndian.Uint64(v.slot(i))) }

// Score returns leaf slot i's score t.s where it lies: Entry's Score. The
// tree has scores; an internal slot's e.s is its table's top level, which
// Entry reads.
func (v *PageView) Score(i int) float64 { return floatAt(v.slot(i), v.kwOff-8) }

// Visible reports whether slot i is seen through the tree: false only for
// a leaf slot whose item WithExclude tombstoned.
func (v *PageView) Visible(i int) bool {
	if v.hidden == nil {
		return true
	}
	_, dead := v.hidden[v.ItemID(i)]
	return !dead
}

// Entry decodes slot i into e and reports whether the slot is visible: a
// leaf slot tombstoned by WithExclude returns false and decodes nothing.
// The keyword words, and an inner slot's score table and pair signature,
// are copied onto the end of *arena and e.Keywords, e.levels and e.pairs
// alias that copy — the keyword words of a slot with a table are read off
// it, as its score is: every keyword of a bucket with a level — so e stays
// valid for as long as that part of the
// arena is not written again: a caller that hands e out to be kept leaves
// the arena alone, one that does not cuts it back to its length before
// the call.
func (v *PageView) Entry(i int, e *Entry, arena *[]uint64) bool {
	if !v.Visible(i) {
		return false
	}
	p := v.slot(i)
	*e = Entry{Child: storage.InvalidPage, Leaf: v.leaf}
	if v.leaf {
		e.ItemID = int64(binary.LittleEndian.Uint64(p))
		e.Rect = geo.RectOf(pointOf(p))
	} else {
		e.Child = storage.PageID(binary.LittleEndian.Uint32(p))
		e.Rect = mbrOf(p)
	}
	if v.lvOff > 0 {
		e.Score = LevelScore(topLevel(p[v.lvOff:], v.t.cfg.KeywordWidth))
	} else if v.t.cfg.WithScore {
		e.Score = floatAt(p, v.kwOff-8)
	}
	if v.words > 0 {
		// The keyword words, or zeros for a table's keywords and the
		// table; then an inner slot's signature, if any.
		at, from := len(*arena), v.kwOff
		if v.lvOff > 0 {
			for range v.words {
				*arena = append(*arena, 0)
			}
			from = v.lvOff
		}
		for w := from; w < v.stride; w += 8 {
			*arena = append(*arena, binary.LittleEndian.Uint64(p[w:]))
		}
		kw, lv := at+v.words, at+v.words+v.lvWords
		if v.lvOff > 0 {
			e.levels, e.pairs = (*arena)[kw:lv:lv], (*PairSig)((*arena)[lv:])
			if r := buckets(v.t.cfg.KeywordWidth) % 16; r != 0 { // no level beyond the width
				e.levels[len(e.levels)-1] &= 1<<(ScoreLevelBits*r) - 1
			}
			presence((*arena)[at:kw], e.levels, v.t.cfg.KeywordWidth)
		}
		e.Keywords = kwset.FromBitsOwned(v.t.cfg.KeywordWidth, (*arena)[at:kw:kw])
	}
	return true
}

// floatAt reads the float64 stored at off.
func floatAt(p []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
}
