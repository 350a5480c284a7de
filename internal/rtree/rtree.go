// Package rtree implements the disk-resident R-tree that underlies all
// three indexes of the stpq library: the plain R-tree over data objects,
// the SRT-index, and the modified IR²-tree over feature objects (paper
// Sections 4 and 8).
//
// Every node occupies exactly one fixed-size page behind an LRU buffer
// pool, so node visits translate one-to-one into the logical/physical page
// reads the paper measures. Every reader scans the page image where it lies
// (PageView), one counted read per node visit, and decodes only the slots
// it needs; only the mutators (Insert, Delete) decode a private copy of a
// whole node (Tree.Node). Entries optionally carry the augmentation
// required by Section 4.1: the maximum non-spatial score of the subtree
// (e.s) and a keyword summary of all feature objects below (e.W).
//
// The page layout follows from the configuration alone. A leaf slot holds
// the item's id, location, score (WithScore) and keyword bitmap; a tree
// with keywords has scores. An internal slot of a tree with keywords keeps
// in place of e.s and e.W a score table (levels.go): for each keyword, up
// to MaxLevelWidth of them, the best score of a feature below holding it,
// as a 4-bit level; above MaxLevelWidth keyword k shares the level of
// bucket k mod MaxLevelWidth, the best of its keywords'. e.W is the
// keywords with a level, e.s the top level. The slot ends in a signature
// of the keyword pairs that occur together in one feature below, and of
// the keywords that are some feature's only one (PairSig), which tightens
// the keyword term of the bound. A reader prices an internal slot by one
// scan (PageView.NextInner), which leaves the slot's price points —
// scores, and the query keyword counts the pairs and tokens allow at each
// — in a LevelQuery. The widest vocabulary a page fits is bounded by the
// leaf bitmaps alone (MaxKeywordWidth). The SRT and IR² indexes
// share this node format — they differ only in how leaf entries are
// clustered at build time, which isolates the paper's index contribution
// (Section 4.2) from incidental implementation detail.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/storage"
)

// Config controls the shape of a tree.
type Config struct {
	// PageSize is the on-disk page (and node) size in bytes.
	// Defaults to storage.DefaultPageSize.
	PageSize int
	// KeywordWidth is the vocabulary width w of keyword summaries carried
	// by every entry; 0 stores no textual augmentation (plain R-tree).
	// Above 0 the tree needs WithScore, and every internal slot carries a
	// score table of min(w, MaxLevelWidth) levels and a pair signature (the
	// package doc). It is at most MaxKeywordWidth(PageSize).
	KeywordWidth int
	// WithScore selects whether entries carry the non-spatial score
	// augmentation e.s. Item scores are in [0, 1] on a tree with keywords,
	// whose inner slots keep score tables.
	WithScore bool
	// BufferPages is the LRU buffer-pool capacity in pages. Defaults to
	// DefaultBufferPages.
	BufferPages int
	// Disk optionally supplies the backing store; by default an in-memory
	// disk is created.
	Disk storage.Disk
}

// DefaultBufferPages is the default buffer-pool capacity (4 MiB of 4 KiB
// pages), deliberately small relative to the experiment datasets so that
// the paper's I/O effects remain visible.
const DefaultBufferPages = 1024

// Entry is a single slot of a node. Leaf entries describe one indexed item
// (a data object or feature object); internal entries point at a child
// node and carry the aggregated MBR, maximum score and keyword summary of
// the whole subtree.
//
// The field order packs Leaf beside Child: an Entry is 120 bytes.
type Entry struct {
	// Rect is the MBR of the subtree; for leaf entries it is the
	// degenerate rectangle at the item's location.
	Rect geo.Rect
	// Child is the page of the child node, or storage.InvalidPage for
	// leaf entries.
	Child storage.PageID
	// Leaf reports whether this entry describes an item rather than a
	// child node.
	Leaf bool
	// ItemID identifies the indexed item (leaf entries only).
	ItemID int64
	// Score is the item's non-spatial score t.s, or for internal entries
	// the maximum score of any item below (e.s). Valid when the tree was
	// built WithScore.
	Score float64
	// Keywords is the item's keyword set t.W, or for internal entries the
	// union summary e.W. Valid when KeywordWidth > 0.
	Keywords kwset.Set
	// pairs is an internal entry's keyword-pair signature on a tree with
	// keywords, nil otherwise and on every leaf entry.
	pairs *PairSig
	// levels is an internal entry's score table on a tree with keywords,
	// 16 levels to a word, nil otherwise and on every leaf entry. Its
	// Keywords and Score are read off it.
	levels []uint64
}

// Point returns the location of a leaf entry.
func (e Entry) Point() geo.Point { return e.Rect.Min }

// Node is the decoded form of one page, private to whoever decoded it.
type Node struct {
	Leaf    bool
	Entries []Entry
}

// Tree is a paged R-tree. It is not safe for concurrent mutation.
type Tree struct {
	cfg    Config
	pool   *storage.BufferPool
	root   storage.PageID
	height int // 1 = root is a leaf
	size   int // number of items
	// layouts are the inner and the leaf pages' slot layouts (layout),
	// computed once from cfg.
	layouts [2]pageLayout
	minFill int
	// splits counts overflow splits performed by Insert since the tree
	// was built or opened — the degradation signal incremental merges use
	// to decide when the tree has drifted far enough from its bulk-loaded
	// shape to warrant a full rebuild.
	splits int
	// exclude hides the listed item ids from every read path (see
	// WithExclude); nil on the canonical tree.
	exclude map[int64]struct{}
	// encBuf is encodeNode's page buffer, allocated at the first write.
	encBuf []byte
}

// ErrEmptyTree is returned by operations that need at least one item.
var ErrEmptyTree = errors.New("rtree: empty tree")

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.Disk == nil {
		cfg.Disk = storage.NewMemDisk(cfg.PageSize)
	}
	t, err := newTree(cfg)
	if err != nil {
		return nil, err
	}
	root, err := t.writeNode(&Node{Leaf: true})
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = 1
	return t, nil
}

// newTree is what New and Open share: a tree without root over cfg, whose
// PageSize and Disk are set, with its buffer pool and its page layouts.
func newTree(cfg Config) (*Tree, error) {
	if cfg.KeywordWidth > 0 && !cfg.WithScore {
		return nil, fmt.Errorf("rtree: a tree of keyword width %d needs WithScore", cfg.KeywordWidth)
	}
	if widest := MaxKeywordWidth(cfg.PageSize); cfg.KeywordWidth > widest {
		return nil, fmt.Errorf("rtree: keyword width %d exceeds %d, the widest a page of %d bytes fits",
			cfg.KeywordWidth, widest, cfg.PageSize)
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = DefaultBufferPages
	}
	t := &Tree{
		cfg:     cfg,
		pool:    storage.NewBufferPool(cfg.Disk, cfg.BufferPages),
		layouts: [2]pageLayout{layoutOf(cfg, false), layoutOf(cfg, true)},
	}
	t.minFill = max(1, t.layouts[0].capacity*2/5) // 40% minimum fill on splits
	return t, nil
}

// pageLayout is where the slots of one kind of page keep their fields. A
// slot is stride bytes wide; its keyword words, words of them, start at
// kwOff — after the id or child, the point or rectangle and, WithScore,
// the score — and lastMask clears the bits beyond the keyword width in the
// last of them, as decodeNode does. An inner slot of a tree with keywords
// has neither score nor keyword words: its score table, lvWords words,
// starts at lvOff, after the rectangle, and its PairSig at sigOff, after
// the table; lvOff and sigOff are 0 on every other page. capacity is how
// many slots fit in a page.
type pageLayout struct {
	kwOff, lvOff, sigOff, stride, words, lvWords, capacity int
	lastMask                                               uint64
}

// layoutOf computes the layout of the leaf or inner pages of a tree
// configured by cfg.
func layoutOf(cfg Config, leaf bool) pageLayout {
	l := pageLayout{words: kwWords(cfg.KeywordWidth), lastMask: math.MaxUint64}
	l.kwOff = 4 + 32 // child + rect
	if leaf {
		l.kwOff = 8 + 16 // itemID + point
	}
	if cfg.WithScore {
		l.kwOff += 8
	}
	l.stride = l.kwOff + 8*l.words
	if !leaf && cfg.KeywordWidth > 0 { // the table stands for e.s and e.W
		l.kwOff, l.lvOff, l.lvWords = 0, 4+32, levelWords(cfg.KeywordWidth)
		l.sigOff = l.lvOff + 8*l.lvWords
		l.stride = l.sigOff + 8*sigWords
	}
	l.capacity = (cfg.PageSize - nodeHeaderSize) / l.stride
	if r := cfg.KeywordWidth % 64; r != 0 {
		l.lastMask = 1<<uint(r) - 1
	}
	return l
}

// MaxKeywordWidth returns the widest vocabulary a tree of keywords and
// scores fits in pages of pageSize bytes, two slots to a leaf and two to an
// inner page (no wider than 8·pageSize bits), or −1 where none fits. An
// inner slot is as wide at MaxLevelWidth keywords as at more, so from a
// page of 460 bytes on the leaf bitmaps alone bound it.
func MaxKeywordWidth(pageSize int) int {
	return sort.Search(8*max(pageSize, 0)+1, func(w int) bool {
		cfg := Config{PageSize: pageSize, KeywordWidth: w, WithScore: true}
		return layoutOf(cfg, false).capacity < 2 || layoutOf(cfg, true).capacity < 2
	}) - 1
}

// layout returns the layout of the tree's leaf or inner pages.
func (t *Tree) layout(leaf bool) *pageLayout {
	if leaf {
		return &t.layouts[1]
	}
	return &t.layouts[0]
}

// kwWords returns the number of 64-bit words needed for a keyword width.
func kwWords(width int) int { return (width + 63) / 64 }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Pool exposes the buffer pool, whose Stats provide the paper's I/O
// metric.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// WithPool returns a read view of the tree that routes page access through
// p — typically a Session handle of the tree's own pool, so that one
// query's reads are charged to its private accumulator while the page
// cache stays shared. The view aliases the tree's structure and must not
// be mutated (no Insert/Delete/BulkLoad).
func (t *Tree) WithPool(p *storage.BufferPool) *Tree {
	c := *t
	c.pool = p
	return &c
}

// WithExclude returns a read view of the tree that hides the leaf entries
// whose item ids appear in dead — the tombstone filter of live ingest.
// Every reader goes through a PageView, whose Visible and Entry report a
// hidden slot as absent, so nothing is filtered or copied. Internal-node
// aggregates still cover the hidden items; bounds stay sound upper bounds,
// merely looser. The view aliases the tree's structure and must not be
// mutated; Len keeps reporting the unfiltered item count.
func (t *Tree) WithExclude(dead map[int64]struct{}) *Tree {
	if len(dead) == 0 {
		return t
	}
	c := *t
	c.exclude = dead
	return &c
}

// Root returns the page id of the root node.
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Splits returns the number of overflow splits Insert has performed
// since the tree was built or opened.
func (t *Tree) Splits() int { return t.splits }

// Node reads the page at id — one logical read, counted as a View is — and
// decodes it into a private Node the caller may modify and write back: the
// read half of Insert's and Delete's read-modify-write. Readers scan the
// image instead (View).
func (t *Tree) Node(id storage.PageID) (*Node, error) {
	data, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	return t.decodeNode(data)
}

// RootEntry returns a synthetic internal entry describing the whole tree:
// its MBR, maximum score and keyword summary. Search algorithms seed their
// priority queues with it.
func (t *Tree) RootEntry() (Entry, error) {
	v, err := t.View(t.root)
	if err != nil {
		return Entry{}, err
	}
	// One allocation: the aggregate's words, then room for one slot's.
	n := t.layout(false).slotWords()
	buf := make([]uint64, 2*n)
	e := t.emptyAggregate(t.root, buf[:n:n])
	var c Entry
	for i := 0; i < v.Len(); i++ {
		slot := buf[n:n]
		if v.Entry(i, &c, &slot) {
			e.absorb(&c, t.cfg.KeywordWidth)
		}
	}
	return e, nil
}

// writeNode serializes n to a fresh page and returns its id.
func (t *Tree) writeNode(n *Node) (storage.PageID, error) {
	id, err := t.cfg.Disk.Allocate()
	if err != nil {
		return storage.InvalidPage, err
	}
	return id, t.updateNode(id, n)
}

// updateNode re-serializes n into an existing page.
func (t *Tree) updateNode(id storage.PageID, n *Node) error {
	buf, err := t.encodeNode(n)
	if err != nil {
		return err
	}
	return t.pool.WriteThrough(id, buf)
}

// entryAggregate folds a node's entries into the parent entry that should
// describe it.
func (t *Tree) entryAggregate(child storage.PageID, n *Node) Entry {
	e := t.emptyAggregate(child, make([]uint64, t.layout(false).slotWords()))
	for i := range n.Entries {
		e.absorb(&n.Entries[i], t.cfg.KeywordWidth)
	}
	return e
}

// emptyAggregate returns the internal entry for child that covers nothing:
// an empty keyword summary and, on a tree with keywords, an empty table and
// pair signature, all in buf (zeroed, slotWords of the inner layout long),
// which the entry owns.
func (t *Tree) emptyAggregate(child storage.PageID, buf []uint64) Entry {
	l := t.layout(false)
	w := l.words
	e := Entry{
		Rect:     geo.EmptyRect(),
		Child:    child,
		Keywords: kwset.FromBitsOwned(t.cfg.KeywordWidth, buf[:w:w]),
	}
	if l.lvOff > 0 {
		e.levels = buf[w : w+l.lvWords : w+l.lvWords]
		e.pairs = (*PairSig)(buf[w+l.lvWords:])
	}
	return e
}

// slotWords is how many 64-bit words a slot's keyword summary, score table
// and pair signature take together.
func (l *pageLayout) slotWords() int {
	if l.sigOff > 0 {
		return l.words + l.lvWords + sigWords
	}
	return l.words + l.lvWords
}

// absorb widens e to cover c: MBR union, maximum score and keyword union,
// and on an entry with a score table and a pair signature the levels and
// the keys of a leaf c's keywords below width — those its page slot holds
// — or an internal c's table and signature, with e.s the top level.
func (e *Entry) absorb(c *Entry, width int) {
	e.Rect = e.Rect.Union(c.Rect)
	e.Keywords.UnionInPlace(c.Keywords)
	s := c.Score
	switch {
	case e.levels == nil:
	case c.Leaf:
		s = 0
		if l := Level(c.Score); addLeaf(e.levels, c.Keywords.WordsBits(), width, l) {
			s = LevelScore(l)
		}
		e.pairs.addSet(c.Keywords.WordsBits(), width)
	case c.levels != nil:
		maxLevels(e.levels, c.levels)
		e.pairs.or(c.pairs)
	}
	if s > e.Score { // not NaN
		e.Score = s
	}
}

// Item is the caller-facing description of an indexed object, used for
// bulk loading and insertion.
type Item struct {
	ID       int64
	Location geo.Point
	Score    float64
	Keywords kwset.Set
}

// entryOf converts an Item into a leaf entry.
func (t *Tree) entryOf(it Item) Entry {
	kw := it.Keywords
	if t.cfg.KeywordWidth > 0 && kw.Width() == 0 {
		kw = kwset.NewSet(t.cfg.KeywordWidth)
	}
	return Entry{
		Rect:     geo.RectOf(it.Location),
		Child:    storage.InvalidPage,
		ItemID:   it.ID,
		Score:    it.Score,
		Keywords: kw,
		Leaf:     true,
	}
}

// CheckInvariants walks the whole tree verifying structural invariants:
// every child entry's MBR, max score (on a tree with score levels, its
// levels: a leaf's for each of its keywords, an inner entry's table),
// keyword summary and signature keys (a leaf's pairs and its token, or an
// inner entry's signature) are covered by the
// parent entry, leaves are all at the same depth, and the item count
// matches Len. It is used by tests and returns a descriptive error on the
// first violation.
func (t *Tree) CheckInvariants() error {
	count, err := t.checkNode(t.root, 1, nil)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: item count %d != Len %d", count, t.size)
	}
	return nil
}

// checkNode verifies the node at id (depth from root = d) against the
// parent entry, returning the number of items in the subtree.
func (t *Tree) checkNode(id storage.PageID, d int, parent *Entry) (int, error) {
	v, err := t.View(id)
	if err != nil {
		return 0, err
	}
	if v.Leaf() != (d == t.height) {
		return 0, fmt.Errorf("rtree: node %d at depth %d leaf=%v height=%d", id, d, v.Leaf(), t.height)
	}
	items := 0
	var arena []uint64
	for i := 0; i < v.Len(); i++ {
		var e Entry
		arena = arena[:0]
		if !v.Entry(i, &e, &arena) {
			continue
		}
		if parent != nil {
			if !parent.Rect.ContainsRect(e.Rect) {
				return 0, fmt.Errorf("rtree: node %d entry MBR %v outside parent %v", id, e.Rect, parent.Rect)
			}
			if t.cfg.WithScore && parent.levels == nil && e.Score > parent.Score+1e-12 {
				return 0, fmt.Errorf("rtree: node %d score %v exceeds parent %v", id, e.Score, parent.Score)
			}
			if t.cfg.KeywordWidth > 0 {
				if e.Keywords.UnionCount(parent.Keywords) != parent.Keywords.Count() {
					return 0, fmt.Errorf("rtree: node %d keywords not contained in parent summary", id)
				}
			}
			if parent.levels != nil && !coversLevels(parent.levels, &e, t.cfg.KeywordWidth) {
				return 0, fmt.Errorf("rtree: node %d score levels exceed the parent's", id)
			}
			if parent.pairs != nil && !parent.pairs.covers(&e, t.cfg.KeywordWidth) {
				return 0, fmt.Errorf("rtree: node %d pair signature not contained in parent signature", id)
			}
		}
		if e.Leaf {
			items++
			continue
		}
		sub, err := t.checkNode(e.Child, d+1, &e)
		if err != nil {
			return 0, err
		}
		items += sub
	}
	return items, nil
}

// infinity shorthand.
var inf = math.Inf(1)

// Meta is the small amount of tree state that lives outside the pages;
// persisting it alongside the page dump allows reopening a built tree.
type Meta struct {
	Root   storage.PageID `json:"root"`
	Height int            `json:"height"`
	Size   int            `json:"size"`
}

// Meta returns the tree's out-of-page state.
func (t *Tree) Meta() Meta { return Meta{Root: t.root, Height: t.height, Size: t.size} }

// Open reconstructs a tree around an existing disk (typically loaded from
// a page dump) and its saved Meta. The Config must match the one the tree
// was built with — page size and keyword width determine the page layout.
func Open(cfg Config, meta Meta) (*Tree, error) {
	if cfg.Disk == nil {
		return nil, errors.New("rtree: Open requires cfg.Disk")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = cfg.Disk.PageSize()
	}
	if cfg.PageSize != cfg.Disk.PageSize() {
		return nil, fmt.Errorf("rtree: config page size %d != disk page size %d",
			cfg.PageSize, cfg.Disk.PageSize())
	}
	t, err := newTree(cfg)
	if err != nil {
		return nil, err
	}
	if int(meta.Root) >= cfg.Disk.NumPages() {
		return nil, fmt.Errorf("rtree: meta root %d beyond disk (%d pages)",
			meta.Root, cfg.Disk.NumPages())
	}
	if meta.Height < 1 || meta.Size < 0 {
		return nil, fmt.Errorf("rtree: implausible meta %+v", meta)
	}
	t.root, t.height, t.size = meta.Root, meta.Height, meta.Size
	return t, nil
}

// OldItems returns the items of a tree with keywords and scores that an
// older version wrote at meta on cfg.Disk, so that it can be rebuilt in the
// current layout. Leaf slots were laid out then as they are now and are
// read through PageView. Of an inner page only each slot's child page is
// read, at the stride of the older inner layout: e.s and e.W, or a score
// table in their place where levels is set, then a signature where pairs
// is set. Older versions wrote tables only up to MaxLevelWidth keywords,
// where a table is as wide as it is now.
func OldItems(cfg Config, meta Meta, pairs, levels bool) ([]Item, error) {
	t, err := Open(cfg, meta)
	if err != nil {
		return nil, err
	}
	stride := 4 + 32 + 8 + 8*kwWords(cfg.KeywordWidth)
	if levels {
		stride = 4 + 32 + 8*levelWords(cfg.KeywordWidth)
	}
	if pairs {
		stride += 8 * sigWords
	}
	items := make([]Item, 0, meta.Size)
	var arena []uint64
	var walk func(id storage.PageID, d int) error
	walk = func(id storage.PageID, d int) error {
		data, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		if len(data) < nodeHeaderSize || (data[0]&1 == 1) != (d == t.height) {
			return fmt.Errorf("rtree: page %d at depth %d of a tree of height %d is not of its level", id, d, t.height)
		}
		if d == t.height {
			v, err := t.viewOf(data)
			if err != nil {
				return err
			}
			var e Entry
			for i := 0; i < v.Len(); i++ {
				v.Entry(i, &e, &arena)
				items = append(items, Item{ID: e.ItemID, Location: e.Point(), Score: e.Score, Keywords: e.Keywords})
			}
			if len(items) > meta.Size {
				return fmt.Errorf("rtree: more than the %d items meta records", meta.Size)
			}
			return nil
		}
		count := int(binary.LittleEndian.Uint16(data[1:3]))
		if nodeHeaderSize+count*stride > len(data) {
			return fmt.Errorf("rtree: short page %d: %d slots of %d bytes", id, count, stride)
		}
		for i := 0; i < count; i++ {
			if err := walk(storage.PageID(binary.LittleEndian.Uint32(data[nodeHeaderSize+i*stride:])), d+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return nil, err
	}
	if len(items) != meta.Size {
		return nil, fmt.Errorf("rtree: %d items below the root, meta records %d", len(items), meta.Size)
	}
	return items, nil
}
