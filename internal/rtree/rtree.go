// Package rtree implements the disk-resident R-tree that underlies all
// three indexes of the stpq library: the plain R-tree over data objects,
// the SRT-index, and the modified IR²-tree over feature objects (paper
// Sections 4 and 8).
//
// Every node occupies exactly one fixed-size page behind an LRU buffer
// pool, so node visits translate one-to-one into the logical/physical page
// reads the paper measures. A page is decoded once per residency in the
// pool: the decoded Node lives in the page's buffer-pool frame, Tree.Node
// hands the same immutable *Node to every reader (each call still counting
// one logical read), and the search primitives read its entries in place.
// Only the mutators (Insert, Delete) decode a private copy; a reader that
// filters a node by keywords before it picks from it scans the page image
// instead (PageView), pinned in its frame until it Releases the view.
// Entries optionally carry the augmentation
// required by Section 4.1: the maximum non-spatial score of the subtree
// (e.s) and a keyword summary of all feature objects below (e.W). The SRT
// and IR² indexes share this node format — they differ only in how leaf
// entries are clustered at build time, which isolates the paper's index
// contribution (Section 4.2) from incidental implementation detail.
package rtree

import (
	"errors"
	"fmt"
	"math"

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
	KeywordWidth int
	// WithScore selects whether entries carry the non-spatial score
	// augmentation e.s.
	WithScore bool
	// BufferPages is the LRU buffer-pool capacity in pages. Defaults to
	// DefaultBufferPages.
	BufferPages int
	// Disk optionally supplies the backing store; by default an in-memory
	// disk is created.
	Disk storage.Disk
	// FillFactor is the fraction of node capacity used during bulk
	// loading, in (0,1]. Defaults to 1 (fully packed nodes, as in Hilbert
	// bulk loading).
	FillFactor float64
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
// The field order packs Leaf beside Child: an Entry is 88 bytes, and every
// resident page keeps one per slot in its decoded form.
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
}

// Point returns the location of a leaf entry.
func (e Entry) Point() geo.Point { return e.Rect.Min }

// Node is the decoded form of one page. A *Node returned by Tree.Node is
// shared with every other reader of the tree and with the buffer pool that
// caches it: it and everything reachable from it — the Entries array, the
// keyword bits — must never be written.
type Node struct {
	Leaf    bool
	Entries []Entry
}

// Tree is a paged R-tree. It is not safe for concurrent mutation.
type Tree struct {
	cfg      Config
	pool     *storage.BufferPool
	root     storage.PageID
	height   int // 1 = root is a leaf
	size     int // number of items
	leafCap  int
	innerCap int
	minFill  int
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
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = DefaultBufferPages
	}
	if cfg.FillFactor <= 0 || cfg.FillFactor > 1 {
		cfg.FillFactor = 1
	}
	if cfg.Disk == nil {
		cfg.Disk = storage.NewMemDisk(cfg.PageSize)
	}
	t := &Tree{
		cfg:  cfg,
		pool: storage.NewBufferPool(cfg.Disk, cfg.BufferPages),
	}
	t.leafCap = nodeCapacity(cfg, true)
	t.innerCap = nodeCapacity(cfg, false)
	if t.leafCap < 2 || t.innerCap < 2 {
		return nil, fmt.Errorf("rtree: page size %d too small for keyword width %d",
			cfg.PageSize, cfg.KeywordWidth)
	}
	t.minFill = t.innerCap * 2 / 5 // 40% minimum fill on splits
	if t.minFill < 1 {
		t.minFill = 1
	}
	root, err := t.writeNode(&Node{Leaf: true})
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = 1
	return t, nil
}

// nodeCapacity computes how many entries of the given kind fit in a page.
func nodeCapacity(cfg Config, leaf bool) int {
	_, stride := slotLayout(cfg, leaf)
	return (cfg.PageSize - nodeHeaderSize) / stride
}

// slotLayout returns where a slot's keyword words start — after the id or
// child, the point or rectangle and the score — and the slot's width.
func slotLayout(cfg Config, leaf bool) (kwOff, stride int) {
	kwOff = 4 + 32 // child + rect
	if leaf {
		kwOff = 8 + 16 // itemID + point
	}
	if cfg.WithScore {
		kwOff += 8
	}
	return kwOff, kwOff + 8*kwWords(cfg.KeywordWidth)
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
// Filtering happens in the two ways a page is read: Node, which
// RangeSearch, AscendDistance, SearchPolygon, All and Leaves route through,
// hands out a filtered copy of a leaf that holds a hidden item; a PageView,
// which the feature stream scans, skips a hidden slot when it is asked to
// decode it and copies nothing. Internal-node aggregates still cover the
// hidden items; bounds stay sound upper bounds, merely looser. The view
// aliases the tree's structure and must not be mutated; Len keeps
// reporting the unfiltered item count.
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

// LeafCapacity returns the maximum number of entries in a leaf node.
func (t *Tree) LeafCapacity() int { return t.leafCap }

// InnerCapacity returns the maximum number of entries in an internal node.
func (t *Tree) InnerCapacity() int { return t.innerCap }

// Node returns the node stored at page id. Every call is one logical page
// read — a buffer-pool hit, or a physical read and possibly an eviction —
// exactly as the paper counts node visits; the decode is paid once per
// residency of the page in the pool, and the result is shared: callers
// must treat the node as immutable (see Node). On a WithExclude view a leaf
// holding tombstoned items is returned as a filtered private copy; the
// shared node is left untouched.
func (t *Tree) Node(id storage.PageID) (*Node, error) {
	v, err := t.pool.GetDecoded(id, t)
	if err != nil {
		return nil, err
	}
	n := v.(*Node)
	if len(t.exclude) == 0 || !n.Leaf {
		return n, nil
	}
	return t.withoutExcluded(n), nil
}

// withoutExcluded returns n itself when none of its items is tombstoned,
// and otherwise a copy holding only the live entries.
func (t *Tree) withoutExcluded(n *Node) *Node {
	var kept []Entry // nil until the first tombstoned item is met
	for i := range n.Entries {
		_, dead := t.exclude[n.Entries[i].ItemID]
		switch {
		case dead && kept == nil:
			kept = append(make([]Entry, 0, len(n.Entries)-1), n.Entries[:i]...)
		case !dead && kept != nil:
			kept = append(kept, n.Entries[i])
		}
	}
	if kept == nil {
		return n
	}
	return &Node{Leaf: true, Entries: kept}
}

// DecodePage implements storage.Decoder: the buffer pool calls it the first
// time a resident page is read through Node.
func (t *Tree) DecodePage(data []byte) (any, error) {
	return t.decodeNode(data)
}

// mutableNode reads the page (one logical read, like Node) and decodes a
// private copy the caller may modify and write back — the read half of
// Insert's and Delete's read-modify-write. It never touches the decoded
// form other readers share; updateNode's write invalidates that.
func (t *Tree) mutableNode(id storage.PageID) (*Node, error) {
	p, err := t.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	defer p.Unpin()
	return t.decodeNode(p.Data())
}

// RootEntry returns a synthetic internal entry describing the whole tree:
// its MBR, maximum score and keyword summary. Search algorithms seed their
// priority queues with it.
func (t *Tree) RootEntry() (Entry, error) {
	n, err := t.Node(t.root)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		Rect:     geo.EmptyRect(),
		Child:    t.root,
		Keywords: kwset.NewSet(t.cfg.KeywordWidth),
	}
	e.absorbAll(n)
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
	e := Entry{
		Rect:     geo.EmptyRect(),
		Child:    child,
		Keywords: kwset.NewSet(t.cfg.KeywordWidth),
	}
	e.absorbAll(n)
	return e
}

// absorbAll widens e to cover every entry of n: MBR union, maximum score
// and keyword union.
func (e *Entry) absorbAll(n *Node) {
	for i := range n.Entries {
		c := &n.Entries[i]
		e.Rect = e.Rect.Union(c.Rect)
		if c.Score > e.Score {
			e.Score = c.Score
		}
		e.Keywords.UnionInPlace(c.Keywords)
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
// every child entry's MBR, max score and keyword summary are covered by
// the parent entry, leaves are all at the same depth, and the item count
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
	n, err := t.Node(id)
	if err != nil {
		return 0, err
	}
	if n.Leaf != (d == t.height) {
		return 0, fmt.Errorf("rtree: node %d at depth %d leaf=%v height=%d", id, d, n.Leaf, t.height)
	}
	items := 0
	for i := range n.Entries {
		e := &n.Entries[i]
		if parent != nil {
			if !parent.Rect.ContainsRect(e.Rect) {
				return 0, fmt.Errorf("rtree: node %d entry MBR %v outside parent %v", id, e.Rect, parent.Rect)
			}
			if t.cfg.WithScore && e.Score > parent.Score+1e-12 {
				return 0, fmt.Errorf("rtree: node %d score %v exceeds parent %v", id, e.Score, parent.Score)
			}
			if t.cfg.KeywordWidth > 0 {
				if e.Keywords.UnionCount(parent.Keywords) != parent.Keywords.Count() {
					return 0, fmt.Errorf("rtree: node %d keywords not contained in parent summary", id)
				}
			}
		}
		if n.Leaf {
			if !e.Leaf {
				return 0, fmt.Errorf("rtree: leaf node %d holds non-leaf entry", id)
			}
			items++
			continue
		}
		if e.Leaf {
			return 0, fmt.Errorf("rtree: internal node %d holds leaf entry", id)
		}
		sub, err := t.checkNode(e.Child, d+1, e)
		if err != nil {
			return 0, err
		}
		items += sub
	}
	return items, nil
}

// epsilon for floating-point score comparisons within the tree.
const scoreEps = 1e-12

// almostLE reports a ≤ b up to floating-point jitter.
func almostLE(a, b float64) bool { return a <= b+scoreEps }

var _ = almostLE // referenced by tests

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
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = DefaultBufferPages
	}
	if cfg.FillFactor <= 0 || cfg.FillFactor > 1 {
		cfg.FillFactor = 1
	}
	t := &Tree{
		cfg:  cfg,
		pool: storage.NewBufferPool(cfg.Disk, cfg.BufferPages),
	}
	t.leafCap = nodeCapacity(cfg, true)
	t.innerCap = nodeCapacity(cfg, false)
	if t.leafCap < 2 || t.innerCap < 2 {
		return nil, fmt.Errorf("rtree: page size %d too small for keyword width %d",
			cfg.PageSize, cfg.KeywordWidth)
	}
	t.minFill = t.innerCap * 2 / 5
	if t.minFill < 1 {
		t.minFill = 1
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
