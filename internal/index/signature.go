package index

import (
	"encoding/binary"
	"fmt"

	"stpq/internal/kwset"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// Signature support: with Options.SignatureBits > 0 the feature index
// stores hashed keyword signatures of that width in its tree entries,
// like the signature files of the original IR²-tree [Felipe et al.],
// instead of exact keyword bitmaps. Signatures admit false positives, so
// a feature's exact keywords live in a paged record file and candidate
// leaves pay one page read to verify — the extra I/O a real signature
// index incurs. Query results are identical to exact mode; only the cost
// profile changes (BenchmarkAblationSignature quantifies it).

// sigHash maps a keyword id to its signature bit (Fibonacci hashing).
func sigHash(keyword, bits int) int {
	return int((uint64(keyword)*0x9e3779b97f4a7c15)>>32) % bits
}

// hashSet folds an exact keyword set into a signature of the given width.
func hashSet(exact kwset.Set, bits int) kwset.Set {
	sig := kwset.NewSet(bits)
	exact.ForEach(func(id int) { sig.Add(sigHash(id, bits)) })
	return sig
}

// PreparedQuery carries a query's textual part in both forms: the exact
// keyword set (for final score computation) and the tree-side set — the
// hashed signature in signature mode, the exact set otherwise.
type PreparedQuery struct {
	Exact QueryKeywords
	Tree  QueryKeywords
}

// Prepare lowers query keywords for this index.
func (x *FeatureIndex) Prepare(q QueryKeywords) PreparedQuery {
	pq := PreparedQuery{Exact: q, Tree: q}
	if x.sigBits > 0 {
		pq.Tree = QueryKeywords{Set: hashSet(q.Set, x.sigBits), Lambda: q.Lambda}
		if q.Set.IsEmpty() {
			pq.Tree.Set = kwset.NewSet(x.sigBits)
		}
	}
	return pq
}

// Exact reports whether tree entries carry exact keyword sets (no
// signature hashing).
func (x *FeatureIndex) Exact() bool { return x.sigBits == 0 }

// EntryRelevant reports whether the subtree below e may contain a feature
// with positive textual similarity. In signature mode this test is sound
// but admits false positives. Like EntryBound and ResolveLeaf it reads the
// entry and the prepared query in place: they are called once per visited
// entry, and a PreparedQuery alone is 96 bytes.
func (x *FeatureIndex) EntryRelevant(e *rtree.Entry, pq *PreparedQuery) bool {
	return e.Keywords.Intersects(pq.RelevantSet())
}

// RelevantSet is the one statement of the relevance rule, for EntryRelevant
// and for the feature stream, which scans page images for its words before
// it decodes an entry: an entry must meet the tree-side set — the hashed
// signature in signature mode — and an empty exact set meets nothing.
func (pq *PreparedQuery) RelevantSet() kwset.Set {
	if pq.Exact.Set.IsEmpty() {
		return kwset.Set{}
	}
	return pq.Tree.Set
}

// EntryBound returns an upper bound on s(t) for every feature t at or
// below e (ŝ(e) of Section 4.2). In exact mode leaf bounds are the exact
// score; in signature mode the textual term degrades to its trivial bound
// λ, because hashed signatures cannot bound the Jaccard similarity (two
// query keywords colliding onto one bit would make a ratio-based "bound"
// undercount true matches).
func (x *FeatureIndex) EntryBound(e *rtree.Entry, pq *PreparedQuery) float64 {
	if x.sigBits == 0 {
		return bound(e, &pq.Exact)
	}
	lambda := pq.Exact.Lambda
	if !e.Keywords.Intersects(pq.Tree.Set) {
		return (1 - lambda) * e.Score
	}
	return (1-lambda)*e.Score + lambda
}

// ResolveLeaf returns the preference score s(t) of a leaf entry and
// whether the feature is relevant. In exact mode (the default) both are
// exact; in signature mode this reads the feature's record page (the
// verification I/O of a signature index).
func (x *FeatureIndex) ResolveLeaf(e *rtree.Entry, pq *PreparedQuery) (s float64, relevant bool, err error) {
	if x.sigBits == 0 {
		if !e.Keywords.Intersects(pq.Exact.Set) {
			return 0, false, nil
		}
		return score(e, &pq.Exact), true, nil
	}
	exact, err := x.records.get(e.ItemID)
	if err != nil {
		return 0, false, err
	}
	if !exact.Intersects(pq.Exact.Set) {
		return 0, false, nil // signature false positive
	}
	s = (1-pq.Exact.Lambda)*e.Score + pq.Exact.Lambda*pq.Exact.Sim.Sim(exact, pq.Exact.Set)
	return s, true, nil
}

// recordFile stores each feature's exact keyword set in fixed-size
// records behind its own buffer pool, so verifications cost page reads.
type recordFile struct {
	pool     *storage.BufferPool
	width    int // vocabulary width of the stored sets
	recSize  int
	perPage  int
	ordinals map[int64]int // feature id -> record ordinal
	count    int
}

// newRecordFile creates an empty record file on a fresh in-memory disk.
func newRecordFile(width, pageSize, bufferPages int) *recordFile {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	if bufferPages <= 0 {
		bufferPages = rtree.DefaultBufferPages
	}
	recSize := 8 * ((width + 63) / 64)
	perPage := pageSize / recSize
	if perPage < 1 {
		perPage = 1
	}
	return &recordFile{
		pool:     storage.NewBufferPool(storage.NewMemDisk(pageSize), bufferPages),
		width:    width,
		recSize:  recSize,
		perPage:  perPage,
		ordinals: make(map[int64]int),
	}
}

// put appends the exact keyword set of a feature.
func (r *recordFile) put(id int64, exact kwset.Set) error {
	if _, dup := r.ordinals[id]; dup {
		return fmt.Errorf("index: duplicate feature id %d in record file", id)
	}
	ord := r.count
	page := ord / r.perPage
	disk := r.pool.Disk()
	for disk.NumPages() <= page {
		if _, err := disk.Allocate(); err != nil {
			return err
		}
	}
	cur, err := r.pool.Get(storage.PageID(page))
	if err != nil {
		return err
	}
	img := make([]byte, disk.PageSize())
	copy(img, cur) // cur is the disk's own image: it must not be modified
	off := (ord % r.perPage) * r.recSize
	words := exact.WordsBits()
	for w := 0; w < r.recSize/8; w++ {
		var v uint64
		if w < len(words) {
			v = words[w]
		}
		binary.LittleEndian.PutUint64(img[off+8*w:], v)
	}
	if err := r.pool.WriteThrough(storage.PageID(page), img); err != nil {
		return err
	}
	r.ordinals[id] = ord
	r.count++
	return nil
}

// get reads the exact keyword set of a feature, costing a page read.
func (r *recordFile) get(id int64) (kwset.Set, error) {
	ord, ok := r.ordinals[id]
	if !ok {
		return kwset.Set{}, fmt.Errorf("index: feature id %d not in record file", id)
	}
	buf, err := r.pool.Get(storage.PageID(ord / r.perPage))
	if err != nil {
		return kwset.Set{}, err
	}
	off := (ord % r.perPage) * r.recSize
	raw := make([]uint64, r.recSize/8)
	for w := range raw {
		raw[w] = binary.LittleEndian.Uint64(buf[off+8*w:])
	}
	// raw is freshly allocated here, so the set can take ownership.
	return kwset.FromBitsOwned(r.width, raw), nil
}

// stats returns the record pool's I/O counters.
func (r *recordFile) stats() storage.Stats { return r.pool.Stats() }

// AllExact returns every indexed feature with its exact keyword set,
// fetching record pages in signature mode. It backs the brute-force
// correctness oracle.
func (x *FeatureIndex) AllExact() ([]rtree.Entry, error) {
	all, err := x.tree.All()
	if err != nil {
		return nil, err
	}
	if x.sigBits == 0 {
		return all, nil
	}
	for i := range all {
		exact, err := x.records.get(all[i].ItemID)
		if err != nil {
			return nil, err
		}
		all[i].Keywords = exact
	}
	return all, nil
}
