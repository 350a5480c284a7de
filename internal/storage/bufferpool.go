package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"stpq/internal/obs"
)

// BufferPool caches recently used pages of a Disk with an LRU eviction
// policy and counts logical and physical reads.
//
// The pool is intentionally simple: pages are read-mostly once an index is
// built, so there is no dirty-page write-back path — WriteThrough stores
// pages synchronously. The read paths (Get, GetDecoded) are safe for
// concurrent use and the lifetime counters are atomics, so any number of
// query goroutines may share one pool. Writes (WriteThrough) must not race
// reads — they only happen while an index is being built or mutated, which
// the layers above already serialize against queries.
//
// LRU state sits behind one mutex with one global LRU order, so serial I/O
// counts are reproducible run to run and match the paper's cost model.
//
// A frame holds the disk's own image of its page (Disk.ReadPage), not a
// copy: a miss is a lookup and LRU bookkeeping, and an eviction drops the
// reference. The pool bounds what the I/O model treats as resident, not
// the memory the pages take. Nothing writes an image that a query reads: a
// page is written only on a tree no query reads yet or on a merge clone's
// CowDisk overlay, and always through the disk, never through a frame.
//
// Each frame also has one slot for the decoded form of its page (see
// GetDecoded): whoever reads the page through the pool decodes it once per
// residency instead of once per visit. The slot is part of the frame — it
// is filled on the first decoded access, dropped when the frame is evicted
// or the pool is cleared, and emptied by WriteThrough — so there is no
// second cache with a capacity or an order of its own, and a decoded
// access takes exactly the counting path of Get.
//
// Per-query read accounting uses session handles (see Session): the paper
// attributes page reads to individual queries, and under concurrency the
// pool-wide counters interleave, so each query charges its own private
// Stats in addition to the shared lifetime counters.
type BufferPool struct {
	s *poolShared
	// local, when non-nil, receives this handle's read counts in addition
	// to the shared lifetime counters. It is owned by a single query
	// goroutine and uses plain (non-atomic) arithmetic.
	local *Stats
}

// poolShared is the state shared by a pool and all its session handles.
type poolShared struct {
	disk     Disk
	capacity int

	mu      sync.Mutex // guards lru, entries and the frames
	lru     *list.List // front = most recently used; values are *frame
	entries map[PageID]*list.Element

	logical   atomic.Int64
	physical  atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64

	metrics atomic.Pointer[PoolMetrics] // optional aggregate metrics
}

// PoolMetrics aggregates one buffer pool's counters into a metrics
// registry. Unlike Stats — which is accumulated per query — these counters
// accumulate over the pool's lifetime and are meant for scraping.
type PoolMetrics struct {
	Hits      *obs.Counter
	Misses    *obs.Counter
	Evictions *obs.Counter
	Writes    *obs.Counter
	// Decodes counts pages actually decoded by GetDecoded: one per
	// residency of a page read that way, plus one per WriteThrough of a
	// resident page that is read again. Not one per miss: the feature
	// stream reads page images through Get and decodes nothing.
	Decodes *obs.Counter
}

// NewPoolMetrics registers the five pool counters under
// stpq_bufferpool_*_total{pool="<name>"}.
func NewPoolMetrics(r *obs.Registry, pool string) *PoolMetrics {
	label := `{pool="` + pool + `"}`
	return &PoolMetrics{
		Hits:      r.Counter("stpq_bufferpool_hits_total" + label),
		Misses:    r.Counter("stpq_bufferpool_misses_total" + label),
		Evictions: r.Counter("stpq_bufferpool_evictions_total" + label),
		Writes:    r.Counter("stpq_bufferpool_writes_total" + label),
		Decodes:   r.Counter("stpq_bufferpool_decodes_total" + label),
	}
}

// SetMetrics attaches (or, with nil, detaches) aggregate metrics.
func (b *BufferPool) SetMetrics(m *PoolMetrics) { b.s.metrics.Store(m) }

// frame is one resident page. An evicted frame and its list element take
// the next page that misses, so the fields are only read under the pool
// lock.
type frame struct {
	id PageID
	// data is the disk's image of the page; see Disk.ReadPage.
	data []byte
	// decoded is the decoded form of data, nil until the first GetDecoded
	// of this residency. Whatever it holds is shared by every reader and
	// must never be written.
	decoded any
}

// Decoder turns a page image into the form its reader works on. The result
// is cached in the page's frame and handed to every later reader, so it
// must not alias data and must be treated as immutable.
type Decoder interface {
	DecodePage(data []byte) (any, error)
}

// NewBufferPool wraps disk with an LRU cache of capacity pages. A capacity
// of 0 disables caching entirely (every read is physical), which is useful
// for measuring worst-case I/O.
func NewBufferPool(disk Disk, capacity int) *BufferPool {
	if capacity < 0 {
		capacity = 0
	}
	return &BufferPool{s: &poolShared{
		disk:     disk,
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[PageID]*list.Element),
	}}
}

// Session returns a handle onto the same pool (same cache, same lifetime
// counters) that additionally charges every read to acct. acct must be
// used from a single goroutine at a time — it is the per-query accumulator
// behind Stats.LogicalReads/PhysicalReads.
func (b *BufferPool) Session(acct *Stats) *BufferPool {
	return &BufferPool{s: b.s, local: acct}
}

// Disk returns the underlying disk.
func (b *BufferPool) Disk() Disk { return b.s.disk }

// Capacity returns the pool capacity in pages.
func (b *BufferPool) Capacity() int { return b.s.capacity }

// Len returns the number of cached pages.
func (b *BufferPool) Len() int {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return b.s.lru.Len()
}

// Get returns the contents of the page: the disk's image, which must not
// be modified and may be kept and read for as long as the caller likes.
// It is counted as every read is: a logical read, and on a miss a physical
// read and possibly an eviction. Only a write to the page changes the
// image (see Disk.ReadPage), and a reader does not hold one across a write.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	data, _, err := b.fetch(id)
	return data, err
}

// GetDecoded returns the decoded form of the page: dec's result on the
// first decoded access of a residency, the same shared value on every
// later one. It counts exactly as Get does — one logical read, and one
// physical read and possibly an eviction on a miss — so the paper's I/O
// metric cannot tell the two apart. The value is shared between all
// readers of the pool and must not be modified.
func (b *BufferPool) GetDecoded(id PageID, dec Decoder) (any, error) {
	data, v, err := b.fetch(id)
	if err != nil || v != nil {
		return v, err
	}
	// Decode outside the pool lock. Two readers that find the slot empty
	// at once both decode; the first to come back fills the slot and both
	// return its value, so a residency never has two decoded forms in use.
	v, err = dec.DecodePage(data)
	if err != nil {
		return nil, err
	}
	if m := b.s.metrics.Load(); m != nil {
		m.Decodes.Inc()
	}
	s := b.s
	s.mu.Lock()
	// The page may have been evicted meanwhile: then there is no slot to
	// fill, and its next residency decodes again.
	if el, ok := s.entries[id]; ok {
		if f := el.Value.(*frame); f.decoded == nil {
			f.decoded = v
		} else {
			v = f.decoded
		}
	}
	s.mu.Unlock()
	return v, nil
}

// fetch is the one counting read path: it charges a logical read, finds or
// loads the page's frame, and returns its image with the decoded slot as
// read under the pool lock. With a capacity of 0 nothing is retained.
func (b *BufferPool) fetch(id PageID) ([]byte, any, error) {
	s := b.s
	s.logical.Add(1)
	if b.local != nil {
		b.local.LogicalReads++
	}
	s.mu.Lock()
	if el, ok := s.entries[id]; ok {
		s.lru.MoveToFront(el)
		f := el.Value.(*frame)
		data, v := f.data, f.decoded
		s.mu.Unlock()
		if m := s.metrics.Load(); m != nil {
			m.Hits.Inc()
		}
		return data, v, nil
	}
	// Miss: the disk read happens under the pool lock, so concurrent
	// misses on the same page coalesce into one physical read — the
	// behaviour of a real pool with page latches, and what keeps read
	// accounting comparable between sequential and concurrent runs.
	s.physical.Add(1)
	if b.local != nil {
		b.local.PhysicalReads++
	}
	data, err := s.disk.ReadPage(id)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("bufferpool: %w", err)
	}
	b.insertLocked(id, data)
	s.mu.Unlock()
	if m := s.metrics.Load(); m != nil {
		m.Misses.Inc()
	}
	return data, nil, nil
}

// WriteThrough writes the page to disk and, if the page is resident, points
// its frame at the disk's image of it again and empties the decoded slot,
// so the next read returns the new bytes and the next GetDecoded decodes
// them. The frame re-reads rather than copying into its image: on a
// CowDisk the first write of a base page lands in a new overlay image,
// while the frame's image is still the base's, which the live tree reads.
func (b *BufferPool) WriteThrough(id PageID, data []byte) error {
	s := b.s
	s.writes.Add(1)
	if b.local != nil {
		b.local.Writes++
	}
	if m := s.metrics.Load(); m != nil {
		m.Writes.Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.disk.WritePage(id, data); err != nil {
		return fmt.Errorf("bufferpool: %w", err)
	}
	if el, ok := s.entries[id]; ok {
		img, err := s.disk.ReadPage(id)
		if err != nil {
			return fmt.Errorf("bufferpool: %w", err)
		}
		f := el.Value.(*frame)
		f.data, f.decoded = img, nil
		s.lru.MoveToFront(el)
	}
	return nil
}

// insertLocked makes data the resident image of page id, evicting the least
// recently used frame — page and decoded form together — if the pool is
// full. The victim's frame and list element take the new page, so a miss on
// a full pool allocates nothing. Callers hold s.mu.
func (b *BufferPool) insertLocked(id PageID, data []byte) {
	s := b.s
	if s.capacity == 0 {
		return
	}
	var el *list.Element
	if s.lru.Len() >= s.capacity {
		el = s.lru.Back()
		delete(s.entries, el.Value.(*frame).id)
		s.lru.MoveToFront(el)
		s.evictions.Add(1)
		if b.local != nil {
			b.local.Evictions++
		}
		if m := s.metrics.Load(); m != nil {
			m.Evictions.Inc()
		}
	} else {
		el = s.lru.PushFront(&frame{})
	}
	*el.Value.(*frame) = frame{id: id, data: data}
	s.entries[id] = el
}

// Contains reports whether the page is currently cached (for tests).
func (b *BufferPool) Contains(id PageID) bool {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	_, ok := b.s.entries[id]
	return ok
}

// Stats returns a snapshot of the accumulated lifetime counters.
func (b *BufferPool) Stats() Stats {
	return Stats{
		LogicalReads:  b.s.logical.Load(),
		PhysicalReads: b.s.physical.Load(),
		Writes:        b.s.writes.Load(),
		Evictions:     b.s.evictions.Load(),
	}
}

// ResetStats zeroes the lifetime counters (the cache contents are kept,
// matching the paper's warm-cache steady-state measurements).
func (b *BufferPool) ResetStats() {
	b.s.logical.Store(0)
	b.s.physical.Store(0)
	b.s.writes.Store(0)
	b.s.evictions.Store(0)
}

// Clear drops all cached pages and their decoded forms (cold-cache
// measurements).
func (b *BufferPool) Clear() {
	s := b.s
	s.mu.Lock()
	s.lru.Init()
	clear(s.entries)
	s.mu.Unlock()
}
