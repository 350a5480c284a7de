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
// pages synchronously. The read path (Get) is safe for concurrent use and the lifetime counters are atomics, so any number of
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
// Readers scan the image in place (rtree.PageView); the pool keeps nothing
// else per page.
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
}

// NewPoolMetrics registers the four pool counters under
// stpq_bufferpool_*_total{pool="<name>"}.
func NewPoolMetrics(r *obs.Registry, pool string) *PoolMetrics {
	label := `{pool="` + pool + `"}`
	return &PoolMetrics{
		Hits:      r.Counter("stpq_bufferpool_hits_total" + label),
		Misses:    r.Counter("stpq_bufferpool_misses_total" + label),
		Evictions: r.Counter("stpq_bufferpool_evictions_total" + label),
		Writes:    r.Counter("stpq_bufferpool_writes_total" + label),
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
// It is the one counting read path: a logical read, and on a miss a
// physical read and possibly an eviction. Only a write to the page changes
// the image (see Disk.ReadPage), and a reader does not hold one across a
// write. With a capacity of 0 nothing is retained.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	s := b.s
	s.logical.Add(1)
	if b.local != nil {
		b.local.LogicalReads++
	}
	s.mu.Lock()
	if el, ok := s.entries[id]; ok {
		s.lru.MoveToFront(el)
		data := el.Value.(*frame).data
		s.mu.Unlock()
		if m := s.metrics.Load(); m != nil {
			m.Hits.Inc()
		}
		return data, nil
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
		return nil, fmt.Errorf("bufferpool: %w", err)
	}
	b.insertLocked(id, data)
	s.mu.Unlock()
	if m := s.metrics.Load(); m != nil {
		m.Misses.Inc()
	}
	return data, nil
}

// WriteThrough writes the page to disk and, if the page is resident, points
// its frame at the disk's image of it again, so the next read returns the
// new bytes. The frame re-reads rather than copying into its image: on a
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
		el.Value.(*frame).data = img
		s.lru.MoveToFront(el)
	}
	return nil
}

// insertLocked makes data the resident image of page id, evicting the least
// recently used frame if the pool is full. The victim's frame and list
// element take the new page, so a miss on a full pool allocates nothing.
// Callers hold s.mu.
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

// Clear drops all cached pages (cold-cache measurements).
func (b *BufferPool) Clear() {
	s := b.s
	s.mu.Lock()
	s.lru.Init()
	clear(s.entries)
	s.mu.Unlock()
}
