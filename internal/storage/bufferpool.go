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
// pages synchronously. The read path (Get) is safe for concurrent use and
// the lifetime counters are atomics, so any number of query goroutines may
// share one pool. Writes (WriteThrough) must not race reads — they only
// happen while an index is being built or mutated, which the layers above
// already serialize against queries.
//
// LRU state sits behind one mutex with one global LRU order, so serial I/O
// counts are reproducible run to run and match the paper's cost model.
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

	mu      sync.Mutex // guards lru and entries
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

type frame struct {
	id   PageID
	data []byte
	// decoded is the decoded form of data, nil until the first GetDecoded
	// of this residency; guarded by the pool mutex. Whatever it holds is
	// shared by every reader and must never be written.
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

// Get returns the contents of the page: the frame's image, which must not
// be modified and may be kept and read for as long as the caller likes
// (rtree.PageView does, outside the pool lock). The image is immutable
// until a WriteThrough of that page, which never happens on a pool that
// serves queries — writes go to a tree under construction or to a merge
// clone, which owns its pool. And frames are never recycled: an evicted
// frame is dropped, not reused for the next miss, so a reader keeps the
// bytes it fetched until it lets go. Reusing frames would save a miss its
// allocation and would need readers to pin what they hold.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	f, _, err := b.fetch(id)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// GetDecoded returns the decoded form of the page: dec's result on the
// first decoded access of a residency, the same shared value on every
// later one. It counts exactly as Get does — one logical read, and one
// physical read and possibly an eviction on a miss — so the paper's I/O
// metric cannot tell the two apart. The value is shared between all
// readers of the pool and must not be modified.
func (b *BufferPool) GetDecoded(id PageID, dec Decoder) (any, error) {
	f, v, err := b.fetch(id)
	if err != nil || v != nil {
		return v, err
	}
	// Decode outside the pool lock. Two readers that find the slot empty
	// at once both decode; the first to come back fills the slot and both
	// return its value, so a residency never has two decoded forms in use.
	if v, err = dec.DecodePage(f.data); err != nil {
		return nil, err
	}
	if m := b.s.metrics.Load(); m != nil {
		m.Decodes.Inc()
	}
	b.s.mu.Lock()
	if f.decoded == nil {
		f.decoded = v
	} else {
		v = f.decoded
	}
	b.s.mu.Unlock()
	return v, nil
}

// fetch is the one counting read path: it charges a logical read, finds or
// loads the page's frame, and returns it with the decoded slot as read
// under the pool lock. With a capacity of 0 the frame is not retained.
func (b *BufferPool) fetch(id PageID) (*frame, any, error) {
	s := b.s
	s.logical.Add(1)
	if b.local != nil {
		b.local.LogicalReads++
	}
	s.mu.Lock()
	if el, ok := s.entries[id]; ok {
		s.lru.MoveToFront(el)
		f := el.Value.(*frame)
		v := f.decoded
		s.mu.Unlock()
		if m := s.metrics.Load(); m != nil {
			m.Hits.Inc()
		}
		return f, v, nil
	}
	// Miss: the disk read happens under the pool lock, so concurrent
	// misses on the same page coalesce into one physical read — the
	// behaviour of a real pool with page latches, and what keeps read
	// accounting comparable between sequential and concurrent runs.
	s.physical.Add(1)
	if b.local != nil {
		b.local.PhysicalReads++
	}
	f := &frame{id: id, data: make([]byte, s.disk.PageSize())}
	if err := s.disk.ReadPage(id, f.data); err != nil {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("bufferpool: %w", err)
	}
	b.insertLocked(f)
	s.mu.Unlock()
	if m := s.metrics.Load(); m != nil {
		m.Misses.Inc()
	}
	return f, nil, nil
}

// WriteThrough writes the page to disk, refreshes the cached copy and
// empties the frame's decoded slot, so the next GetDecoded decodes the new
// bytes.
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
		f := el.Value.(*frame)
		copy(f.data, data)
		for i := len(data); i < len(f.data); i++ {
			f.data[i] = 0
		}
		f.decoded = nil
		s.lru.MoveToFront(el)
	}
	return nil
}

// insertLocked caches the frame, evicting the least recently used frame —
// page and decoded form together — if the pool is full. Callers hold s.mu.
func (b *BufferPool) insertLocked(f *frame) {
	s := b.s
	if s.capacity == 0 {
		return
	}
	if s.lru.Len() >= s.capacity {
		back := s.lru.Back()
		if back != nil {
			s.lru.Remove(back)
			delete(s.entries, back.Value.(*frame).id)
			s.evictions.Add(1)
			if b.local != nil {
				b.local.Evictions++
			}
			if m := s.metrics.Load(); m != nil {
				m.Evictions.Inc()
			}
		}
	}
	s.entries[f.id] = s.lru.PushFront(f)
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
	b.s.mu.Lock()
	b.s.lru.Init()
	b.s.entries = make(map[PageID]*list.Element)
	b.s.mu.Unlock()
}
