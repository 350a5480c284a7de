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
// pages synchronously. The read paths (Pin, Get, GetDecoded) are safe for
// concurrent use and the lifetime counters are atomics, so any number of
// query goroutines may share one pool. Writes (WriteThrough) must not race
// reads — they only happen while an index is being built or mutated, which
// the layers above already serialize against queries.
//
// LRU state sits behind one mutex with one global LRU order, so serial I/O
// counts are reproducible run to run and match the paper's cost model.
//
// A reader holds a page by pinning its frame (Pin, Unpin). Eviction follows
// the LRU order whether or not the victim is pinned; what a pin decides is
// what becomes of the victim's memory. An evicted frame no one holds lends
// its frame and LRU list element to the incoming page and its image to a
// free list that the next miss reads into, so a miss in steady state
// allocates nothing. A held one keeps its image until its last Unpin, which
// then hands the image to the free list.
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

	mu      sync.Mutex // guards lru, entries, free and the frames' decoded slots
	lru     *list.List // front = most recently used; values are *frame
	entries map[PageID]*list.Element
	// free holds the images of evicted frames that no one holds any more,
	// at most capacity of them; a miss reads into one before it allocates.
	free [][]byte

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
	// stream reads page images through Pin and decodes nothing.
	Decodes *obs.Counter
	// Recycled counts the misses that read into the image of an evicted
	// frame instead of a new one. Once a pool is full and its readers
	// release what they pin, nearly every miss recycles; a ratio to Misses
	// that falls is a pin someone takes and never releases.
	Recycled *obs.Counter
}

// NewPoolMetrics registers the six pool counters under
// stpq_bufferpool_*_total{pool="<name>"}.
func NewPoolMetrics(r *obs.Registry, pool string) *PoolMetrics {
	label := `{pool="` + pool + `"}`
	return &PoolMetrics{
		Hits:      r.Counter("stpq_bufferpool_hits_total" + label),
		Misses:    r.Counter("stpq_bufferpool_misses_total" + label),
		Evictions: r.Counter("stpq_bufferpool_evictions_total" + label),
		Writes:    r.Counter("stpq_bufferpool_writes_total" + label),
		Decodes:   r.Counter("stpq_bufferpool_decodes_total" + label),
		Recycled:  r.Counter("stpq_bufferpool_recycled_total" + label),
	}
}

// SetMetrics attaches (or, with nil, detaches) aggregate metrics.
func (b *BufferPool) SetMetrics(m *PoolMetrics) { b.s.metrics.Store(m) }

// evictedBit is set in a frame's pins once the frame has left the LRU; the
// bits below it count the holds on the frame. Only resident frames are
// pinned (under the pool lock), so once the bit is set the count can only
// fall, and the one atomic operation that leaves pins at exactly
// evictedBit — the eviction of an unheld frame, or the last Unpin of an
// evicted one — decides who recycles the frame's memory.
const evictedBit = 1 << 30

type frame struct {
	s    *poolShared
	id   PageID
	data []byte
	// decoded is the decoded form of data, nil until the first GetDecoded
	// of this residency; guarded by the pool mutex. Whatever it holds is
	// shared by every reader and must never be written.
	decoded any
	pins    atomic.Int32 // holds, plus evictedBit (see there)
}

// unpin drops one hold on the frame. The last hold on an evicted frame
// hands its image to the free list.
func (f *frame) unpin() {
	if f.pins.Add(-1) == evictedBit {
		f.s.mu.Lock()
		f.s.putLocked(f.data)
		f.s.mu.Unlock()
	}
}

// Pinned is a page image held in its buffer-pool frame. Until Unpin the
// frame is not recycled, so Data stays the page's image however often the
// page is evicted meanwhile; after Unpin the image may be handed to another
// page, and nothing may keep referring into it. The value is one word, and
// its copies share the one pin.
type Pinned struct{ f *frame }

// Data returns the page image. It must not be modified.
func (p Pinned) Data() []byte { return p.f.data }

// Unpin releases the pin. It must be called exactly once per Pin.
func (p Pinned) Unpin() { p.f.unpin() }

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

// Pin returns the page's image held in its frame, counted as every read
// is: a logical read, and on a miss a physical read and possibly an
// eviction. The caller reads Data outside the pool lock for as long as it
// holds the pin, and Unpins when done. No image is written while queries
// read it: WriteThrough happens only on a tree under construction or on a
// merge clone, which owns its pools.
func (b *BufferPool) Pin(id PageID) (Pinned, error) {
	f, _, err := b.fetch(id, false)
	if err != nil {
		return Pinned{}, err
	}
	return Pinned{f}, nil
}

// Get returns the contents of the page: the frame's image, which must not
// be modified and may be kept and read for as long as the caller likes.
// Get is a Pin that is never released, so the frame it returns is never
// recycled — not even once it is evicted — and the image changes only by a
// WriteThrough of its page. The price is that an evicted image becomes
// garbage for the collector instead of the buffer of a later miss; a
// reader that can say when it is done uses Pin.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	p, err := b.Pin(id)
	if err != nil {
		return nil, err
	}
	return p.Data(), nil
}

// GetDecoded returns the decoded form of the page: dec's result on the
// first decoded access of a residency, the same shared value on every
// later one. It counts exactly as Get does — one logical read, and one
// physical read and possibly an eviction on a miss — so the paper's I/O
// metric cannot tell the two apart. The value is shared between all
// readers of the pool and must not be modified. It aliases nothing of the
// image, so the frame is pinned only across the decode.
func (b *BufferPool) GetDecoded(id PageID, dec Decoder) (any, error) {
	f, v, err := b.fetch(id, true)
	if err != nil || v != nil {
		return v, err
	}
	// Decode outside the pool lock. Two readers that find the slot empty
	// at once both decode; the first to come back fills the slot and both
	// return its value, so a residency never has two decoded forms in use.
	v, err = dec.DecodePage(f.data)
	if err != nil {
		f.unpin()
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
	f.unpin()
	return v, nil
}

// fetch is the one counting read path: it charges a logical read, finds or
// loads the page's frame and returns it pinned, with the decoded slot as
// read under the pool lock. The pin is taken under that lock too, so only
// a resident frame gains one. A decoded read whose slot is filled pins
// nothing: its value needs no image. With a capacity of 0 the frame is not
// retained; it is evicted from the start, so its Unpin frees it.
func (b *BufferPool) fetch(id PageID, decoded bool) (*frame, any, error) {
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
		if !decoded || v == nil {
			f.pins.Add(1)
		}
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
	buf, recycled := s.takeLocked()
	if err := s.disk.ReadPage(id, buf); err != nil {
		s.putLocked(buf)
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("bufferpool: %w", err)
	}
	f := b.insertLocked(id, buf)
	s.mu.Unlock()
	if m := s.metrics.Load(); m != nil {
		m.Misses.Inc()
		if recycled {
			m.Recycled.Inc()
		}
	}
	return f, nil, nil
}

// takeLocked returns a buffer for a miss to read into: a free image when
// there is one (recycled), else a new one. Callers hold s.mu.
func (s *poolShared) takeLocked() (buf []byte, recycled bool) {
	n := len(s.free)
	if n == 0 {
		return make([]byte, s.disk.PageSize()), false
	}
	buf = s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return buf, true
}

// putLocked keeps an image no frame uses for a later miss, unless capacity
// images are kept already. Callers hold s.mu.
func (s *poolShared) putLocked(buf []byte) {
	if len(s.free) < s.capacity {
		s.free = append(s.free, buf)
	}
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

// insertLocked caches buf as the image of page id and returns its frame
// pinned, evicting the least recently used frame — page and decoded form
// together — if the pool is full. A victim no one holds lends the new page
// its frame and list element and gives its image to the free list; a held
// one leaves both behind and keeps its image until its last Unpin. Callers
// hold s.mu.
func (b *BufferPool) insertLocked(id PageID, buf []byte) *frame {
	s := b.s
	if s.capacity == 0 {
		f := &frame{s: s, id: id, data: buf}
		f.pins.Store(evictedBit + 1)
		return f
	}
	var el *list.Element
	if s.lru.Len() >= s.capacity {
		el = s.lru.Back()
		victim := el.Value.(*frame)
		delete(s.entries, victim.id)
		s.evictions.Add(1)
		if b.local != nil {
			b.local.Evictions++
		}
		if m := s.metrics.Load(); m != nil {
			m.Evictions.Inc()
		}
		if victim.pins.Add(evictedBit) == evictedBit {
			s.putLocked(victim.data)
			s.lru.MoveToFront(el)
		} else {
			s.lru.Remove(el)
			el = nil
		}
	}
	if el == nil {
		el = s.lru.PushFront(&frame{s: s})
	}
	f := el.Value.(*frame)
	f.id, f.data, f.decoded = id, buf, nil
	f.pins.Store(1) // no one else can reach f: it is new, or was unheld
	s.entries[id] = el
	return f
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
// measurements). Every frame is evicted as the LRU would evict it: the
// images no one holds go to the free list, the held ones at their last
// Unpin.
func (b *BufferPool) Clear() {
	s := b.s
	s.mu.Lock()
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if f := el.Value.(*frame); f.pins.Add(evictedBit) == evictedBit {
			s.putLocked(f.data)
		}
	}
	s.lru.Init()
	clear(s.entries)
	s.mu.Unlock()
}
