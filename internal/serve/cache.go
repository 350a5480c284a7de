package serve

// cache.go implements the service's LRU result cache. Entries are keyed
// by a canonical query fingerprint and stamped with the index build
// generation they were computed against; a lookup whose generation does
// not match evicts the stale entry and misses, which is how Rebuild
// invalidates the cache without a synchronous purge.

import (
	"container/list"
	"sync"

	"stpq"
	"stpq/internal/obs"
)

// Fingerprint returns the canonical cache key of a query (see
// stpq.Fingerprint; the service reads it off the prepared query).
func Fingerprint(q stpq.Query) string { return stpq.Fingerprint(q) }

type cacheEntry struct {
	key  string
	gen  uint64
	resp Response
}

// resultCache is a mutex-protected LRU map from fingerprint to Response.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used
	entries map[string]*list.Element
	// evictions counts entries dropped for capacity or staleness; nil
	// disables counting.
	evictions *obs.Counter
}

func newResultCache(capacity int, evictions *obs.Counter) *resultCache {
	return &resultCache{
		cap:       capacity,
		lru:       list.New(),
		entries:   make(map[string]*list.Element, capacity),
		evictions: evictions,
	}
}

// evicted records one dropped entry.
func (c *resultCache) evicted() {
	if c.evictions != nil {
		c.evictions.Inc()
	}
}

// get returns the cached response for key if present and computed at the
// given generation. A generation mismatch evicts the stale entry.
func (c *resultCache) get(key string, gen uint64) (Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return Response{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.lru.Remove(el)
		delete(c.entries, key)
		c.evicted()
		return Response{}, false
	}
	c.lru.MoveToFront(el)
	return cachedCopy(e.resp), true
}

// put stores a response, evicting the least recently used entry when full.
func (c *resultCache) put(key string, gen uint64, resp Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).gen = gen
		el.Value.(*cacheEntry).resp = resp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, gen: gen, resp: resp})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.evicted()
	}
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cachedCopy returns the response with Cached set and the result slice
// copied, so callers may mutate what they get back.
func cachedCopy(r Response) Response {
	out := r
	out.Cached = true
	out.Results = make([]stpq.Result, len(r.Results))
	copy(out.Results, r.Results)
	return out
}
