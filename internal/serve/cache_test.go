package serve

import (
	"testing"

	"stpq"
	"stpq/internal/obs"
)

func TestFingerprintCanonicalization(t *testing.T) {
	base := stpq.Query{
		K: 5, Radius: 0.1, Lambda: 0.5,
		Keywords: map[string][]string{"a": {"x", "y"}, "b": {"z"}},
	}
	same := []stpq.Query{
		{K: 5, Radius: 0.1, Lambda: 0.5,
			Keywords: map[string][]string{"b": {"z"}, "a": {"y", "x"}}},
		{K: 5, Radius: 0.1, Lambda: 0.5,
			Keywords: map[string][]string{"a": {"X", " y ", "x"}, "b": {"z"}, "c": {}}},
	}
	fp := Fingerprint(base)
	for i, q := range same {
		if got := Fingerprint(q); got != fp {
			t.Errorf("query %d: fingerprint %q != base %q", i, got, fp)
		}
	}
	diff := []stpq.Query{
		{K: 6, Radius: 0.1, Lambda: 0.5, Keywords: base.Keywords},
		{K: 5, Radius: 0.2, Lambda: 0.5, Keywords: base.Keywords},
		{K: 5, Radius: 0.1, Lambda: 0.6, Keywords: base.Keywords},
		{K: 5, Radius: 0.1, Lambda: 0.5, Variant: stpq.Influence, Keywords: base.Keywords},
		{K: 5, Radius: 0.1, Lambda: 0.5, Algorithm: stpq.STDS, Keywords: base.Keywords},
		{K: 5, Radius: 0.1, Lambda: 0.5, Similarity: stpq.DiceSim, Keywords: base.Keywords},
		{K: 5, Radius: 0.1, Lambda: 0.5,
			Keywords: map[string][]string{"a": {"x"}, "b": {"z"}}},
	}
	for i, q := range diff {
		if got := Fingerprint(q); got == fp {
			t.Errorf("query %d: fingerprint collides with base (%q)", i, got)
		}
	}
}

func TestFingerprintSetNameEscaping(t *testing.T) {
	// Pathological set names must not collide via separator injection.
	a := stpq.Query{K: 1, Radius: 0.1,
		Keywords: map[string][]string{`a"=`: {"x"}}}
	b := stpq.Query{K: 1, Radius: 0.1,
		Keywords: map[string][]string{"a": {`"=x`}}}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("escaped set names collide")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	evictions := obs.NewRegistry().Counter("stpq_serve_cache_evictions_total")
	c := newResultCache(2, evictions)
	r := func(id int64) Response {
		return Response{Results: []stpq.Result{{ID: id}}, Generation: 1}
	}
	c.put("a", 1, r(1))
	c.put("b", 1, r(2))
	if _, ok := c.get("a", 1); !ok { // touch a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", 1, r(3)) // evicts b
	if _, ok := c.get("b", 1); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a", 1); !ok {
		t.Error("a should survive")
	}
	if _, ok := c.get("c", 1); !ok {
		t.Error("c should be present")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if got := evictions.Value(); got != 1 {
		t.Errorf("evictions counter = %d, want 1 (capacity eviction of b)", got)
	}
}

func TestResultCacheGenerationMismatch(t *testing.T) {
	evictions := obs.NewRegistry().Counter("stpq_serve_cache_evictions_total")
	c := newResultCache(4, evictions)
	c.put("a", 1, Response{Generation: 1})
	if _, ok := c.get("a", 2); ok {
		t.Error("stale generation must miss")
	}
	if c.len() != 0 {
		t.Error("stale entry must be evicted on lookup")
	}
	if got := evictions.Value(); got != 1 {
		t.Errorf("evictions counter = %d, want 1 (staleness eviction)", got)
	}
}

// A nil evictions counter must disable counting without panicking.
func TestResultCacheNilEvictionsCounter(t *testing.T) {
	c := newResultCache(1, nil)
	c.put("a", 1, Response{Generation: 1})
	c.put("b", 1, Response{Generation: 1}) // capacity eviction
	if _, ok := c.get("a", 2); ok {        // staleness eviction path
		t.Error("unexpected hit")
	}
}

func TestCachedCopyIsIndependent(t *testing.T) {
	c := newResultCache(4, nil)
	c.put("a", 1, Response{Results: []stpq.Result{{ID: 7}}})
	got, ok := c.get("a", 1)
	if !ok || !got.Cached {
		t.Fatal("expected cached hit")
	}
	got.Results[0].ID = 99
	again, _ := c.get("a", 1)
	if again.Results[0].ID != 7 {
		t.Error("mutating a cached response leaked into the cache")
	}
}
