package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"stpq"
)

// testDB builds a small clustered dataset with two feature sets over the
// synthetic "kw<id>" vocabulary (the same naming cmd/stpqgen uses).
func testDB(t testing.TB, cfg stpq.Config, objects, features int) *stpq.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	db := stpq.New(cfg)
	objs := make([]stpq.Object, objects)
	for i := range objs {
		objs[i] = stpq.Object{ID: int64(i + 1), X: rng.Float64(), Y: rng.Float64()}
	}
	db.AddObjects(objs)
	for s, name := range []string{"restaurants", "cafes"} {
		feats := make([]stpq.Feature, features)
		for i := range feats {
			kws := make([]string, 1+rng.Intn(3))
			for j := range kws {
				kws[j] = fmt.Sprintf("kw%d", rng.Intn(24))
			}
			feats[i] = stpq.Feature{
				ID:       int64(s*features + i + 1),
				X:        rng.Float64(),
				Y:        rng.Float64(),
				Score:    rng.Float64(),
				Keywords: kws,
			}
		}
		db.AddFeatureSet(name, feats)
	}
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

func testQuery(k int) stpq.Query {
	return stpq.Query{
		K:      k,
		Radius: 0.1,
		Lambda: 0.5,
		Keywords: map[string][]string{
			"restaurants": {"kw1", "kw2"},
			"cafes":       {"kw3"},
		},
	}
}

func TestServeMatchesDirectQuery(t *testing.T) {
	db := testDB(t, stpq.Config{}, 300, 300)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	q := testQuery(5)
	want, _, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("first query must not be a cache hit")
	}
	if resp.Generation != 1 {
		t.Errorf("generation = %d, want 1", resp.Generation)
	}
	if !reflect.DeepEqual(resp.Results, want) {
		t.Errorf("served results differ from direct query:\n got %v\nwant %v", resp.Results, want)
	}
}

func TestServeRejectsInvalidQuery(t *testing.T) {
	db := testDB(t, stpq.Config{}, 50, 50)
	svc, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cases := []stpq.Query{
		{K: 0, Radius: 0.1},
		{K: 5, Radius: -1},
		{K: 5, Radius: 0.1, Lambda: 2},
		{K: 5, Radius: 0.1, Keywords: map[string][]string{"nope": {"kw1"}}},
		{K: 5, Radius: 0.1, Algorithm: stpq.STDS + 1},
	}
	for i, q := range cases {
		if _, err := svc.Do(context.Background(), q); !errors.Is(err, stpq.ErrInvalidQuery) {
			t.Errorf("case %d: err = %v, want ErrInvalidQuery", i, err)
		}
	}
}

func TestServeCacheHit(t *testing.T) {
	db := testDB(t, stpq.Config{}, 300, 300)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	q := testQuery(5)
	first, err := svc.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Page-read counters before the cached query.
	before := db.Metrics().Counters

	// Same query, different keyword order and case: same fingerprint.
	q2 := testQuery(5)
	q2.Keywords = map[string][]string{
		"restaurants": {"KW2", "kw1", "kw1"},
		"cafes":       {" kw3 "},
	}
	second, err := svc.Do(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical query must hit the cache")
	}
	if !reflect.DeepEqual(second.Results, first.Results) {
		t.Errorf("cached results differ:\n got %v\nwant %v", second.Results, first.Results)
	}
	// A cache hit must not touch the buffer pools at all.
	after := db.Metrics().Counters
	for name, v := range after {
		if before[name] != v {
			t.Errorf("cache hit moved DB counter %s: %d -> %d", name, before[name], v)
		}
	}
	if got := svc.metrics.Counter("stpq_serve_cache_hits_total").Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := svc.metrics.Counter("stpq_serve_cache_misses_total").Value(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
}

func TestServeCacheInvalidatedByRebuild(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	q := testQuery(3)
	if _, err := svc.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if resp, _ := svc.Do(context.Background(), q); !resp.Cached {
		t.Fatal("warm-up: expected cache hit")
	}
	if err := svc.Rebuild(); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("query after Rebuild must not be served from the stale cache")
	}
	if resp.Generation != 2 {
		t.Errorf("generation after Rebuild = %d, want 2", resp.Generation)
	}
	// And the fresh result is cached again under the new generation.
	if resp2, _ := svc.Do(context.Background(), q); !resp2.Cached {
		t.Error("expected cache hit at the new generation")
	}
}

func TestServeDeadline(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := New(db, Config{Workers: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	if _, err := svc.Do(ctx, testQuery(3)); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	if got := svc.metrics.Counter("stpq_serve_rejected_total{reason=\"deadline\"}").Value(); got == 0 {
		t.Error("deadline rejection not counted")
	}
}

// A client that cancels is not a deadline: Do returns context.Canceled and
// the deadline counter stays at 0, whichever arm of the wait answers.
func TestServeCancelNotCountedAsDeadline(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := New(db, Config{Workers: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := svc.Do(ctx, testQuery(3)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	if got := svc.metrics.Counter("stpq_serve_rejected_total{reason=\"deadline\"}").Value(); got != 0 {
		t.Errorf("deadline counter = %d after cancelled requests, want 0", got)
	}
}

func TestServeConfigTimeout(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := New(db, Config{Workers: 1, Timeout: time.Nanosecond, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Do(context.Background(), testQuery(3)); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline from Config.Timeout", err)
	}
}

func TestServeOverload(t *testing.T) {
	// No workers yet: the queue (depth 2) fills deterministically, and
	// the next admission attempt is rejected with ErrOverloaded.
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := newUnstarted(db, Config{Workers: 2, QueueDepth: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	queuedErrs := make([]error, 2)
	for i := range queuedErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, queuedErrs[i] = svc.Do(context.Background(), testQuery(1+i))
		}(i)
	}
	// Wait until both tasks sit in the queue.
	for len(svc.tasks) < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Do(context.Background(), testQuery(9)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("err = %v, want ErrOverloaded", err)
	}
	if got := svc.metrics.Counter("stpq_serve_rejected_total{reason=\"overload\"}").Value(); got != 1 {
		t.Errorf("overload counter = %d, want 1", got)
	}
	// Start the workers: the queued queries drain and succeed.
	svc.start()
	wg.Wait()
	for i, err := range queuedErrs {
		if err != nil {
			t.Errorf("queued query %d: %v", i, err)
		}
	}
	svc.Close()
}

func TestServeCloseDrainsAndRejects(t *testing.T) {
	db := testDB(t, stpq.Config{}, 300, 300)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := testQuery(1 + i%5)
			_, errs[i] = svc.Do(context.Background(), q)
		}(i)
	}
	wg.Wait()
	svc.Close()
	svc.Close() // idempotent

	for i, err := range errs {
		if err != nil {
			t.Errorf("pre-close query %d: %v", i, err)
		}
	}
	if _, err := svc.Do(context.Background(), testQuery(3)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close err = %v, want ErrClosed", err)
	}
	if !svc.Closed() {
		t.Error("Closed() = false after Close")
	}
}

func TestServeConcurrentMatchesSequential(t *testing.T) {
	db := testDB(t, stpq.Config{}, 400, 400)
	svc, err := New(db, Config{Workers: 4, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	queries := make([]stpq.Query, 8)
	want := make([][]stpq.Result, len(queries))
	for i := range queries {
		q := testQuery(1 + i)
		if i%2 == 1 {
			q.Algorithm = stpq.STDS
		}
		queries[i] = q
		want[i], _, err = db.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 5
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				resp, err := svc.Do(context.Background(), queries[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(resp.Results, want[i]) {
					t.Errorf("goroutine %d query %d: results differ", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNewRequiresBuiltDB(t *testing.T) {
	db := stpq.New(stpq.Config{})
	if _, err := New(db, Config{}); !errors.Is(err, stpq.ErrNotBuilt) {
		t.Errorf("err = %v, want ErrNotBuilt", err)
	}
}

func TestCacheHitFraction(t *testing.T) {
	db := testDB(t, stpq.Config{}, 300, 300)
	svc, err := New(db, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// No lookups yet: must be 0, not NaN.
	if got := svc.CacheHitFraction(); got != 0 {
		t.Fatalf("cold CacheHitFraction = %v, want 0", got)
	}
	q := testQuery(5)
	if _, err := svc.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// One miss, zero hits.
	if got := svc.CacheHitFraction(); got != 0 {
		t.Fatalf("after one miss CacheHitFraction = %v, want 0", got)
	}
	if _, err := svc.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// One miss, one hit.
	if got := svc.CacheHitFraction(); got != 0.5 {
		t.Fatalf("after one hit CacheHitFraction = %v, want 0.5", got)
	}
}

// TestConfigDefaults pins what a zero Config resolves to. stpqd sets only
// CacheEntries, so these are the daemon's workers, queue and deadline.
func TestConfigDefaults(t *testing.T) {
	svc, err := newUnstarted(testDB(t, stpq.Config{}, 20, 20), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.cfg.Workers != runtime.GOMAXPROCS(0) || cap(svc.tasks) != 64 || svc.cfg.Timeout != 0 {
		t.Errorf("workers %d, queue %d, timeout %v; want GOMAXPROCS (%d), 64, none",
			svc.cfg.Workers, cap(svc.tasks), svc.cfg.Timeout, runtime.GOMAXPROCS(0))
	}
	if svc.cache == nil || svc.cache.cap != 256 {
		t.Errorf("result cache %+v, want 256 entries", svc.cache)
	}
}
