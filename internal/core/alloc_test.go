package core

import (
	"math/rand"
	"runtime"
	"testing"

	"stpq/internal/index"
)

// Steady-state allocation regression tests (the scratch-pooling
// contract): after warm-up, a repeated top-k query must stay under a
// fixed allocation budget. The budgets are about 1.5× the measured counts:
// they catch a lost scratch pool, typed heaps reverting to container/heap
// boxing, or a read path that decodes or copies nodes per visit again,
// without pinning exact counts, which vary with query geometry.
//
// Page reads allocate nothing here: the pools hold every page of this
// world, every loop scans the page image where it lies, and an R-tree
// search keeps its stack and current entry on the goroutine's stack. Nor
// does the combination stream: its pair grids, index vectors
// and heaps are recycled with the scratch, and the Voronoi cells of the NN
// variant live in the engine's store from the warm-up on. What is left is
// per-query by nature — the root aggregate each descent seeds its heap
// with (one keyword set per RootEntry) and the result slices; STDS runs
// one descent per object-tree leaf, STPS one per feature set. Measured on
// this fixed world: ~600 allocs/op for STDS, 14 for STPS (13 for the NN
// variant, 20 while each object probe allocated its search stack). Under the race
// detector sync.Pool drops a share of the scratches put back and a rebuilt
// scratch grows all its buffers anew (31 to 48 allocs/op measured for
// STPS), which STDS's margin covers and STPS's cannot: its test is skipped
// there.
const (
	stdsAllocBudget = 900
	stpsAllocBudget = 24
)

func steadyStateAllocs(t *testing.T, run func()) float64 {
	t.Helper()
	// Warm up the scratch pool and any lazily grown buffers.
	for i := 0; i < 5; i++ {
		run()
	}
	return testing.AllocsPerRun(20, run)
}

func TestAllocsSteadyStateSTDS(t *testing.T) {
	w := buildWorld(t, 901, 400, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(902))
	q := w.randQuery(rng, 2, RangeScore)
	q.K = 10
	avg := steadyStateAllocs(t, func() {
		if _, _, err := w.engine.STDS(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state STDS allocs/op: %.1f", avg)
	if avg > stdsAllocBudget {
		t.Fatalf("steady-state STDS allocates %.1f objects per query, budget %d", avg, stdsAllocBudget)
	}
}

func TestAllocsSteadyStateSTPS(t *testing.T) {
	steadyStateSTPS(t, RangeScore, stpsAllocBudget)
}

// The influence variant's stream generates eagerly under the floor rule
// and its object search keeps its anchors in the scratch, so it is held to
// the range variant's budget (measured: 13); the lazy lattice it replaced
// allocated per index vector, 1,639 times for this query.
func TestAllocsSteadyStateSTPSInfluence(t *testing.T) {
	steadyStateSTPS(t, InfluenceScore, stpsAllocBudget)
}

// The NN variant generates eagerly under the cells rule and reads its
// Voronoi cells from the engine's store, which the warm-up filled: in
// steady state it builds no cell, so it is held to the range variant's
// budget too. What it allocates is the result slices. Measured: 13; 20
// while each object probe of a non-empty region allocated its search
// stack, 85 while every query kept a copy of each cell it touched, 6,155 with the visited-map lattice and a
// polygon allocated per clip.
func TestAllocsSteadyStateSTPSNearestNeighbor(t *testing.T) {
	steadyStateSTPS(t, NearestNeighborScore, stpsAllocBudget)
}

// An influence query sizes nothing by its K, which has no upper bound:
// the object search's K-best leaf heap grows only as leaves are pushed,
// and the accumulator only as objects are offered. With K = 10⁶ on a
// world of 120 objects the accumulator never fills, so every combination
// is searched and the heap holds every leaf each search pushes; the one
// query, scratch built on the way, still allocates less than one buffer of
// K float64s would.
func TestAllocsInfluenceHugeK(t *testing.T) {
	w := buildWorld(t, 905, 120, 60, 2, 16, index.SRT, Options{})
	q := w.randQuery(rand.New(rand.NewSource(906)), 2, InfluenceScore)
	q.K = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := w.engine.STPS(q)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 120 {
		t.Fatalf("%d results, want all 120 objects", len(res))
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("influence STPS at K = %d: %d bytes allocated", q.K, bytes)
	if bytes >= 8*uint64(q.K) {
		t.Fatalf("influence STPS at K = %d allocates %d bytes, a buffer of K float64s' worth", q.K, bytes)
	}
}

func steadyStateSTPS(t *testing.T, variant Variant, budget float64) {
	if raceDetector {
		t.Skip("sync.Pool drops scratches at random under the race detector")
	}
	w := buildWorld(t, 903, 400, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(904))
	q := w.randQuery(rng, 2, variant)
	q.K = 10
	avg := steadyStateAllocs(t, func() {
		if _, _, err := w.engine.STPS(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state STPS %v allocs/op: %.1f", variant, avg)
	if avg > budget {
		t.Fatalf("steady-state STPS %v allocates %.1f objects per query, budget %.0f", variant, avg, budget)
	}
}

// The miss path: a range STPS whose feature trees sit behind 32-page pools
// allocates nothing per physical read of a feature page. The stream scans
// the image where it lies instead of decoding 9.5 KB of node beside it
// (about 6 objects per miss), and releases each view once its slots are
// read, so the next miss reuses the evicted frame, list element and image
// (3 objects per miss while frames were never recycled). What is left does
// not scale with the misses: the query's fixed allocations and the root
// aggregates, some of them decoded again when a root was evicted. The
// budget is 0.5 objects per miss, fixed part included (measured: 14 at 44.5
// misses, 20 while the object probes allocated their search stacks; 20 at
// 49 before the stream was told the k-th score, 169 there without
// recycling). The object tree keeps every page resident, so all the misses
// are the feature stream's.
func TestAllocsColdFeaturePull(t *testing.T) {
	w := buildWorldBehind(t, 907, 2000, 1600, 2, 24, index.SRT, Options{}, 32)
	eng, rng := w.engine, rand.New(rand.NewSource(908))
	// A cycle of queries whose pages together overflow the pools, so that
	// each finds most of what it reads evicted by the others.
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = w.randQuery(rng, 2, RangeScore)
		queries[i].K = 10
	}
	// One session for every run: it does not pass through the sync.Pool
	// the race detector thins out.
	sess := eng.session()
	defer eng.releaseSession(sess)
	next := 0
	run := func() {
		if _, _, err := sess.STPS(queries[next%len(queries)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	physical := func() (n int64) {
		for _, g := range eng.features {
			n += g.Stats().PhysicalReads
		}
		return n
	}
	for i := 0; i < 2*len(queries); i++ {
		run()
	}
	const runs = 39 // with AllocsPerRun's own warm-up call, five whole cycles
	before := physical()
	allocs := testing.AllocsPerRun(runs, run)
	misses := float64(physical()-before) / (runs + 1)
	t.Logf("cold range STPS: %.1f allocs, %.1f feature-page misses per query", allocs, misses)
	if misses < 30 {
		t.Fatalf("%.1f physical reads per query: the pools do not miss, the test shows nothing", misses)
	}
	if allocs > misses/2 {
		t.Fatalf("cold range STPS allocates %.1f objects for %.1f feature-page misses, budget 0.5 per miss", allocs, misses)
	}
}
