package stpq

// compaction_test.go verifies the generational merge pipeline: partial
// merges must stay byte-identical to a from-scratch rebuild across index
// kinds, variants and algorithms; the background compactor must converge
// to the same answers while queries run; a crash at any point of the
// pipeline — after a run seal, after a partial merge, mid-checkpoint —
// must recover oracle-exact from the WAL; and the degradation
// heuristic must actually fall back to full rebuilds under drift.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushStep applies one random batch to db and the shadow, then merges.
func flushStep(t *testing.T, db *DB, shadow *ingestShadow, rng *rand.Rand, n int) {
	t.Helper()
	muts := randomMutations(rng, shadow, n)
	if err := db.Apply(muts); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, m := range muts {
		shadow.apply(m)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// buildIncrementalDB is buildIngestDB with the tree-quality heuristic off:
// every structurally possible merge takes the incremental path.
func buildIncrementalDB(t *testing.T, cfg Config, objs []Object, sets map[string][]Feature) *DB {
	t.Helper()
	db := buildIngestDB(t, cfg, objs, sets)
	db.forceIncremental = true
	return db
}

// TestPartialMergeOracleEquivalence is the acceptance gate of the
// incremental path: with the incremental merge forced, every Flush batch-applies
// the net delta into copy-on-write clones of the live trees, and the
// answers after each merge are byte-identical to a from-scratch rebuild —
// for both index kinds, all three variants and both algorithms (via
// assertSameTopK), across insert/delete/upsert mixes.
func TestPartialMergeOracleEquivalence(t *testing.T) {
	for _, kind := range []IndexKind{SRT, IR2} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			objs, sets := ingestSeedData(rng, 250, 120)
			cfg := Config{IndexKind: kind, PageSize: 1024, WALDir: t.TempDir(),
				AutoFlushOps: -1}
			db := buildIncrementalDB(t, cfg, objs, sets)
			shadow := newIngestShadow(objs, sets)
			for round := 0; round < 6; round++ {
				flushStep(t, db, shadow, rng, 15)
				if db.PendingOps() != 0 {
					t.Fatalf("round %d: %d pending ops after Flush", round, db.PendingOps())
				}
				assertSameTopK(t, fmt.Sprintf("round %d", round), db, shadow.oracle(t, cfg), rng)
			}
			m := db.Metrics().Counters
			if m["stpq_ingest_partial_merges_total"] != 6 {
				t.Fatalf("partial merges = %d, want 6 (full rebuilds = %d)",
					m["stpq_ingest_partial_merges_total"], m["stpq_ingest_full_rebuilds_total"])
			}
			if m["stpq_ingest_full_rebuilds_total"] != 0 {
				t.Fatalf("full rebuilds = %d, want 0 with incremental merges forced",
					m["stpq_ingest_full_rebuilds_total"])
			}
		})
	}
}

// TestPartialMergeSurvivesCheckpointCycle: a checkpoint after partial
// merges must round-trip through Open — the incrementally-grown trees are
// saved, reloaded, and keep both answering and merging exactly.
func TestPartialMergeSurvivesCheckpointCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	objs, sets := ingestSeedData(rng, 200, 100)
	saveDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(),
		AutoFlushOps: -1}
	db1 := buildIncrementalDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	for round := 0; round < 3; round++ {
		flushStep(t, db1, shadow, rng, 12)
	}
	if err := db1.Checkpoint(saveDir); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db2, err := Open(saveDir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	assertSameTopK(t, "reopened after partial merges", db2, shadow.oracle(t, cfg), rng)
	// The reopened DB merges incrementally too (the location maps are
	// derived from the index leaves at its first mutation).
	flushStep(t, db2, shadow, rng, 10)
	assertSameTopK(t, "merged after reopen", db2, shadow.oracle(t, cfg), rng)
	if m := db2.Metrics().Counters; m["stpq_ingest_partial_merges_total"] == 0 {
		t.Fatal("reopened DB fell back to full rebuild; want a partial merge")
	}
}

// TestBackgroundCompactionOracleEquivalence streams writes through the
// sealed-run pipeline: a tiny auto-flush threshold seals runs constantly,
// the watermark-1 compactor merges them concurrently, and after every
// round the overlay over base + surviving runs + delta must still match
// the oracle. The final Flush drains whatever the compactor has not taken.
func TestBackgroundCompactionOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	objs, sets := ingestSeedData(rng, 200, 100)
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(),
		AutoFlushOps: 10, BackgroundCompaction: true, CompactRuns: 1}
	db := buildIngestDB(t, cfg, objs, sets)
	defer db.CloseWAL()
	shadow := newIngestShadow(objs, sets)
	for round := 0; round < 8; round++ {
		muts := randomMutations(rng, shadow, 12)
		if err := db.Apply(muts); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
		assertSameTopK(t, fmt.Sprintf("round %d", round), db, shadow.oracle(t, cfg), rng)
	}
	// The compactor must get a chance to win at least one swap: wait for a
	// completed compaction before draining (every sealed run nudged it).
	deadline := time.Now().Add(10 * time.Second)
	for db.Metrics().Counters["stpq_ingest_compactions_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background compaction completed; runs=%d", db.Runs())
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if db.PendingOps() != 0 {
		t.Fatalf("PendingOps after drain = %d", db.PendingOps())
	}
	assertSameTopK(t, "after drain", db, shadow.oracle(t, cfg), rng)
	st := db.IngestStatus()
	if !st.BackgroundCompaction || st.Compactions == 0 {
		t.Fatalf("IngestStatus = %+v; want live compactor with completed compactions", st)
	}
}

// TestObjectMutationsAcrossLayers follows data objects through every place
// a pending object can live — inserted, moved and deleted in the active
// delta, then the same mutations sealed into a run, then overwritten and
// deleted again from a newer delta, then folded into the base by a
// compaction — and compares the whole ranking (k above the object count)
// with a rebuild at each step, for all three variants and both algorithms.
// A Snapshot pinned before the compaction swap must keep answering for the
// state it was taken at; one taken after it, for the new state. Throughout,
// the pending delta part is not a shard: both shard counters stay 0.
func TestObjectMutationsAcrossLayers(t *testing.T) {
	for _, kind := range []IndexKind{SRT, IR2} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			objs, sets := ingestSeedData(rng, 120, 90)
			// Eight mutations seal the delta into a run; the second run
			// wakes the compactor.
			cfg := Config{IndexKind: kind, PageSize: 1024, WALDir: t.TempDir(),
				AutoFlushOps: 8, BackgroundCompaction: true, CompactRuns: 2}
			db := buildIngestDB(t, cfg, objs, sets)
			defer db.CloseWAL()
			shadow := newIngestShadow(objs, sets)
			const all = 1 << 10
			put := func(id int64) Mutation {
				return Mutation{Op: OpUpsertObject, Object: &Object{ID: id, X: rng.Float64(), Y: rng.Float64()}}
			}
			del := func(id int64) Mutation { return Mutation{Op: OpDeleteObject, ID: id} }
			step := func(tag string, wantRuns int, muts ...Mutation) {
				t.Helper()
				if err := db.Apply(muts); err != nil {
					t.Fatalf("%s: Apply: %v", tag, err)
				}
				for _, m := range muts {
					shadow.apply(m)
				}
				if wantRuns >= 0 && db.Runs() != wantRuns {
					t.Fatalf("%s: %d sealed runs, want %d", tag, db.Runs(), wantRuns)
				}
				assertSameRanking(t, tag, db, shadow.oracle(t, cfg), rng, all)
			}
			// Active delta: a new object, a base object moved, a base object
			// deleted.
			step("in the delta", 0, put(900), put(3), del(4))
			// Five more seal all eight into a run; the delta is empty again.
			step("in a sealed run", 1, put(901), put(5), del(6), put(902), del(7))
			// A newer delta over the run: move what the run inserted, delete
			// what the run moved, bring back what the run deleted.
			step("delta over a run", 1, put(900), del(3), put(4), del(901))
			_, st, err := db.TopK(Query{K: 5, Radius: 0.08, Lambda: 0.5,
				Keywords: map[string][]string{"food": {ingestWords[0]}}})
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardFanout != 0 || st.ShardPruned != 0 {
				t.Fatalf("unsharded DB with a pending delta reports fanout %d, pruned %d", st.ShardFanout, st.ShardPruned)
			}

			before, beforeLive := mustSnapshot(t, db), len(shadow.objs)
			beforeOracle := shadow.oracle(t, cfg)
			// Four more seal the second run and wake the compactor; wait for
			// its swap.
			step("second run sealed", -1, put(903), put(8), del(9), del(902))
			deadline := time.Now().Add(10 * time.Second)
			for db.Metrics().Counters["stpq_ingest_compactions_total"] == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no compaction completed; runs=%d", db.Runs())
				}
				time.Sleep(time.Millisecond)
			}
			step("delta over the compacted base", 0, put(904), put(900), del(8))
			after, afterLive := mustSnapshot(t, db), len(shadow.objs)
			afterOracle := shadow.oracle(t, cfg)
			step("past the second snapshot", 0, del(904), put(10))

			assertSameRanking(t, "snapshot pinned before the swap", before, beforeOracle, rng, all)
			assertSameRanking(t, "snapshot pinned after the swap", after, afterOracle, rng, all)
			if before.NumObjects() != beforeLive || after.NumObjects() != afterLive {
				t.Fatalf("live objects: %d before the swap, %d after; want %d and %d",
					before.NumObjects(), after.NumObjects(), beforeLive, afterLive)
			}
		})
	}
}

// TestPendingLayersPublishOnePart: however many layers are pending — here
// three sealed runs under a live delta — a published generation holds their
// net upserts in one part per side beside the base part, because every part
// costs each feature stream and each combination probe a root read.
func TestPendingLayersPublishOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	objs, sets := ingestSeedData(rng, 60, 40)
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(),
		AutoFlushOps: 8, BackgroundCompaction: true, CompactRuns: 1 << 20}
	db := buildIngestDB(t, cfg, objs, sets)
	defer db.CloseWAL()
	shadow := newIngestShadow(objs, sets)
	// Three batches of eight seal a run each; the fourth stays in the delta.
	// Every batch upserts an object and a feature of each set.
	for _, n := range []int{8, 8, 8, 3} {
		id := int64(1000 + db.PendingOps())
		muts := []Mutation{
			{Op: OpUpsertObject, Object: &Object{ID: id, X: rng.Float64(), Y: rng.Float64()}},
			{Op: OpUpsertFeature, Set: "food", Feature: &Feature{ID: id, X: rng.Float64(), Y: rng.Float64(), Score: 0.5, Keywords: ingestWords[:1]}},
			{Op: OpUpsertFeature, Set: "cafes", Feature: &Feature{ID: id, X: rng.Float64(), Y: rng.Float64(), Score: 0.5, Keywords: ingestWords[1:2]}},
		}
		muts = append(muts, randomMutations(rng, shadow, n-len(muts))...)
		if err := db.Apply(muts); err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
	}
	if db.Runs() != 3 || db.PendingOps() != 27 {
		t.Fatalf("%d sealed runs, %d pending ops; want 3 runs under a live delta of 3", db.Runs(), db.PendingOps())
	}
	eng := mustSnapshot(t, db).engine
	if n := len(eng.ObjectParts()); n != 2 {
		t.Errorf("%d object parts published, want the base and one pending part", n)
	}
	for i, g := range eng.FeatureGroups() {
		if n, base := len(g.Parts()), len(db.base.FeatureGroups()[i].Parts()); n != base+1 {
			t.Errorf("feature set %d: %d parts published over %d base parts, want one pending part", i, n, base)
		}
	}
	assertSameCounts(t, "three runs under a delta", db, shadow)
	assertSameTopK(t, "three runs under a delta", db, shadow.oracle(t, cfg), rng)
}

// TestCrashAfterRunSeal: a crash while sealed runs (and a half-filled
// delta) are awaiting compaction loses nothing — the WAL replays every
// batch and the restarted DB matches the oracle.
func TestCrashAfterRunSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	objs, sets := ingestSeedData(rng, 150, 80)
	walDir := t.TempDir()
	// A huge watermark keeps the compactor asleep: runs pile up sealed and
	// unmerged, the worst case for recovery.
	cfg := Config{PageSize: 1024, WALDir: walDir,
		AutoFlushOps: 8, BackgroundCompaction: true, CompactRuns: 1 << 20}
	db1 := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	applied := 0
	for round := 0; round < 5; round++ {
		muts := randomMutations(rng, shadow, 10)
		if err := db1.Apply(muts); err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
		applied += len(muts)
	}
	if db1.Runs() == 0 {
		t.Fatal("test did not reach the sealed-run state it means to crash in")
	}
	// Crash: db1 abandoned, WAL left open, runs and delta lost with the heap.
	db2 := buildIngestDB(t, cfg, objs, sets)
	defer db2.CloseWAL()
	if got := db2.Metrics().Counters["stpq_ingest_replayed_total"]; got != int64(applied) {
		t.Fatalf("replayed %d mutations, want %d", got, applied)
	}
	assertSameTopK(t, "after run-seal crash", db2, shadow.oracle(t, cfg), rng)
}

// TestCrashAfterPartialMerge: partial merges change only the in-memory
// generation, not the durable watermark — after a crash the full log
// replays over the seed base and reconverges exactly.
func TestCrashAfterPartialMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	objs, sets := ingestSeedData(rng, 150, 80)
	walDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: walDir,
		AutoFlushOps: -1}
	db1 := buildIncrementalDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	for round := 0; round < 3; round++ {
		flushStep(t, db1, shadow, rng, 10)
	}
	if m := db1.Metrics().Counters["stpq_ingest_partial_merges_total"]; m != 3 {
		t.Fatalf("partial merges before crash = %d, want 3", m)
	}
	// Crash after the merges, before any checkpoint.
	db2 := buildIngestDB(t, cfg, objs, sets)
	if got := db2.Metrics().Counters["stpq_ingest_replayed_total"]; got != 30 {
		t.Fatalf("replayed %d mutations, want 30", got)
	}
	assertSameTopK(t, "after partial-merge crash", db2, shadow.oracle(t, cfg), rng)
}

// TestCrashMidCheckpointSwap simulates dying between a checkpoint's page
// dumps and its manifest rename: newer-generation page files exist on disk
// but the manifest still names the old generation. Open must load the old
// checkpoint, replay the WAL tail exactly, and the next successful
// checkpoint must garbage-collect the orphaned dumps.
func TestCrashMidCheckpointSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	objs, sets := ingestSeedData(rng, 150, 80)
	saveDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: -1}
	db1 := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	step := func(n int) {
		muts := randomMutations(rng, shadow, n)
		if err := db1.Apply(muts); err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
	}
	step(12)
	if err := db1.Checkpoint(saveDir); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	step(9) // the tail only the WAL knows about

	// The torn second checkpoint: generation-stamped page dumps landed, the
	// manifest rename did not. Garbage contents prove they are never read.
	orphans := []string{
		fmt.Sprintf("objects.%016x.pages", uint64(1)<<40),
		fmt.Sprintf("features_0.%016x.pages", uint64(1)<<40),
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(saveDir, name), []byte("torn checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db2, err := Open(saveDir)
	if err != nil {
		t.Fatalf("Open with orphaned page dumps: %v", err)
	}
	if got := db2.Metrics().Counters["stpq_ingest_replayed_total"]; got != 9 {
		t.Fatalf("replayed %d mutations, want 9", got)
	}
	assertSameTopK(t, "after torn checkpoint", db2, shadow.oracle(t, cfg), rng)

	// A completed checkpoint sweeps the orphans.
	if err := db2.Checkpoint(saveDir); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(saveDir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphaned page dump %s survived the next checkpoint (err=%v)", name, err)
		}
	}
	// And the recovered-from-recovered state still opens exactly.
	db3, err := Open(saveDir)
	if err != nil {
		t.Fatalf("Open after second checkpoint: %v", err)
	}
	assertSameTopK(t, "after second checkpoint", db3, shadow.oracle(t, cfg), rng)
}

// TestCheckpointDoesNotBlockApply runs Apply and Checkpoint concurrently:
// the disk phase works from a pinned generation with no DB locks held, so
// writes keep flowing mid-checkpoint, every checkpoint is a consistent
// prefix, and the final recovery (snapshot + WAL tail) is oracle-exact.
// Run under -race this also proves the pinned pages are never written.
func TestCheckpointDoesNotBlockApply(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	objs, sets := ingestSeedData(rng, 150, 80)
	saveDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: -1}
	db := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)

	// Pre-generate the batches so the writer goroutine never touches the
	// shadow (which the main goroutine owns).
	batches := make([][]Mutation, 20)
	for i := range batches {
		batches[i] = randomMutations(rng, shadow, 6)
		for _, m := range batches[i] {
			shadow.apply(m)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 8)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if err := db.Apply(b); err != nil {
				errc <- fmt.Errorf("Apply: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := db.Checkpoint(saveDir); err != nil {
				errc <- fmt.Errorf("Checkpoint %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	assertSameTopK(t, "live after concurrent checkpoints", db, shadow.oracle(t, cfg), rng)

	db2, err := Open(saveDir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	assertSameTopK(t, "recovered after concurrent checkpoints", db2, shadow.oracle(t, cfg), rng)
}

// TestMergeAutoDegradationFallback pins the degradation heuristic from both
// sides: a small batch merges partially, and a pending set larger than the
// drift ratio allows forces the full rebuild that re-packs the trees.
func TestMergeAutoDegradationFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	objs, sets := ingestSeedData(rng, 60, 40)
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: -1}
	db := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)

	flushStep(t, db, shadow, rng, 10)
	m := db.Metrics().Counters
	if m["stpq_ingest_partial_merges_total"] != 1 || m["stpq_ingest_full_rebuilds_total"] != 0 {
		t.Fatalf("small flush: partial=%d full=%d, want 1/0",
			m["stpq_ingest_partial_merges_total"], m["stpq_ingest_full_rebuilds_total"])
	}

	// ~300 net ops against ~160 live entries is far past the default 0.5
	// drift ratio; the merge must rebuild instead.
	muts := randomMutations(rng, shadow, 400)
	if err := db.Apply(muts); err != nil {
		t.Fatal(err)
	}
	for _, mu := range muts {
		shadow.apply(mu)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m = db.Metrics().Counters
	if m["stpq_ingest_full_rebuilds_total"] == 0 {
		t.Fatalf("oversized flush did not fall back: partial=%d full=%d",
			m["stpq_ingest_partial_merges_total"], m["stpq_ingest_full_rebuilds_total"])
	}
	assertSameTopK(t, "after fallback rebuild", db, shadow.oracle(t, cfg), rng)

	// The rebuild reset the drift accounting: the next small flush is
	// incremental again.
	flushStep(t, db, shadow, rng, 8)
	m2 := db.Metrics().Counters
	if m2["stpq_ingest_partial_merges_total"] != m["stpq_ingest_partial_merges_total"]+1 {
		t.Fatalf("post-rebuild flush not partial: partial=%d full=%d",
			m2["stpq_ingest_partial_merges_total"], m2["stpq_ingest_full_rebuilds_total"])
	}
	assertSameTopK(t, "after post-rebuild merge", db, shadow.oracle(t, cfg), rng)
}

// TestBackpressureStallsWrites: with the compactor wedged shut (gate
// always saturated, watermark 1 so runs seal constantly), the run count
// hits the cap (4 × CompactRuns) and Apply merges synchronously, counting a write stall.
func TestBackpressureStallsWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	objs, sets := ingestSeedData(rng, 150, 80)
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(),
		AutoFlushOps: 6, BackgroundCompaction: true, CompactRuns: 1}
	db := buildIngestDB(t, cfg, objs, sets)
	defer db.CloseWAL()
	// A permanently-saturated gate parks the compactor at its pacing
	// points, letting runs accumulate to the cap deterministically enough
	// to observe at least one stall.
	db.SetCompactionGate(func() bool { return true })
	shadow := newIngestShadow(objs, sets)
	deadline := time.Now().Add(10 * time.Second)
	for db.Metrics().Counters["stpq_ingest_write_stalls_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no write stall observed; runs=%d", db.Runs())
		}
		muts := randomMutations(rng, shadow, 8)
		if err := db.Apply(muts); err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
	}
	db.SetCompactionGate(nil)
	assertSameTopK(t, "after backpressure stall", db, shadow.oracle(t, cfg), rng)
}

// TestCheckpointFileGenNames pins the atomic-checkpoint layout: page dumps
// carry the generation stamp the manifest names, so successive checkpoints
// never overwrite each other's files in place.
func TestCheckpointFileGenNames(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objs, sets := ingestSeedData(rng, 80, 50)
	saveDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: -1}
	db := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	muts := randomMutations(rng, shadow, 6)
	if err := db.Apply(muts); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		shadow.apply(m)
	}
	if err := db.Checkpoint(saveDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(saveDir)
	if err != nil {
		t.Fatal(err)
	}
	var pages []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pages") {
			pages = append(pages, e.Name())
		}
	}
	want := pageFile("objects", db.WALSeq())
	found := false
	for _, p := range pages {
		if p == want {
			found = true
		}
		if p == "objects.pages" || strings.Count(p, ".") != 2 {
			t.Fatalf("checkpoint wrote unstamped page dump %q (all: %v)", p, pages)
		}
	}
	if !found {
		t.Fatalf("checkpoint page dumps %v missing %q", pages, want)
	}
}

// assertNNMatchesBruteForce runs the NN query q twice on db's current
// generation — the second run finds every cell the first built in the
// engine's store — and holds both answers to brute force over that
// generation: the score at every rank, and every reported score the exact
// score of its object. It returns the exact scores of objs.
func assertNNMatchesBruteForce(t *testing.T, tag string, db *DB, q Query, objs ...Object) []float64 {
	t.Helper()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p, err := snap.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(t, snap, q)
	for run := 0; run < 2; run++ {
		got, _, err := snap.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameScores(got, want) {
			for i := range got {
				if i == len(want) || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("%s, run %d: %d results, brute force %d; first difference at rank %d", tag, run, len(got), len(want), i)
				}
			}
		}
		for _, r := range got {
			if exact, err := p.Score(r.X, r.Y); err != nil || math.Abs(exact-r.Score) > 1e-9 {
				t.Fatalf("%s, run %d: object %d reported %v, exact %v (%v)", tag, run, r.ID, r.Score, exact, err)
			}
		}
	}
	scores := make([]float64, len(objs))
	for i, o := range objs {
		if scores[i], err = p.Score(o.X, o.Y); err != nil {
			t.Fatal(err)
		}
	}
	return scores
}

// TestNNCellsFollowPublish: a feature next to an object is its nearest
// neighbour, and one the query finds irrelevant, so the object scores
// nothing for that set; deleting it grows the cells around it back, and
// the object scores its old neighbour again. The writes delete such a
// feature next to one object and then insert one next to another, and
// every NN answer must equal brute force over the generation it runs on —
// through a publish of pending writes, a Flush and a background compaction
// swap — although each generation's queries ran on a store the previous
// generation's queries had filled. A store shared across generations would
// hand the new one cells cut around the deleted feature, or not yet cut
// around the inserted one, and both objects would score wrong.
func TestNNCellsFollowPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	objs, sets := ingestSeedData(rng, 150, 80)
	o1, o2 := objs[0], objs[1]
	irrelevant := []string{ingestWords[len(ingestWords)-1]}
	f1 := Feature{ID: 9001, X: o1.X + 1e-4, Y: o1.Y, Score: 0.5, Keywords: irrelevant}
	f2 := Feature{ID: 9002, X: o2.X + 1e-4, Y: o2.Y, Score: 0.5, Keywords: irrelevant}
	sets["food"] = append(append([]Feature(nil), sets["food"]...), f1)
	writes := [][]Mutation{
		{{Op: OpDeleteFeature, Set: "food", ID: f1.ID}},
		{{Op: OpUpsertFeature, Set: "food", Feature: &f2}},
	}
	q := Query{K: len(objs), Lambda: 0.5, Variant: NearestNeighbor, Keywords: map[string][]string{
		"food": ingestWords[:len(ingestWords)-1], "cafes": ingestWords[3:5],
	}}
	check := func(t *testing.T, tag string, db *DB) []float64 {
		return assertNNMatchesBruteForce(t, tag, db, q, o1, o2)
	}
	// write applies write i, lets merge run, checks the generation that
	// serves the result and that the write moved object i's score.
	write := func(t *testing.T, db *DB, i int, before []float64, merge func() error) {
		if err := db.Apply(writes[i]); err != nil {
			t.Fatal(err)
		}
		if err := merge(); err != nil {
			t.Fatal(err)
		}
		if after := check(t, fmt.Sprintf("write %d", i), db); after[i] == before[i] {
			t.Fatalf("write %d left object %d's score at %v: the test shows nothing", i, objs[i].ID, after[i])
		}
	}
	none := func() error { return nil }

	t.Run("publish-flush", func(t *testing.T) {
		db := buildIngestDB(t, Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: -1}, objs, sets)
		defer db.CloseWAL()
		before := check(t, "built", db)
		for i := range writes {
			write(t, db, i, before, none) // published as pending writes
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("write %d flushed", i), db)
		}
	})

	t.Run("compaction-swap", func(t *testing.T) {
		db := buildIngestDB(t, Config{PageSize: 1024, WALDir: t.TempDir(),
			AutoFlushOps: 1, BackgroundCompaction: true, CompactRuns: 1}, objs, sets)
		defer db.CloseWAL()
		before := check(t, "built", db)
		for i := range writes {
			// The write seals a run and wakes the compactor; the check runs
			// once its merged engine is swapped in.
			write(t, db, i, before, func() error {
				deadline := time.Now().Add(10 * time.Second)
				for db.Metrics().Counters["stpq_ingest_compactions_total"] <= int64(i) {
					if time.Now().After(deadline) {
						return fmt.Errorf("write %d: no background compaction completed", i)
					}
					time.Sleep(time.Millisecond)
				}
				return nil
			})
		}
	})
}
