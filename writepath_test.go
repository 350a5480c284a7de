package stpq

// writepath_test.go holds the write path to one promise whatever the DB's
// history: the base indexes are the only copy of the data, so a DB that was
// built, opened from a Save, opened from a Checkpoint, fed by its own WAL or
// by a leader's shipped log merges, widens and rebuilds to the same answers
// as a from-scratch build of the logical dataset.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// assertSameCounts requires the live DB to report the shadow's object and
// per-set feature counts.
func assertSameCounts(t *testing.T, tag string, db *DB, shadow *ingestShadow) {
	t.Helper()
	snap := mustSnapshot(t, db)
	if got := snap.NumObjects(); got != len(shadow.objs) {
		t.Fatalf("%s: %d objects, the shadow holds %d", tag, got, len(shadow.objs))
	}
	for name, got := range snap.NumFeatures() {
		if got != len(shadow.feats[name]) {
			t.Fatalf("%s: %d features in %q, the shadow holds %d", tag, got, name, len(shadow.feats[name]))
		}
	}
}

// TestCountsWhilePending: a base entry that a pending write overwrites or
// deletes is hidden in the base part, so it is counted once (in the pending
// part) or not at all — on the feature side as on the object side.
func TestCountsWhilePending(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	objs, sets := ingestSeedData(rng, 20, 20)
	db := buildIngestDB(t, Config{PageSize: 1024, AutoFlushOps: -1, WALDir: t.TempDir()}, objs, sets)
	defer db.CloseWAL()
	shadow := newIngestShadow(objs, sets)
	muts := []Mutation{
		{Op: OpUpsertFeature, Set: "food", Feature: &Feature{ID: 15, X: 0.5, Y: 0.5, Score: 0.5, Keywords: ingestWords[:1]}},
		{Op: OpDeleteFeature, Set: "food", ID: 16},
		{Op: OpUpsertObject, Object: &Object{ID: 3, X: 0.5, Y: 0.5}},
		{Op: OpDeleteObject, ID: 4},
	}
	if err := db.Apply(muts); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		shadow.apply(m)
	}
	assertSameCounts(t, "while pending", db, shadow)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSameCounts(t, "after Flush", db, shadow)
}

// TestOpenedFollowerMergeKeepsBase: a follower seeded from a saved directory
// has no WAL of its own, and its first merge must fold the shipped records
// into the base it opened — not replace that base with them.
func TestOpenedFollowerMergeKeepsBase(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	objs, sets := ingestSeedData(rng, 50, 50)
	cfg := Config{PageSize: 1024, AutoFlushOps: -1}
	dir := t.TempDir()
	if err := buildIngestDB(t, cfg, objs, sets).Save(dir); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shadow := newIngestShadow(objs, sets)
	muts := []Mutation{
		{Op: OpUpsertObject, Object: &Object{ID: 900, X: 0.4, Y: 0.6}},
		{Op: OpDeleteObject, ID: 7},
	}
	payload, err := json.Marshal(muts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated(1, payload); err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	for _, m := range muts {
		shadow.apply(m)
	}
	if db.PendingOps() != 2 {
		t.Fatalf("PendingOps = %d, want the shipped record pending", db.PendingOps())
	}
	assertSameCounts(t, "while pending", db, shadow)
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	assertSameRanking(t, "after the follower's first merge", db, shadow.oracle(t, cfg), rng, 1<<10)
	assertSameCounts(t, "after the follower's first merge", db, shadow)
}

// TestWritePathCompositions runs one seeded mutation script — object and
// feature inserts, moves, rewrites and deletes — against every way a DB
// comes to be × who feeds it × index kind, and takes it through each merge
// trigger in turn: a Flush small enough to merge partially, a Flush past
// the drift ratio (full merge), a batch with an unseen keyword (the
// widening rebuild), and AddObjects + Rebuild with a mutation pending.
// After every step the whole ranking equals a from-scratch build of the
// shadow, and so do the counts. Sharded DBs have no write path: their row
// holds them to refusing mutations and to Rebuild.
func TestWritePathCompositions(t *testing.T) {
	type origin string
	const (
		built        origin = "Build"
		savedOpened  origin = "Save→Open"
		ckptOpened   origin = "Checkpoint→Open"
		shardedBuilt origin = "sharded Build"
	)
	for _, kind := range []IndexKind{SRT, IR2} {
		for _, from := range []origin{built, savedOpened, ckptOpened, shardedBuilt} {
			for _, follower := range []bool{false, true} {
				if from == shardedBuilt && follower {
					continue
				}
				role := "own WAL"
				if from == shardedBuilt {
					role = "read-only"
				}
				if follower {
					role = "follower"
				}
				t.Run(fmt.Sprintf("kind=%d/%s/%s", kind, from, role), func(t *testing.T) {
					rng := rand.New(rand.NewSource(73))
					objs, sets := ingestSeedData(rng, 60, 40)
					shadow := newIngestShadow(objs, sets)
					cfg := Config{IndexKind: kind, PageSize: 1024, AutoFlushOps: -1}
					oracleCfg := cfg
					seedMuts := func(db *DB) {
						muts := randomMutations(rng, shadow, 9)
						if err := db.Apply(muts); err != nil {
							t.Fatal(err)
						}
						for _, m := range muts {
							shadow.apply(m)
						}
					}

					var db *DB
					switch from {
					case built:
						if !follower {
							cfg.WALDir = t.TempDir()
						}
						db = buildIngestDB(t, cfg, objs, sets)
					case shardedBuilt:
						cfg.ShardCount = 3
						db = buildIngestDB(t, cfg, objs, sets)
					case savedOpened:
						dir := t.TempDir()
						if err := buildIngestDB(t, cfg, objs, sets).Save(dir); err != nil {
							t.Fatal(err)
						}
						var err error
						if db, err = Open(dir); err != nil {
							t.Fatal(err)
						}
						if !follower {
							if _, err := db.AttachWAL(t.TempDir()); err != nil {
								t.Fatal(err)
							}
						}
					case ckptOpened:
						// The checkpoint holds a partially merged base, and its
						// manifest names the source's WAL: Open attaches it.
						cfg.WALDir = t.TempDir()
						src := buildIngestDB(t, cfg, objs, sets)
						seedMuts(src)
						dir := t.TempDir()
						if err := src.Checkpoint(dir); err != nil {
							t.Fatal(err)
						}
						if err := src.CloseWAL(); err != nil {
							t.Fatal(err)
						}
						var err error
						if db, err = Open(dir); err != nil {
							t.Fatal(err)
						}
						if follower {
							if err := db.CloseWAL(); err != nil {
								t.Fatal(err)
							}
						}
					}
					defer db.CloseWAL()

					apply := func(tag string, muts []Mutation) {
						t.Helper()
						var err error
						if follower {
							var payload []byte
							if payload, err = json.Marshal(muts); err == nil {
								err = db.ApplyReplicated(db.WALSeq()+1, payload)
							}
						} else {
							err = db.Apply(muts)
						}
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						for _, m := range muts {
							shadow.apply(m)
						}
						assertSameCounts(t, tag+", pending", db, shadow)
					}
					check := func(tag string) {
						t.Helper()
						assertSameRanking(t, tag, db, shadow.oracle(t, oracleCfg), rng, 1<<10)
						assertSameCounts(t, tag, db, shadow)
					}
					counter := func(name string) int64 { return db.Metrics().Counters[name] }
					rebuild := func(tag string) {
						t.Helper()
						o := Object{ID: 950, X: rng.Float64(), Y: rng.Float64()}
						db.AddObjects([]Object{o})
						shadow.apply(Mutation{Op: OpUpsertObject, Object: &o})
						if err := db.Rebuild(); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						check(tag)
					}
					check("as it came to be")

					if from == shardedBuilt {
						err := db.Apply([]Mutation{{Op: OpDeleteObject, ID: 1}})
						if !errors.Is(err, ErrIngestUnsupported) {
							t.Fatalf("Apply on a sharded DB: %v, want ErrIngestUnsupported", err)
						}
						rebuild("AddObjects + Rebuild")
						return
					}

					apply("small batch", randomMutations(rng, shadow, 10))
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					if counter("stpq_ingest_partial_merges_total") != 1 || counter("stpq_ingest_full_rebuilds_total") != 0 {
						t.Fatalf("small Flush: %d partial merges, %d full; want 1, 0",
							counter("stpq_ingest_partial_merges_total"), counter("stpq_ingest_full_rebuilds_total"))
					}
					check("Flush, partial merge")

					// ~300 net ops against ~140 live entries is far past
					// mergeDriftRatio.
					apply("large batch", randomMutations(rng, shadow, 400))
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					if counter("stpq_ingest_full_rebuilds_total") != 1 {
						t.Fatalf("Flush past the drift ratio: %d full merges, want 1", counter("stpq_ingest_full_rebuilds_total"))
					}
					check("Flush, full merge")

					pending := randomMutations(rng, shadow, 6)
					apply("batch left pending", pending)
					f := Feature{ID: 9001, X: 0.5, Y: 0.5, Score: 0.95, Keywords: []string{"szechuan", "pizza"}}
					apply("unseen keyword", []Mutation{{Op: OpUpsertFeature, Set: "cafes", Feature: &f}})
					if got := counter("stpq_ingest_full_rebuilds_total"); got != 2 {
						t.Fatalf("unseen keyword: %d full merges, want 2 (one widening rebuild)", got)
					}
					if db.PendingOps() != 1 {
						t.Fatalf("unseen keyword: %d pending ops, want the batch itself in the delta", db.PendingOps())
					}
					check("unseen keyword")
					res, _, err := db.TopK(Query{K: 1, Radius: 0.2, Lambda: 0.5,
						Keywords: map[string][]string{"cafes": {"szechuan"}}})
					if err != nil || len(res) == 0 || res[0].Score == 0 {
						t.Fatalf("unseen keyword not queryable: %v, %v", res, err)
					}

					rebuild("AddObjects + Rebuild over a pending delta")
					if db.PendingOps() != 0 {
						t.Fatalf("Rebuild left %d pending ops", db.PendingOps())
					}
				})
			}
		}
	}
}
