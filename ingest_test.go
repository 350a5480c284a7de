package stpq

// ingest_test.go verifies the live write path end to end: answers over
// base + delta must be byte-identical to a from-scratch rebuild after every
// batch
// (insert and delete, both index kinds, all three score variants, both
// algorithms), WAL replay after a simulated crash must reconverge, and
// Checkpoint must trim the log while keeping recovery exact.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"stpq/internal/rtree"
)

// ingestWords is the closed keyword pool of the equivalence tests. The
// immortal seed features cover the whole pool, so the live DB and the
// from-scratch oracle intern identical vocabularies and LookupSet drops
// nothing on either side.
var ingestWords = []string{"pizza", "sushi", "tacos", "ramen", "bagels",
	"pho", "curry", "bbq", "espresso", "latte", "tea", "cocoa"}

// ingestShadow mirrors the logical content of a live DB: the ground truth
// the oracle rebuild is constructed from.
type ingestShadow struct {
	objs  map[int64]Object
	feats map[string]map[int64]Feature
}

func newIngestShadow(objs []Object, sets map[string][]Feature) *ingestShadow {
	s := &ingestShadow{objs: map[int64]Object{}, feats: map[string]map[int64]Feature{}}
	for _, o := range objs {
		s.objs[o.ID] = o
	}
	for name, fs := range sets {
		s.feats[name] = map[int64]Feature{}
		for _, f := range fs {
			s.feats[name][f.ID] = f
		}
	}
	return s
}

func (s *ingestShadow) apply(m Mutation) {
	switch m.Op {
	case OpUpsertObject:
		s.objs[m.Object.ID] = *m.Object
	case OpDeleteObject:
		delete(s.objs, m.ID)
	case OpUpsertFeature:
		s.feats[m.Set][m.Feature.ID] = *m.Feature
	case OpDeleteFeature:
		delete(s.feats[m.Set], m.ID)
	}
}

// oracle builds a fresh DB from the shadow state (ids ascending — order is
// irrelevant to scores, which are per-set max/sum over the same multiset).
func (s *ingestShadow) oracle(t *testing.T, cfg Config) *DB {
	t.Helper()
	cfg.WALDir = ""
	db := New(cfg)
	ids := make([]int64, 0, len(s.objs))
	for id := range s.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	objs := make([]Object, len(ids))
	for i, id := range ids {
		objs[i] = s.objs[id]
	}
	db.AddObjects(objs)
	names := make([]string, 0, len(s.feats))
	for name := range s.feats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fids := make([]int64, 0, len(s.feats[name]))
		for id := range s.feats[name] {
			fids = append(fids, id)
		}
		sort.Slice(fids, func(i, j int) bool { return fids[i] < fids[j] })
		fs := make([]Feature, len(fids))
		for i, id := range fids {
			fs[i] = s.feats[name][id]
		}
		db.AddFeatureSet(name, fs)
	}
	if err := db.Build(); err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	return db
}

// ingestSeedData builds the initial dataset. The first len(ingestWords)
// features of each set are immortal: one word each, covering the pool.
func ingestSeedData(rng *rand.Rand, nObj, nFeat int) ([]Object, map[string][]Feature) {
	objs := make([]Object, nObj)
	for i := range objs {
		objs[i] = Object{ID: int64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	sets := map[string][]Feature{}
	for _, name := range []string{"food", "cafes"} {
		fs := make([]Feature, nFeat)
		for i := range fs {
			var kws []string
			if i < len(ingestWords) {
				kws = []string{ingestWords[i]}
			} else {
				for _, w := range ingestWords {
					if rng.Intn(4) == 0 {
						kws = append(kws, w)
					}
				}
				if len(kws) == 0 {
					kws = []string{ingestWords[rng.Intn(len(ingestWords))]}
				}
			}
			fs[i] = Feature{ID: int64(i), X: rng.Float64(), Y: rng.Float64(),
				Score: rng.Float64(), Keywords: kws}
		}
		sets[name] = fs
	}
	return objs, sets
}

// randomMutations generates a batch against the shadow: object and feature
// upserts and deletes, never touching the immortal features.
func randomMutations(rng *rand.Rand, s *ingestShadow, n int) []Mutation {
	var muts []Mutation
	setNames := []string{"food", "cafes"}
	for len(muts) < n {
		switch rng.Intn(4) {
		case 0: // upsert object (new or overwrite)
			id := int64(rng.Intn(600))
			o := Object{ID: id, X: rng.Float64(), Y: rng.Float64()}
			muts = append(muts, Mutation{Op: OpUpsertObject, Object: &o})
		case 1: // delete a random live object (skip if none)
			if id, ok := randomKey(rng, s.objs); ok {
				muts = append(muts, Mutation{Op: OpDeleteObject, ID: id})
			}
		case 2: // upsert feature
			name := setNames[rng.Intn(2)]
			id := int64(len(ingestWords) + rng.Intn(600))
			var kws []string
			for _, w := range ingestWords {
				if rng.Intn(4) == 0 {
					kws = append(kws, w)
				}
			}
			f := Feature{ID: id, X: rng.Float64(), Y: rng.Float64(),
				Score: rng.Float64(), Keywords: kws}
			muts = append(muts, Mutation{Op: OpUpsertFeature, Set: name, Feature: &f})
		case 3: // delete a random mortal feature
			name := setNames[rng.Intn(2)]
			if id, ok := randomKey(rng, s.feats[name]); ok && id >= int64(len(ingestWords)) {
				muts = append(muts, Mutation{Op: OpDeleteFeature, Set: name, ID: id})
			}
		}
	}
	return muts
}

func randomKey[V any](rng *rand.Rand, m map[int64]V) (int64, bool) {
	if len(m) == 0 {
		return 0, false
	}
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))], true
}

// topKer is what the oracle comparisons ask: a DB or a pinned Snapshot.
type topKer interface {
	TopK(Query) ([]Result, Stats, error)
}

// assertSameTopK compares two DBs over both algorithms and all three
// variants, requiring bitwise-equal scores and identical id order.
func assertSameTopK(t *testing.T, tag string, live, oracle topKer, rng *rand.Rand) {
	t.Helper()
	assertSameRanking(t, tag, live, oracle, rng, 10)
}

// assertSameRanking is assertSameTopK for a given k; a k above the object
// count compares the whole ranking, so no object mutation can hide below
// the cut.
func assertSameRanking(t *testing.T, tag string, live, oracle topKer, rng *rand.Rand, k int) {
	t.Helper()
	kws := map[string][]string{
		"food":  {ingestWords[rng.Intn(len(ingestWords))], ingestWords[rng.Intn(len(ingestWords))]},
		"cafes": {ingestWords[rng.Intn(len(ingestWords))]},
	}
	for _, alg := range []Algorithm{STPS, STDS} {
		for _, v := range []Variant{Range, Influence, NearestNeighbor} {
			q := Query{K: k, Radius: 0.08, Lambda: 0.5, Keywords: kws,
				Variant: v, Algorithm: alg}
			want, _, err := oracle.TopK(q)
			if err != nil {
				t.Fatalf("%s: oracle TopK(%v,%v): %v", tag, alg, v, err)
			}
			got, _, err := live.TopK(q)
			if err != nil {
				t.Fatalf("%s: live TopK(%v,%v): %v", tag, alg, v, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s alg=%v variant=%v: %d results, oracle has %d\n got %v\nwant %v",
					tag, alg, v, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].ID != want[i].ID ||
					math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s alg=%v variant=%v: result %d diverges\n got %+v\nwant %+v",
						tag, alg, v, i, got[i], want[i])
				}
			}
		}
	}
}

// buildIngestDB builds a live DB with a WAL from the seed data.
func buildIngestDB(t *testing.T, cfg Config, objs []Object, sets map[string][]Feature) *DB {
	t.Helper()
	db := New(cfg)
	db.AddObjects(objs)
	for _, name := range []string{"food", "cafes"} {
		db.AddFeatureSet(name, sets[name])
	}
	if err := db.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return db
}

// TestApplyOracleEquivalence is the acceptance gate of the ingest
// subsystem: after every randomized batch the answers over base + delta are
// byte-identical to a from-scratch rebuild, for both index kinds.
func TestApplyOracleEquivalence(t *testing.T) {
	for _, kind := range []IndexKind{SRT, IR2} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			objs, sets := ingestSeedData(rng, 250, 120)
			cfg := Config{IndexKind: kind, PageSize: 1024, WALDir: t.TempDir(),
				AutoFlushOps: -1} // equivalence over an unmerged delta first
			db := buildIngestDB(t, cfg, objs, sets)
			shadow := newIngestShadow(objs, sets)
			for round := 0; round < 6; round++ {
				muts := randomMutations(rng, shadow, 15)
				if err := db.Apply(muts); err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				for _, m := range muts {
					shadow.apply(m)
				}
				oracle := shadow.oracle(t, cfg)
				assertSameTopK(t, fmt.Sprintf("round %d", round), db, oracle, rng)
			}
			if db.PendingOps() == 0 {
				t.Fatal("expected unmerged delta with auto-flush disabled")
			}
			// Flush merges everything; answers must not move.
			if err := db.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if db.PendingOps() != 0 {
				t.Fatalf("PendingOps after Flush = %d", db.PendingOps())
			}
			oracle := shadow.oracle(t, cfg)
			assertSameTopK(t, "after flush", db, oracle, rng)
		})
	}
}

// TestApplyAutoFlushMerges exercises the delta-threshold merge path: small
// AutoFlushOps forces repeated generation swaps mid-stream, and the
// answers still track the oracle.
func TestApplyAutoFlushMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs, sets := ingestSeedData(rng, 200, 100)
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: 20}
	db := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	for round := 0; round < 5; round++ {
		muts := randomMutations(rng, shadow, 12)
		if err := db.Apply(muts); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
	}
	if m := db.Metrics().Counters["stpq_ingest_merges_total"]; m == 0 {
		t.Fatal("expected at least one auto-flush merge")
	}
	assertSameTopK(t, "after auto-flush stream", db, shadow.oracle(t, cfg), rng)
}

// TestApplyNewKeywordForcesMerge: a feature with a keyword outside the
// indexed vocabulary cannot be absorbed by the fixed-width delta; Apply
// must first widen the indexes with one merge, and the new keyword must be
// queryable.
func TestApplyNewKeywordForcesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	objs, sets := ingestSeedData(rng, 100, 60)
	cfg := Config{PageSize: 1024, WALDir: t.TempDir(), AutoFlushOps: -1}
	db := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	f := Feature{ID: 9001, X: 0.5, Y: 0.5, Score: 0.95, Keywords: []string{"szechuan"}}
	mut := Mutation{Op: OpUpsertFeature, Set: "food", Feature: &f}
	if err := db.Apply([]Mutation{mut}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	shadow.apply(mut)
	assertSameTopK(t, "after the vocab-growing Apply", db, shadow.oracle(t, cfg), rng)
	if m := db.Metrics().Counters["stpq_ingest_merges_total"]; m != 1 {
		t.Fatalf("merges = %d, want 1", m)
	}
	res, _, err := db.TopK(Query{K: 3, Radius: 0.2, Lambda: 0.5,
		Keywords: map[string][]string{"food": {"szechuan"}}})
	if err != nil {
		t.Fatalf("TopK on new keyword: %v", err)
	}
	if len(res) == 0 || res[0].Score == 0 {
		t.Fatalf("new keyword not queryable: %v", res)
	}
}

// TestApplyTooWideVocabularyLeavesNoRecord: a batch whose new keywords
// would widen the vocabulary one past what 512-byte pages fit
// (rtree.MaxKeywordWidth) fails with ErrVocabularyTooWide, which wraps
// ErrInvalidMutation, before it is logged: no WAL record, no keyword
// interned, so the next Apply of known words succeeds, and a DB built
// afresh on the same log replays that one record and answers as the live
// DB does.
func TestApplyTooWideVocabularyLeavesNoRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs, sets := ingestSeedData(rng, 100, 60)
	cfg := Config{PageSize: 512, WALDir: t.TempDir(), AutoFlushOps: -1}
	db := buildIngestDB(t, cfg, objs, sets)
	width := db.vocab.Size()
	wide := make([]string, rtree.MaxKeywordWidth(cfg.PageSize)-width+1)
	for i := range wide {
		wide[i] = fmt.Sprintf("new%d", i)
	}
	f := Feature{ID: 9001, X: 0.5, Y: 0.5, Score: 0.9, Keywords: append(wide, wide[0], "NEW0")}
	for attempt := 1; attempt <= 2; attempt++ {
		err := db.Apply([]Mutation{{Op: OpUpsertFeature, Set: "food", Feature: &f}})
		if !errors.Is(err, ErrVocabularyTooWide) || !errors.Is(err, ErrInvalidMutation) {
			t.Fatalf("Apply #%d of %d new keywords: %v, want ErrVocabularyTooWide and ErrInvalidMutation", attempt, len(wide), err)
		}
	}
	if db.WALSeq() != 0 || db.vocab.Size() != width || db.PendingOps() != 0 {
		t.Fatalf("after the refusals: WAL seq %d, %d keywords (was %d), %d mutations pending", db.WALSeq(), db.vocab.Size(), width, db.PendingOps())
	}
	g := Feature{ID: 9002, X: 0.4, Y: 0.6, Score: 0.8, Keywords: []string{ingestWords[0], ingestWords[1]}}
	if err := db.Apply([]Mutation{{Op: OpUpsertFeature, Set: "food", Feature: &g}}); err != nil {
		t.Fatalf("Apply of known keywords: %v", err)
	}
	if db.WALSeq() != 1 {
		t.Fatalf("WAL seq %d after one accepted batch, want 1", db.WALSeq())
	}
	db2 := buildIngestDB(t, cfg, objs, sets)
	if got := db2.Metrics().Counters["stpq_ingest_replayed_total"]; got != 1 {
		t.Fatalf("replayed %d mutations, want 1", got)
	}
	assertSameTopK(t, "after replay", db2, db, rand.New(rand.NewSource(6)))
}

// TestWALReplayAfterCrash simulates a crash (the DB is abandoned without
// closing its WAL) and verifies a restarted process — same seed data, same
// WAL dir — reconverges to byte-identical answers.
func TestWALReplayAfterCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objs, sets := ingestSeedData(rng, 200, 100)
	walDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: walDir, AutoFlushOps: -1}
	db1 := buildIngestDB(t, cfg, objs, sets)
	shadow := newIngestShadow(objs, sets)
	for round := 0; round < 4; round++ {
		muts := randomMutations(rng, shadow, 10)
		if err := db1.Apply(muts); err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			shadow.apply(m)
		}
	}
	// Crash: db1 is dropped with its delta unmerged and its WAL open.
	db2 := buildIngestDB(t, cfg, objs, sets)
	if got := db2.Metrics().Counters["stpq_ingest_replayed_total"]; got != 40 {
		t.Fatalf("replayed %d mutations, want 40", got)
	}
	if db2.WALSeq() != db1.WALSeq() {
		t.Fatalf("replayed WALSeq %d, want %d", db2.WALSeq(), db1.WALSeq())
	}
	rngQ := rand.New(rand.NewSource(99))
	assertSameTopK(t, "after replay", db2, shadow.oracle(t, cfg), rngQ)
}

// TestCheckpointTrimsAndRecovers: Checkpoint persists the merged state and
// drops the sealed WAL segments it made redundant, all but the newest 4
// (walRetainSegments); Open auto-attaches, replays only the records
// after the checkpoint, and further Applies work on the opened DB (whose
// index pages are all the data it needs).
func TestCheckpointTrimsAndRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objs, sets := ingestSeedData(rng, 150, 80)
	walDir := t.TempDir()
	saveDir := t.TempDir()
	cfg := Config{PageSize: 1024, WALDir: walDir, AutoFlushOps: -1}
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
	segments := func() []string {
		names, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names) // zero-padded first seqs: oldest first, active last
		return names
	}
	// Six batches, each sealed into a segment of its own.
	const batches = 6
	for i := 0; i < batches; i++ {
		step(2)
		if err := db1.WALRotate(); err != nil {
			t.Fatal(err)
		}
	}
	before := segments()
	if len(before) < batches+1 {
		t.Fatalf("%d WAL segment files after %d rotations, want ≥ %d sealed plus the active one", len(before), batches, batches)
	}
	if err := db1.Checkpoint(saveDir); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if db1.PendingOps() != 0 {
		t.Fatalf("PendingOps after Checkpoint = %d", db1.PendingOps())
	}
	// The newest 4 sealed segments survive for followers, with the active one.
	if got, want := segments(), before[len(before)-5:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Checkpoint the WAL holds %q, want the newest 4 sealed segments and the active one, %q", got, want)
	}
	step(8) // post-checkpoint tail, not in the snapshot
	preSeq := db1.WALSeq()

	// Crash, then restart from the snapshot: only the tail replays.
	db2, err := Open(saveDir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := db2.Metrics().Counters["stpq_ingest_replayed_total"]; got != 8 {
		t.Fatalf("replayed %d mutations after checkpoint, want 8", got)
	}
	if db2.WALSeq() != preSeq {
		t.Fatalf("WALSeq %d, want %d", db2.WALSeq(), preSeq)
	}
	rngQ := rand.New(rand.NewSource(5))
	assertSameTopK(t, "after checkpoint recovery", db2, shadow.oracle(t, cfg), rngQ)

	// The opened DB must accept further writes and still track the oracle
	// across a merge.
	muts := randomMutations(rng, shadow, 10)
	if err := db2.Apply(muts); err != nil {
		t.Fatalf("Apply on opened DB: %v", err)
	}
	for _, m := range muts {
		shadow.apply(m)
	}
	if err := db2.Flush(); err != nil {
		t.Fatalf("Flush on opened DB: %v", err)
	}
	assertSameTopK(t, "opened DB after apply+flush", db2, shadow.oracle(t, cfg), rngQ)
}

// TestIngestErrorSurface pins the error contract of the write path.
func TestIngestErrorSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs, sets := ingestSeedData(rng, 50, 30)

	noWAL := buildIngestDB(t, Config{PageSize: 1024}, objs, sets)
	if err := noWAL.Apply([]Mutation{{Op: OpDeleteObject, ID: 1}}); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Apply without WAL: %v, want ErrNoWAL", err)
	}

	db := buildIngestDB(t, Config{PageSize: 1024, WALDir: t.TempDir()}, objs, sets)
	cases := []Mutation{
		{Op: "unknown_op"},
		{Op: OpUpsertObject},               // missing object
		{Op: OpUpsertFeature, Set: "food"}, // missing feature
		{Op: OpUpsertFeature, Set: "nope", Feature: &Feature{ID: 1, Score: 0.5}},
		{Op: OpDeleteFeature, Set: "nope", ID: 1},
		{Op: OpUpsertFeature, Set: "food", Feature: &Feature{ID: 1, Score: 1.5}},
	}
	for i, m := range cases {
		if err := db.Apply([]Mutation{m}); !errors.Is(err, ErrInvalidMutation) {
			t.Fatalf("case %d: err = %v, want ErrInvalidMutation", i, err)
		}
	}
	if _, err := db.AttachWAL(t.TempDir()); !errors.Is(err, ErrWALAttached) {
		t.Fatalf("double attach: %v, want ErrWALAttached", err)
	}
	// Save with unmerged mutations must refuse rather than lose the delta.
	if err := db.Apply([]Mutation{{Op: OpDeleteObject, ID: 0}}); err != nil {
		t.Fatal(err)
	}
	if db.PendingOps() == 0 {
		t.Skip("delta merged eagerly; save-refusal path not reachable")
	}
	if err := db.Save(t.TempDir()); err == nil {
		t.Fatal("Save with pending delta succeeded; want refusal")
	}

	sharded := New(Config{ShardCount: 2, PageSize: 1024})
	sharded.AddObjects(objs)
	for name, fs := range sets {
		sharded.AddFeatureSet(name, fs)
	}
	if err := sharded.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.AttachWAL(t.TempDir()); !errors.Is(err, ErrIngestUnsupported) {
		t.Fatalf("AttachWAL on sharded DB: %v, want ErrIngestUnsupported", err)
	}
}
