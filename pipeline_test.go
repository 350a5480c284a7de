package stpq

// pipeline_test.go pins the one query pipeline (prepare.go) from the
// library side: what DB.TopK allocates above the engine, the single shape
// key, one event per query whichever handle it arrives by, and that a DB
// saved before eleven of its Config fields were removed still opens.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stpq/internal/rtree"
)

// TestAllocsTopKPipeline: DB.TopK (snapshot, Prepare, engine, metrics,
// event record, result conversion) on the paper's worked example. The
// budget is what the same call allocated before Prepare existed, when five
// entry points each lowered the query on their own; the pipeline may lower
// it, not raise it.
func TestAllocsTopKPipeline(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops scratches at random under the race detector")
	}
	const budget = 26
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)
	for i := 0; i < 5; i++ { // fill the scratch pool, the shape and metric tables
		if _, _, err := db.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, err := db.TopK(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("DB.TopK allocs/op = %v, budget %d", allocs, budget)
	}
}

// TestShapeKeyIgnoresUnusedRadius: nearest-neighbour queries ignore Radius,
// so two that differ only in it are one shape — one planner row, one
// /debug/shapes row — while range queries keep their radius bucket.
func TestShapeKeyIgnoresUnusedRadius(t *testing.T) {
	near, far := paperQuery(3, STPS), paperQuery(3, STPS)
	near.Radius, far.Radius = 0.01, 0.5
	if QueryShape(near) == QueryShape(far) {
		t.Error("range queries with radii 0.01 and 0.5 share a shape")
	}
	near.Variant, far.Variant = NearestNeighbor, NearestNeighbor
	if a, b := QueryShape(near), QueryShape(far); a != b {
		t.Errorf("NN shapes differ by the unused radius: %v vs %v", a, b)
	}
	db := paperDB(t, Config{})
	for _, q := range []Query{near, far} {
		if _, _, err := db.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	if rows := db.QueryShapes(); len(rows) != 1 || rows[0].Samples != 2 {
		t.Errorf("two NN queries differing in radius recorded as %+v, want one row of 2 samples", rows)
	}
}

// TestShapeKeyCountsNormalizedKeywordLists: Sets counts the keyword lists
// that still hold a keyword after normalization, whether or not the
// vocabulary knows it — the definition a coordinator without a vocabulary
// can share.
func TestShapeKeyCountsNormalizedKeywordLists(t *testing.T) {
	q := paperQuery(3, STPS)
	q.Keywords = map[string][]string{
		"restaurants":  {"  ", ""},       // nothing after normalization
		"coffeehouses": {"no-such-word"}, // unknown, but a keyword
	}
	if got := QueryShape(q).Sets; got != 1 {
		t.Errorf("Sets = %d, want 1", got)
	}
}

// TestOneEventPerQuery: a logical query leaves exactly one event record,
// carrying its request ID and the shape Prepare derived, whether it arrives
// by DB.TopK, by Snapshot.TopK, over four shards or over a pending delta.
// (The serving layer and a cluster replica are covered where they live:
// internal/cluster's TestOneEventPerServedQuery.)
func TestOneEventPerQuery(t *testing.T) {
	run := func(name string, db *DB, topK func(Query) ([]Result, Stats, error)) {
		t.Helper()
		q := paperQuery(3, STPS)
		q.RequestID = "req-" + name
		before := len(db.RecentQueries(0))
		if _, _, err := topK(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		evs := db.RecentQueries(0)
		if len(evs)-before != 1 {
			t.Fatalf("%s: %d events for one query", name, len(evs)-before)
		}
		if want := QueryShape(q).String(); evs[0].RequestID != q.RequestID || evs[0].Shape != want {
			t.Errorf("%s: event (%q, %q), want (%q, %q)", name, evs[0].RequestID, evs[0].Shape, q.RequestID, want)
		}
	}
	plain := paperDB(t, Config{})
	run("db", plain, plain.TopK)
	snap, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	run("snapshot", plain, snap.TopK)

	sharded := paperDB(t, Config{ShardCount: 4})
	run("sharded", sharded, sharded.TopK)

	live := paperDB(t, Config{WALDir: t.TempDir()})
	if err := live.Apply([]Mutation{{Op: OpUpsertObject, Object: &Object{ID: 99, X: 0.6, Y: 0.55}}}); err != nil {
		t.Fatal(err)
	}
	if live.PendingOps() == 0 {
		t.Fatal("mutation did not land in the delta")
	}
	run("overlay", live, live.TopK)
}

// TestOpenParentManifest opens a directory Save wrote at commit 8b49ca3 —
// the whole 30-field Config as JSON, the ten since-removed keys present and
// set, and a shapes.json of per-shape statistics, which Open ignores — and
// gets the same answers as a fresh build. A copy whose manifest turns on
// CacheVoronoiCells, the eleventh key removed since (every engine keeps its
// cells now), opens and answers the same. SignatureBits, the twelfth, is
// there at 0 and ignored like the rest.
func TestOpenParentManifest(t *testing.T) {
	const parent = "testdata/parent-8b49ca3"
	cached := t.TempDir()
	for _, name := range []string{"features_0.pages", "features_1.pages", "objects.pages", "shapes.json", "stpq.json"} {
		data, err := os.ReadFile(filepath.Join(parent, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "stpq.json" {
			on := bytes.Replace(data, []byte(`"CacheVoronoiCells": false`), []byte(`"CacheVoronoiCells": true`), 1)
			if bytes.Equal(on, data) {
				t.Fatal("the parent manifest has no CacheVoronoiCells key to turn on")
			}
			data = on
		}
		if err := os.WriteFile(filepath.Join(cached, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := paperDB(t, Config{})
	for _, dir := range []string{parent, cached} {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rows := db.QueryShapes(); len(rows) != 0 {
			t.Errorf("%s: the parent's shapes.json was imported: %+v", dir, rows)
		}
		for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
			q := paperQuery(4, STPS)
			q.Variant = variant
			want, _, err := fresh.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := db.TopK(q)
			if err != nil {
				t.Fatalf("%s, variant %v: %v", dir, variant, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, variant %v: got %v, want %v", dir, variant, got, want)
			}
		}
		if got := db.cfg.BufferPages; got != 64 {
			t.Errorf("%s: surviving Config field BufferPages = %d, want 64", dir, got)
		}
		// Its feature trees, written before the pair signatures, were
		// rebuilt at Open: saved again, they are in the current layout, and
		// the DB reopened from that answers the same.
		resaved := t.TempDir()
		if err := db.Save(resaved); err != nil {
			t.Fatal(err)
		}
		js, err := os.ReadFile(filepath.Join(resaved, "stpq.json"))
		if err != nil {
			t.Fatal(err)
		}
		var man dbManifest
		if err := json.Unmarshal(js, &man); err != nil {
			t.Fatal(err)
		}
		for i, m := range man.Features {
			if m.PairBits != rtree.PairSigBits || m.LevelBits != rtree.ScoreLevelBits || !m.PairTokens {
				t.Errorf("%s: re-saved feature set %d as %+v", dir, i, m)
			}
		}
		again, err := Open(resaved)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, dir+" re-saved", again, db)
	}
}
