package stpq

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := paperDB(t, Config{})
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	// The manifest and page dumps must exist.
	for _, name := range []string{"stpq.json", "objects.pages", "features_0.pages", "features_1.pages"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Same answers, same scores, for every variant and both algorithms.
	for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
		for _, alg := range []Algorithm{STPS, STDS} {
			q := paperQuery(4, alg)
			q.Variant = variant
			want, _, err := db.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := reopened.TopK(q)
			if err != nil {
				t.Fatalf("variant %v alg %v: %v", variant, alg, err)
			}
			if len(got) != len(want) {
				t.Fatalf("variant %v: %d vs %d results", variant, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
					t.Fatalf("variant %v rank %d: got (%d, %v), want (%d, %v)",
						variant, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
	}
	// Feature set names and keyword statistics survive.
	names := reopened.FeatureSetNames()
	if len(names) != 2 || names[0] != "restaurants" {
		t.Fatalf("names = %v", names)
	}
	stats, err := reopened.KeywordStats("restaurants")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stats {
		if s.Keyword == "pizza" && s.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("keyword stats lost after reopen")
	}
	// Selectivity too.
	sel, err := reopened.Selectivity("restaurants", []string{"pizza", "italian"})
	if err != nil || math.Abs(sel-3.0/8.0) > 1e-12 {
		t.Fatalf("selectivity after reopen = %v, %v", sel, err)
	}
}

func TestSaveValidation(t *testing.T) {
	if err := New(Config{}).Save(t.TempDir()); err == nil {
		t.Error("Save before Build must fail")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open of empty dir must fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stpq.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open with corrupt manifest must fail")
	}
	if err := os.WriteFile(filepath.Join(dir, "stpq.json"), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open with unknown version must fail")
	}
}

func TestOpenedDBIsQueryOnly(t *testing.T) {
	dir := t.TempDir()
	db := paperDB(t, Config{})
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Build(); err == nil {
		t.Error("Build on an opened DB must fail")
	}
}

// TestOpenIgnoresShapesFile: per-shape statistics live only as long as
// the process. Save writes no shapes.json; a directory that holds one —
// an older Save wrote it, or it is corrupt — opens with empty statistics
// and the saved answers; and Save and Checkpoint leave the file as it is.
func TestOpenIgnoresShapesFile(t *testing.T) {
	dir := t.TempDir()
	db := paperDB(t, Config{})
	if _, _, err := db.TopK(paperQuery(4, STPS)); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	shapes := filepath.Join(dir, "shapes.json")
	if _, err := os.Stat(shapes); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Save wrote shape statistics (stat error %v)", err)
	}
	corrupt := []byte("{not json")
	if err := os.WriteFile(shapes, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a corrupt shapes.json: %v", err)
	}
	if rows := reopened.QueryShapes(); len(rows) != 0 {
		t.Fatalf("reopened DB reports shapes it never ran: %+v", rows)
	}
	sameAnswers(t, "beside a corrupt shapes.json", reopened, db)
	if err := reopened.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.AttachWAL(filepath.Join(t.TempDir(), "wal")); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(shapes); err != nil || string(got) != string(corrupt) {
		t.Fatalf("Save and Checkpoint touched shapes.json: %q, %v", got, err)
	}
}

// sameAnswers fails unless both DBs give bit-equal answers for every
// variant under both algorithms.
func sameAnswers(t *testing.T, tag string, got, want *DB) {
	t.Helper()
	for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
		for _, alg := range []Algorithm{STPS, STDS} {
			q := paperQuery(4, alg)
			q.Variant = variant
			w, _, err := want.TopK(q)
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := got.TopK(q)
			if err != nil {
				t.Fatalf("%s: variant %v alg %v: %v", tag, variant, alg, err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: variant %v alg %v: got %v, want %v", tag, variant, alg, g, w)
			}
		}
	}
}

// TestSaveShardedKeepsPreviousManifest: a sharded Save that fails at a page
// dump — a directory squats on the dump's path — must leave the DB the
// directory held before openable. Dumps go first, then shards.json, then
// stpq.json, so the manifest Open starts from still describes the old
// files.
func TestSaveShardedKeepsPreviousManifest(t *testing.T) {
	dir := t.TempDir()
	plain := paperDB(t, Config{})
	if err := plain.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "objects_shard00.pages"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := paperDB(t, Config{ShardCount: 2}).Save(dir); err == nil {
		t.Fatal("Save wrote a page dump over a directory")
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("the failed Save broke the saved DB: %v", err)
	}
	if n := mustSnapshot(t, reopened).NumShards(); n != 1 {
		t.Fatalf("reopened DB has %d shards, want the unsharded one saved first", n)
	}
	sameAnswers(t, "after a failed sharded Save", reopened, plain)
}

// TestOpenParentShardedManifest opens a three-shard directory Save wrote at
// commit c749916 — before the shards became parts of one engine — and gets
// a fresh build's answers: stpq.json, shards.json and the page dumps are
// read unchanged.
func TestOpenParentShardedManifest(t *testing.T) {
	db, err := Open("testdata/parent-c749916-sharded")
	if err != nil {
		t.Fatal(err)
	}
	if rows := db.QueryShapes(); len(rows) != 0 {
		t.Errorf("the parent's shapes.json was imported: %+v", rows)
	}
	if n := mustSnapshot(t, db).NumShards(); n != 3 {
		t.Fatalf("%d shards, want 3", n)
	}
	sameAnswers(t, "parent's sharded save", db, paperDB(t, Config{}))
	sameAnswers(t, "parent's sharded save", db, paperDB(t, Config{ShardCount: 3}))
	// Saved again, it reads back the same.
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "re-saved", again, db)
}

func mustSnapshot(t *testing.T, db *DB) *Snapshot {
	t.Helper()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
