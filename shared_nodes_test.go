package stpq

// shared_nodes_test.go checks the contract every reader rests on: the
// page images the buffer pools hand out, which all readers scan in place,
// are never written, whatever runs against the DB.

import (
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// cachedPage is one resident page as a checker saw it.
type cachedPage struct {
	tree   *rtree.Tree
	page   storage.PageID
	digest uint64
}

// cachedPages reads every page of every base tree of the DB.
func cachedPages(t *testing.T, db *DB) []cachedPage {
	t.Helper()
	trees := []*rtree.Tree{soleObjects(db.base).Tree()}
	for _, g := range db.base.FeatureGroups() {
		for _, part := range g.Parts() {
			trees = append(trees, part.Tree())
		}
	}
	var out []cachedPage
	for _, tr := range trees {
		pages := []storage.PageID{tr.Root()}
		for i := 0; i < len(pages); i++ {
			data, err := tr.Pool().Get(pages[i])
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			out = append(out, cachedPage{tr, pages[i], h.Sum64()})
			v, err := tr.View(pages[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < v.Len() && !v.Leaf(); j++ {
				pages = append(pages, v.Child(j))
			}
		}
	}
	return out
}

// TestSharedNodesNeverWritten runs goroutines × queries — both algorithms,
// all three variants, through an ingest overlay whose tombstones make the
// base trees hide some of their leaf slots — against one DB, hashing every
// page image before and after: each must hold the very same bytes. Under
// -race a write to a shared page would also be reported as racing the
// other goroutines' reads.
func TestSharedNodesNeverWritten(t *testing.T) {
	for _, kind := range []IndexKind{SRT, IR2} {
		db := concDB(t, Config{IndexKind: kind, WALDir: t.TempDir(), AutoFlushOps: -1}, 600, 600)
		var muts []Mutation
		for id := int64(1); id <= 40; id++ {
			muts = append(muts, Mutation{Op: OpDeleteObject, ID: id * 7})
			muts = append(muts, Mutation{Op: OpDeleteFeature, Set: "restaurants", ID: id * 5})
		}
		muts = append(muts, Mutation{Op: OpUpsertObject, Object: &Object{ID: 9001, X: 0.5, Y: 0.5}})
		if err := db.Apply(muts); err != nil {
			t.Fatal(err)
		}
		before := cachedPages(t, db)

		var qs []Query
		for _, alg := range []Algorithm{STPS, STDS} {
			for _, q := range concQueries() {
				q.Algorithm = alg
				qs = append(qs, q)
			}
		}
		want := make([][]Result, len(qs))
		for i, q := range qs {
			var err error
			if want[i], _, err = db.TopK(q); err != nil {
				t.Fatal(err)
			}
		}
		const goroutines = 6
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := range qs {
					i := (g*5 + r) % len(qs)
					got, _, err := db.TopK(qs[i])
					if err != nil {
						t.Errorf("goroutine %d query %d: %v", g, i, err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d query %d: concurrent results differ", g, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()

		after := cachedPages(t, db)
		if len(after) != len(before) {
			t.Fatalf("kind %d: %d pages before, %d after", kind, len(before), len(after))
		}
		for i, b := range before {
			a := after[i]
			if a.tree != b.tree || a.page != b.page || a.digest != b.digest {
				t.Fatalf("kind %d: the shared image of page %d was written", kind, b.page)
			}
		}
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}
