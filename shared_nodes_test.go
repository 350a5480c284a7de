package stpq

// shared_nodes_test.go checks the contract the decoded-node slots of the
// buffer pools rest on: the *rtree.Node a pool hands to every reader is
// never written, whatever runs against the DB.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// nodeDigest hashes everything reachable from a decoded node.
func nodeDigest(n *rtree.Node) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(n.Entries)))
	if n.Leaf {
		word(1)
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		for _, f := range []float64{e.Rect.Min.X, e.Rect.Min.Y, e.Rect.Max.X, e.Rect.Max.Y, e.Score} {
			word(math.Float64bits(f))
		}
		word(uint64(e.Child))
		word(uint64(e.ItemID))
		if e.Leaf {
			word(1)
		}
		word(uint64(e.Keywords.Width()))
		word(uint64(e.Keywords.Count()))
		for _, w := range e.Keywords.WordsBits() {
			word(w)
		}
	}
	return h.Sum64()
}

// cachedNode is one resident node as a checker saw it.
type cachedNode struct {
	tree   *rtree.Tree
	page   storage.PageID
	node   *rtree.Node
	digest uint64
}

// cachedNodes reads every page of every base tree of the DB.
func cachedNodes(t *testing.T, db *DB) []cachedNode {
	t.Helper()
	trees := []*rtree.Tree{soleObjects(db.base).Tree()}
	for _, g := range db.base.FeatureGroups() {
		for _, part := range g.Parts() {
			trees = append(trees, part.Tree())
		}
	}
	var out []cachedNode
	for _, tr := range trees {
		pages := []storage.PageID{tr.Root()}
		for i := 0; i < len(pages); i++ {
			n, err := tr.Node(pages[i])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cachedNode{tr, pages[i], n, nodeDigest(n)})
			if n.Leaf {
				continue
			}
			for j := range n.Entries {
				pages = append(pages, n.Entries[j].Child)
			}
		}
	}
	return out
}

// TestSharedNodesNeverWritten runs goroutines × queries — both algorithms,
// all three variants, through an ingest overlay whose tombstones make the
// base trees filter their leaves — against one DB whose pools hold every
// page, hashing every cached node before and after. The pools never evict
// here, so afterwards each page must still hand out the very same node
// with the very same content. Under -race a write to a shared node would
// also be reported as racing the other goroutines' reads.
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
		before := cachedNodes(t, db)

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

		after := cachedNodes(t, db)
		if len(after) != len(before) {
			t.Fatalf("kind %d: %d pages before, %d after", kind, len(before), len(after))
		}
		for i, b := range before {
			a := after[i]
			if a.page != b.page || a.node != b.node {
				t.Fatalf("kind %d: page %d was decoded again although its pool never evicts", kind, b.page)
			}
			if a.digest != b.digest {
				t.Fatalf("kind %d: the shared node of page %d was written", kind, b.page)
			}
		}
		if err := db.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}
