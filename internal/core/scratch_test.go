package core

import (
	"math/rand"
	"reflect"
	"testing"

	"stpq/internal/index"
)

// A released scratch must hold nothing of the query it served: descents
// stop with candidates still queued, and a queued leaf carries the keyword
// set of a node that may be evicted before the scratch is used again.
func TestReleasedScratchPinsNothing(t *testing.T) {
	w := buildWorld(t, 905, 400, 200, 2, 16, index.SRT, Options{BatchSTDS: true})
	rng := rand.New(rand.NewSource(906))
	for _, variant := range []Variant{RangeScore, InfluenceScore, NearestNeighborScore} {
		q := w.randQuery(rng, 2, variant)
		sess := w.engine.session()
		sc := sess.scratch
		if sc == nil {
			t.Fatal("engine built by NewEngine has no scratch pool")
		}
		// Queries run on a session do not release it, so the scratch can be
		// inspected on both sides of the release.
		if _, _, err := sess.STPS(q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.STDS(q); err != nil {
			t.Fatal(err)
		}
		queued := len(sc.bound) + len(sc.dist) + len(sc.cs.heap)
		for _, st := range sc.cs.streams {
			queued += len(st.heap)
		}
		if queued == 0 {
			t.Fatalf("%v: no candidate left queued; the test shows nothing", variant)
		}
		w.engine.releaseSession(sess)
		heaps := [][]candidate{sc.bound, sc.dist}
		for _, st := range sc.cs.streams {
			heaps = append(heaps, st.heap)
		}
		for hi, h := range heaps {
			for i, c := range h[:cap(h)] {
				if !reflect.ValueOf(c).IsZero() {
					t.Fatalf("%v: heap %d slot %d of a released scratch still holds %+v", variant, hi, i, c)
				}
			}
		}
		for i, ve := range sc.cs.heap[:cap(sc.cs.heap)] {
			if ve.vec != nil {
				t.Fatalf("%v: combination heap slot %d of a released scratch still holds a vector", variant, i)
			}
		}
	}
}
