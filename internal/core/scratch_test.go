package core

import (
	"math/rand"
	"reflect"
	"testing"

	"stpq/internal/index"
)

// A released scratch must hold nothing of the query it served: descents
// stop with candidates still queued, and a leaf queued in
// groupAscendDistance's heap keeps, in its side slot, the keyword set of a
// node that may be evicted before the scratch is used again. The
// candidates themselves hold no pointer; the side slice must come back
// zeroed to its capacity. The buffers leave the scratch for a package pool
// that outlives the engine, so they must point at neither the engine nor
// the query either.
func TestReleasedScratchPinsNothing(t *testing.T) {
	if p := pointerPath(reflect.TypeOf(candidate{})); p != "" {
		t.Fatalf("candidate holds a pointer at %s: a queued one can pin what it points to", p)
	}
	used := false
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
		// The slice taken here shares its array with the scratch's; the
		// buffers leave the scratch at its release.
		dist, buf := sc.distRests, sc.queryBuffers
		used = used || len(dist) > 0
		w.engine.releaseSession(sess)
		if sc.queryBuffers != nil {
			t.Fatalf("%v: a released scratch keeps its buffers", variant)
		}
		if buf.cs.e != nil || buf.cs.q != nil || buf.stds.g != nil {
			t.Fatalf("%v: released buffers still point at the engine or the query they served", variant)
		}
		for _, st := range buf.cs.streams {
			if st.g != nil || st.pq != nil || st.spare != nil && st.spare.ctx != nil {
				t.Fatalf("%v: a released stream still points at its group or its query", variant)
			}
		}
		for i, lr := range dist[:cap(dist)] {
			if !reflect.ValueOf(lr).IsZero() {
				t.Fatalf("%v: dist side slot %d of a released scratch still holds %+v", variant, i, lr)
			}
		}
		for i, ve := range buf.cs.heap[:cap(buf.cs.heap)] {
			if ve.vec != nil {
				t.Fatalf("%v: combination heap slot %d of a released scratch still holds a vector", variant, i)
			}
		}
	}
	if !used {
		t.Error("no query left a leaf in the dist side slice; the test shows nothing there")
	}
}

// pointerPath returns the path to the first field of t that holds a
// pointer, or "" if none does.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return t.Field(i).Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		if p := pointerPath(t.Elem()); p != "" {
			return "[]." + p
		}
		return ""
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return t.Kind().String()
}
