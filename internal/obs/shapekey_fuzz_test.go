package obs

// shapekey_fuzz_test.go pins the two properties EXPLAIN's predictions and
// the persisted statistics lean on:
//
//   - ShapeKey.String is injective over real keys (distinct keys never
//     collide on one label) and stable (equal keys always intern to the
//     same label), across the full RBucket range including the exp2
//     over/underflow fallback and the NN no-radius sentinel.
//   - Export/Import round-trips the statistics exactly, so a DB reloaded
//     from shapes.json predicts what the saved process predicted.

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// fuzz enum vocabularies: the only values real keys ever carry.
var (
	fuzzAlgs     = []string{"stps", "stds", "auto"}
	fuzzVariants = []string{"range", "influence", "nn"}
	fuzzSims     = []string{"jaccard", "dice", "cosine", "overlap"}
)

// keyFrom maps arbitrary fuzz bytes onto a well-formed ShapeKey.
func keyFrom(a, v, s uint8, k int, rb int64, sets uint8) ShapeKey {
	rbucket := int(rb)
	if rb%5 == 0 {
		rbucket = math.MinInt32 // the NN sentinel, often
	}
	return ShapeKey{
		Alg:     fuzzAlgs[int(a)%len(fuzzAlgs)],
		Variant: fuzzVariants[int(v)%len(fuzzVariants)],
		Sim:     fuzzSims[int(s)%len(fuzzSims)],
		K:       k,
		RBucket: rbucket,
		Sets:    int(sets),
	}
}

func FuzzShapeKeyString(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), 10, int64(-13), uint8(2),
		uint8(1), uint8(1), uint8(1), 10, int64(-12), uint8(2))
	// Adjacent buckets: the √2 spacing is what keeps 3-digit previews apart.
	f.Add(uint8(0), uint8(0), uint8(0), 10, int64(100), uint8(1),
		uint8(0), uint8(0), uint8(0), 10, int64(101), uint8(1))
	// exp2 overflow and underflow: both sides of the "r#" fallback.
	f.Add(uint8(0), uint8(0), uint8(0), 1, int64(4000), uint8(1),
		uint8(0), uint8(0), uint8(0), 1, int64(4001), uint8(1))
	f.Add(uint8(0), uint8(0), uint8(0), 1, int64(-4000), uint8(1),
		uint8(0), uint8(0), uint8(0), 1, int64(-4001), uint8(1))
	// Sentinel vs a deeply negative real bucket.
	f.Add(uint8(0), uint8(2), uint8(0), 5, int64(math.MinInt32), uint8(1),
		uint8(0), uint8(2), uint8(0), 5, int64(math.MinInt32+1), uint8(1))
	f.Fuzz(func(t *testing.T, a1, v1, s1 uint8, k1 int, rb1 int64, sets1 uint8,
		a2, v2, s2 uint8, k2 int, rb2 int64, sets2 uint8) {
		k1 &= 0xFFFF // keep K in a realistic range, sign included
		k2 &= 0xFFFF
		ka := keyFrom(a1, v1, s1, k1, rb1, sets1)
		kb := keyFrom(a2, v2, s2, k2, rb2, sets2)
		sa, sb := ka.String(), kb.String()
		if ka == kb && sa != sb {
			t.Fatalf("equal keys rendered differently: %q vs %q", sa, sb)
		}
		if ka != kb && sa == sb {
			t.Fatalf("distinct keys collided on %q: %+v vs %+v", sa, ka, kb)
		}
		// Interning stability: the table must hand back the identical label
		// for the same key, every time.
		st := NewShapeStats()
		if n1, n2 := st.Name(ka), st.Name(ka); n1 != n2 || n1 != sa {
			t.Fatalf("interning unstable: %q then %q (String %q)", n1, n2, sa)
		}
	})
}

func TestShapeStatsExportImportRoundTrip(t *testing.T) {
	src := NewShapeStats()
	k1 := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.01), Sets: 2}
	k2 := ShapeKey{Alg: "stds", Variant: "nn", Sim: "dice", K: 5, RBucket: RadiusBucket(0), Sets: 1}
	for i := 0; i < 4; i++ {
		src.Observe(k1, time.Millisecond, 100*time.Microsecond, 10, 2, 7)
	}
	src.Observe(k2, 3*time.Millisecond, 0, 5, 1, 3)

	recs := src.Export()
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want 2", len(recs))
	}

	dst := NewShapeStats()
	dst.Import(recs)
	// Every shape's profile, above the sample floor (k1) or below it (k2).
	if want, got := src.Rows(), dst.Rows(); !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip rows %+v, want %+v", got, want)
	}
	wantP, _ := src.Predict(k1)
	gotP, _ := dst.Predict(k1)
	if wantP == nil || gotP == nil {
		t.Fatalf("predictions nil after round trip: %v %v", wantP, gotP)
	}
	if *wantP != *gotP {
		t.Fatalf("prediction round trip: %+v, want %+v", *gotP, *wantP)
	}

	// Import into a warm table merges rather than replaces.
	dst.Import(recs)
	if _, n := dst.Predict(k1); n != 8 {
		t.Fatalf("double import: %d samples, want 8", n)
	}

	// Records with no samples are ignored — a hand-edited or truncated
	// shapes.json must not poison the means with divide-by-zero garbage.
	dst2 := NewShapeStats()
	dst2.Import([]ShapeRecord{{Key: k1, Samples: 0, DurationNanos: 999}})
	if _, n := dst2.Predict(k1); n != 0 {
		t.Fatalf("zero-sample record imported: %d samples", n)
	}
}

// TestShapeKeyModeDimension pins that the shape key has no execution-mode
// dimension: its JSON is byte-identical to the format every shapes.json
// has been written in, and a saved record lands on the live key's
// statistics instead of forking them.
func TestShapeKeyModeDimension(t *testing.T) {
	exact := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.01), Sets: 2}
	data, err := json.Marshal(exact)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"Alg":"stps","Variant":"range","Sim":"jaccard","K":10,"RBucket":-13,"Sets":2}` {
		t.Fatalf("key JSON changed shape: %s", data)
	}

	st := NewShapeStats()
	st.Observe(exact, time.Millisecond, 0, 10, 2, 5)
	var old ShapeRecord
	if err := json.Unmarshal([]byte(`{"Key":`+string(data)+`,"Samples":3,"DurationNanos":3000000}`), &old); err != nil {
		t.Fatal(err)
	}
	st.Import([]ShapeRecord{old})
	if _, n := st.Predict(exact); n != 4 {
		t.Fatalf("saved record did not merge into the live key: %d samples", n)
	}
}
