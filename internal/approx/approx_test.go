package approx

// approx_test.go pins the fast tier's invariants: signatures are
// deterministic (the cross-process/shard agreement everything else builds
// on), the MinHash estimator tracks true Jaccard similarity, the recall →
// (bands, rows) mapping respects its clamps and verification threshold,
// and the holder builds its sketch lazily, once.

import (
	"errors"
	"math"
	"testing"

	"stpq/internal/kwset"
)

// setOf builds a keyword set wide enough for the given ids.
func setOf(ids ...int) kwset.Set {
	width := 1
	for _, id := range ids {
		if id >= width {
			width = id + 1
		}
	}
	s := kwset.NewSet(width)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestSignatureDeterministic(t *testing.T) {
	a := SignatureOf(setOf(1, 5, 9))
	b := SignatureOf(setOf(9, 1, 5))
	if a != b {
		t.Fatal("signature depends on insertion order")
	}
	// Width must not matter: the ids are the identity, not the bitmap size.
	w := kwset.NewSet(1024)
	w.Add(1)
	w.Add(5)
	w.Add(9)
	if SignatureOf(w) != a {
		t.Fatal("signature depends on set width")
	}
	var empty Signature
	for i := range empty {
		empty[i] = ^uint32(0)
	}
	if SignatureOf(kwset.NewSet(8)) != empty {
		t.Fatal("empty set signature must be all max")
	}
}

func TestEstimateJaccard(t *testing.T) {
	a := SignatureOf(setOf(0, 1, 2, 3))
	if j := EstimateJaccard(&a, &a); j != 1 {
		t.Fatalf("self similarity = %v, want 1", j)
	}
	b := SignatureOf(setOf(100, 101, 102, 103))
	if j := EstimateJaccard(&a, &b); j > 0.1 {
		t.Fatalf("disjoint similarity = %v, want ~0", j)
	}
	// Half-overlapping sets: J = 2/6 ≈ 0.33; the 128-hash estimate should
	// land within a few standard errors (√(J(1−J)/128) ≈ 0.042).
	c := SignatureOf(setOf(0, 1, 200, 201))
	if j := EstimateJaccard(&a, &c); math.Abs(j-1.0/3) > 0.15 {
		t.Fatalf("overlap estimate %v too far from 1/3", j)
	}
}

func TestParamsForRecall(t *testing.T) {
	cases := []struct {
		recall     float64
		rows       int
		skipVerify bool
	}{
		{0.5, 2, true},
		{0.75, 1, true},
		{0.9, 1, true},
		{0.95, 1, true},
		{0.99, 1, false},
		{1, 1, false},
	}
	prevBands := 0
	prevRows := 1
	for _, c := range cases {
		p := ParamsForRecall(c.recall)
		if p.Rows != c.rows {
			t.Errorf("recall %v: rows %d, want %d", c.recall, p.Rows, c.rows)
		}
		if p.SkipVerify != c.skipVerify {
			t.Errorf("recall %v: SkipVerify %v, want %v", c.recall, p.SkipVerify, c.skipVerify)
		}
		if p.Bands < 1 || p.Bands*p.Rows > SignatureLen {
			t.Errorf("recall %v: bands %d rows %d outside the signature", c.recall, p.Bands, p.Rows)
		}
		// Same row count → a higher target must not use fewer bands.
		if p.Rows == prevRows && p.Bands < prevBands {
			t.Errorf("recall %v: bands %d below previous %d", c.recall, p.Bands, prevBands)
		}
		prevBands, prevRows = p.Bands, p.Rows
		// The acceptance probability at the anchor similarity must reach
		// the target (unless the band clamp binds).
		accept := 1 - math.Pow(1-math.Pow(minCandidateSim, float64(p.Rows)), float64(p.Bands))
		if p.Bands < SignatureLen/p.Rows && accept < c.recall-1e-9 {
			t.Errorf("recall %v: acceptance %v below target", c.recall, accept)
		}
	}
	// Invalid targets take the default.
	for _, bad := range []float64{-1, 0, 1.5, math.NaN()} {
		if got, want := ParamsForRecall(bad), ParamsForRecall(DefaultRecall); got != want {
			t.Errorf("ParamsForRecall(%v) = %+v, want default %+v", bad, got, want)
		}
	}
}

func TestCandidateIdenticalAndDisjoint(t *testing.T) {
	p := ParamsForRecall(0.9)
	a := SignatureOf(setOf(3, 7, 11))
	if !p.Candidate(&a, &a) {
		t.Fatal("identical signatures must be candidates")
	}
	b := SignatureOf(setOf(500, 501, 502))
	if p.Candidate(&a, &b) {
		t.Fatal("disjoint small sets should not collide under 128 distinct minima")
	}
}

func TestSketchMaintenance(t *testing.T) {
	s := NewSketch()
	s.Put(1, setOf(1, 2, 3))
	sig, card, ok := s.Get(1)
	if !ok || card != 3 || sig != SignatureOf(setOf(1, 2, 3)) {
		t.Fatalf("Get after Put: ok=%v card=%d", ok, card)
	}
	s.Put(1, setOf(4))
	if _, card, _ := s.Get(1); card != 1 {
		t.Fatalf("Put must overwrite, card=%d", card)
	}
	if _, _, ok := s.Get(99); ok {
		t.Fatal("Get of an unsketched id")
	}
}

func TestHolderLazyAndSticky(t *testing.T) {
	h := NewHolder()
	builds := 0
	sk, err := h.Get(func() (*Sketch, error) {
		builds++
		return NewSketch(), nil
	})
	if err != nil || sk == nil {
		t.Fatalf("Get: %v", err)
	}
	if again, _ := h.Get(func() (*Sketch, error) {
		builds++
		return NewSketch(), nil
	}); again != sk || builds != 1 {
		t.Fatalf("build ran %d times", builds)
	}

	// Errors stick too: the failed build is not retried per query.
	boom := errors.New("boom")
	he := NewHolder()
	if _, err := he.Get(func() (*Sketch, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Get: %v", err)
	}
	if _, err := he.Get(func() (*Sketch, error) { t.Fatal("rebuilt"); return nil, nil }); !errors.Is(err, boom) {
		t.Fatalf("second Get: %v", err)
	}
}

// FuzzMinHashSignature checks, for arbitrary keyword id sets, that
// signatures are deterministic, self-similar, and band-agreement is
// symmetric and consistent with the signature equality it is defined by.
func FuzzMinHashSignature(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, 0.9)
	f.Add([]byte{}, []byte{7}, 0.5)
	f.Add([]byte{0, 0, 255}, []byte{0}, 0.99)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, recall float64) {
		idsOf := func(raw []byte) []int {
			ids := make([]int, 0, len(raw))
			for _, b := range raw {
				ids = append(ids, int(b))
			}
			return ids
		}
		a1 := SignatureOf(setOf(idsOf(rawA)...))
		a2 := SignatureOf(setOf(idsOf(rawA)...))
		if a1 != a2 {
			t.Fatal("signature not deterministic")
		}
		b := SignatureOf(setOf(idsOf(rawB)...))
		if EstimateJaccard(&a1, &a1) != 1 {
			t.Fatal("self estimate must be 1")
		}
		if j := EstimateJaccard(&a1, &b); j < 0 || j > 1 {
			t.Fatalf("estimate %v outside [0,1]", j)
		}
		p := ParamsForRecall(recall)
		if p.Bands < 1 || p.Rows < 1 || p.Bands*p.Rows > SignatureLen {
			t.Fatalf("params %+v outside the signature", p)
		}
		if p.Candidate(&a1, &b) != p.Candidate(&b, &a1) {
			t.Fatal("candidate test not symmetric")
		}
		if !p.Candidate(&a1, &a2) {
			t.Fatal("identical signatures must be candidates")
		}
		// A candidate has ≥ Rows agreeing positions, so its Jaccard
		// estimate is strictly positive.
		if p.Candidate(&a1, &b) && EstimateJaccard(&a1, &b) < float64(p.Rows)/SignatureLen {
			t.Fatal("candidate with estimate below the band floor")
		}
	})
}
