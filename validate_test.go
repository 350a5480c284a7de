package stpq

// validate_test.go pins ValidateQuery's sentinel behavior table-driven: each
// rejected query must wrap the exact sentinel error so callers can branch
// with errors.Is, and every enum must accept exactly its defined range.

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestValidateQueryTable(t *testing.T) {
	sets := []string{"food", "cafes"}
	valid := Query{
		K: 5, Radius: 0.1, Lambda: 0.5,
		Keywords: map[string][]string{"food": {"pizza"}},
	}
	mod := func(f func(*Query)) Query {
		q := valid
		f(&q)
		return q
	}
	cases := []struct {
		name string
		q    Query
		want error // nil = must validate
	}{
		{"valid default", valid, nil},
		{"valid stds", mod(func(q *Query) { q.Algorithm = STDS }), nil},
		{"valid nn zero radius", mod(func(q *Query) { q.Variant = NearestNeighbor; q.Radius = 0 }), nil},
		{"valid overlap sim", mod(func(q *Query) { q.Similarity = OverlapSim }), nil},
		{"zero k", mod(func(q *Query) { q.K = 0 }), ErrInvalidQuery},
		{"negative k", mod(func(q *Query) { q.K = -1 }), ErrInvalidQuery},
		{"variant below range", mod(func(q *Query) { q.Variant = Variant(-1) }), ErrInvalidQuery},
		{"variant past nn", mod(func(q *Query) { q.Variant = NearestNeighbor + 1 }), ErrInvalidQuery},
		{"algorithm below stps", mod(func(q *Query) { q.Algorithm = Algorithm(-1) }), ErrInvalidQuery},
		{"algorithm past stds", mod(func(q *Query) { q.Algorithm = STDS + 1 }), ErrInvalidQuery},
		{"algorithm 9", mod(func(q *Query) { q.Algorithm = Algorithm(9) }), ErrInvalidQuery},
		{"similarity past overlap", mod(func(q *Query) { q.Similarity = OverlapSim + 1 }), ErrInvalidQuery},
		{"negative radius", mod(func(q *Query) { q.Radius = -0.1 }), ErrInvalidQuery},
		{"zero radius non-nn", mod(func(q *Query) { q.Radius = 0 }), ErrInvalidQuery},
		{"lambda below 0", mod(func(q *Query) { q.Lambda = -0.1 }), ErrInvalidQuery},
		{"lambda above 1", mod(func(q *Query) { q.Lambda = 1.1 }), ErrInvalidQuery},
		{"lambda NaN", mod(func(q *Query) { q.Lambda = math.NaN() }), ErrInvalidQuery},
		{"radius NaN", mod(func(q *Query) { q.Radius = math.NaN() }), ErrInvalidQuery},
		{"nn radius NaN", mod(func(q *Query) { q.Variant = NearestNeighbor; q.Radius = math.NaN() }), ErrInvalidQuery},
		{"unknown feature set", mod(func(q *Query) {
			q.Keywords = map[string][]string{"bars": {"beer"}}
		}), ErrUnknownFeatureSet},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateQuery(c.q, sets)
			if c.want == nil {
				if err != nil {
					t.Fatalf("ValidateQuery: unexpected error %v", err)
				}
				return
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("ValidateQuery: got %v, want sentinel %v", err, c.want)
			}
		})
	}
}

// TestTopKRejectsNaN: a NaN λ or radius is refused before the engine runs.
// Every comparison with NaN is false, so the range tests once let both
// through: a NaN λ never let a query stop (range, influence and NN alike),
// and a NaN radius answered a range query with the first k objects at one
// score.
func TestTopKRejectsNaN(t *testing.T) {
	db := concDB(t, Config{}, 1000, 1000)
	nan := math.NaN()
	for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
		for _, q := range []Query{{K: 5, Radius: 0.1, Lambda: nan}, {K: 5, Radius: nan, Lambda: 0.5}} {
			q.Variant = variant
			q.Keywords = map[string][]string{"restaurants": {"kw1"}, "cafes": {"kw2"}}
			done := make(chan error, 1)
			go func() {
				_, _, err := db.TopK(q)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrInvalidQuery) {
					t.Errorf("%s λ %v radius %v: err = %v, want ErrInvalidQuery", variantName(variant), q.Lambda, q.Radius, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s λ %v radius %v: TopK has not returned after 10 s", variantName(variant), q.Lambda, q.Radius)
			}
		}
	}
}
