package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stpq/internal/geo"
	"stpq/internal/index"
)

// drainCombinations pulls up to limit combinations from a fresh stream,
// never telling it a floor.
func drainCombinations(t *testing.T, w *testWorld, q Query, limit int) []combination {
	t.Helper()
	var stats Stats
	cs, err := newCombinationStream(w.engine, &q, &stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []combination
	for len(out) < limit {
		comb, ok, err := cs.next(negInf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// refs are backed by the stream's reusable buffer and only valid
		// until the next next() call; snapshot them for later inspection.
		comb.refs = append([]featureRef(nil), comb.refs...)
		out = append(out, comb)
	}
	return out
}

// Combinations must be emitted in non-increasing score order — the
// foundation of STPS correctness (Section 6.3, thresholding scheme).
func TestCombinationOrderMonotone(t *testing.T) {
	w := buildWorld(t, 300, 50, 150, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 5; trial++ {
		q := w.randQuery(rng, 2, RangeScore)
		combos := drainCombinations(t, w, q, 200)
		for i := 1; i < len(combos); i++ {
			if combos[i].score > combos[i-1].score+1e-9 {
				t.Fatalf("trial %d: combination %d score %v exceeds previous %v",
					trial, i, combos[i].score, combos[i-1].score)
			}
		}
		if len(combos) == 0 {
			t.Fatal("no combinations emitted")
		}
	}
}

// With the pair filter enabled, every emitted combination must satisfy
// Definition 4: pairwise distance at most 2r among concrete features.
func TestCombinationValidity(t *testing.T) {
	w := buildWorld(t, 302, 50, 150, 3, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(303))
	q := w.randQuery(rng, 3, RangeScore)
	q.Radius = 0.05
	combos := drainCombinations(t, w, q, 300)
	for _, c := range combos {
		for i := 0; i < len(c.refs); i++ {
			if c.refs[i].virtual {
				continue
			}
			for j := i + 1; j < len(c.refs); j++ {
				if c.refs[j].virtual {
					continue
				}
				d := c.refs[i].loc.Dist(c.refs[j].loc)
				if d > 2*q.Radius+1e-12 {
					t.Fatalf("invalid combination: pair distance %v > 2r=%v", d, 2*q.Radius)
				}
			}
		}
	}
}

// The combination score must equal the sum of its member scores.
func TestCombinationScoreIsSum(t *testing.T) {
	w := buildWorld(t, 304, 50, 100, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(305))
	q := w.randQuery(rng, 2, RangeScore)
	combos := drainCombinations(t, w, q, 100)
	for _, c := range combos {
		sum := 0.0
		for _, ref := range c.refs {
			sum += ref.score
		}
		if math.Abs(sum-c.score) > 1e-12 {
			t.Fatalf("score %v != member sum %v", c.score, sum)
		}
	}
}

// The first emitted combination must be the global best: the top feature
// of each set when they are mutually within 2r — verified against an
// exhaustive enumeration over all feature pairs.
func TestFirstCombinationIsGlobalBest(t *testing.T) {
	w := buildWorld(t, 306, 50, 120, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 5; trial++ {
		q := w.randQuery(rng, 2, RangeScore)
		combos := drainCombinations(t, w, q, 1)
		if len(combos) == 0 {
			t.Fatal("no combinations")
		}
		got := combos[0].score
		want := bruteBestComboScore(t, w, q)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: first combo score %v, want %v", trial, got, want)
		}
	}
}

// bruteBestComboScore enumerates all pairs (t_1, t_2) including ∅ slots.
func bruteBestComboScore(t *testing.T, w *testWorld, q Query) float64 {
	f0, err := w.engine.features[0].Part(0).Tree().All()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := w.engine.features[1].Part(0).Tree().All()
	if err != nil {
		t.Fatal(err)
	}
	qk0, qk1 := q.keywordsFor(0), q.keywordsFor(1)
	best := 0.0 // the all-virtual combination
	for _, a := range f0 {
		if !a.Keywords.Intersects(qk0.Set) {
			continue
		}
		sa := index.Score(a, qk0)
		if sa > best {
			best = sa // (a, ∅)
		}
		for _, b := range f1 {
			if !b.Keywords.Intersects(qk1.Set) {
				continue
			}
			if a.Point().Dist(b.Point()) > 2*q.Radius {
				continue
			}
			if s := sa + index.Score(b, qk1); s > best {
				best = s
			}
		}
	}
	for _, b := range f1 {
		if !b.Keywords.Intersects(qk1.Set) {
			continue
		}
		if s := index.Score(b, qk1); s > best {
			best = s // (∅, b)
		}
	}
	return best
}

// Lazy and eager modes must emit the same score sequence (the lazy lattice
// is an implementation detail, not a semantic change).
func TestLazyEagerSameSequence(t *testing.T) {
	wL := buildWorld(t, 308, 50, 100, 2, 16, index.SRT, Options{Combinations: CombinationsLazy})
	wE := buildWorld(t, 308, 50, 100, 2, 16, index.SRT, Options{Combinations: CombinationsEager})
	rng := rand.New(rand.NewSource(309))
	for trial := 0; trial < 4; trial++ {
		q := wL.randQuery(rng, 2, RangeScore)
		a := drainCombinations(t, wL, q, 150)
		b := drainCombinations(t, wE, q, 150)
		if len(a) != len(b) {
			t.Fatalf("lazy emitted %d, eager %d", len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].score-b[i].score) > 1e-9 {
				t.Fatalf("position %d: lazy %v eager %v", i, a[i].score, b[i].score)
			}
		}
	}
}

// Without a pairwise rule — the influence variant's stream while it is told
// no floor, generated eagerly or by the lazy lattice — the stream must
// cover the full cross product (plus virtual slots) before exhausting.
func TestUnfilteredStreamCountsCrossProduct(t *testing.T) {
	for _, mode := range []CombinationMode{CombinationsEager, CombinationsLazy} {
		w := buildWorld(t, 310, 20, 30, 2, 8, index.SRT, Options{Combinations: mode})
		rng := rand.New(rand.NewSource(311))
		q := w.randQuery(rng, 2, InfluenceScore)
		// Count relevant features per set.
		relevant := func(set int) int {
			all, err := w.engine.features[set].Part(0).Tree().All()
			if err != nil {
				t.Fatal(err)
			}
			qk := q.keywordsFor(set)
			n := 0
			for _, e := range all {
				if e.Keywords.Intersects(qk.Set) {
					n++
				}
			}
			return n
		}
		want := (relevant(0) + 1) * (relevant(1) + 1) // +1 for ∅
		if combos := drainCombinations(t, w, q, 1<<20); len(combos) != want {
			t.Fatalf("%v: emitted %d combinations, want %d", mode, len(combos), want)
		}
	}
}

// The virtual feature must appear once the per-set stream is exhausted,
// enabling results backed by fewer than c feature sets.
func TestVirtualFeatureEmitted(t *testing.T) {
	w := buildWorld(t, 312, 20, 10, 2, 8, index.SRT, Options{})
	rng := rand.New(rand.NewSource(313))
	q := w.randQuery(rng, 2, RangeScore)
	combos := drainCombinations(t, w, q, 1<<20)
	sawVirtual := false
	sawAllVirtual := false
	for _, c := range combos {
		nv := 0
		for _, ref := range c.refs {
			if ref.virtual {
				nv++
			}
		}
		if nv > 0 {
			sawVirtual = true
		}
		if nv == len(c.refs) {
			sawAllVirtual = true
			if c.score != 0 {
				t.Fatalf("all-virtual combination must score 0, got %v", c.score)
			}
		}
	}
	if !sawVirtual || !sawAllVirtual {
		t.Fatalf("virtual combinations missing: some=%v all=%v", sawVirtual, sawAllVirtual)
	}
}

// Exhaustive property over random small worlds: the stream emits every
// unfiltered combination exactly once in non-increasing order.
func TestCombinationStreamExhaustiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		// Eager generation on even seeds, the lazy lattice on odd.
		mode := []CombinationMode{CombinationsEager, CombinationsLazy}[seed&1]
		w := buildWorld(t, seed, 10, 15, 2, 8, index.SRT, Options{Combinations: mode})
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		q := w.randQuery(rng, 2, InfluenceScore)
		var stats Stats
		cs, err := newCombinationStream(w.engine, &q, &stats, nil)
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		prev := math.Inf(1)
		for {
			comb, ok, err := cs.next(negInf)
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if comb.score > prev+1e-9 {
				return false
			}
			prev = comb.score
			key := ""
			for _, ref := range comb.refs {
				if ref.virtual {
					key += "∅|"
				} else {
					key += string(rune(ref.id)) + "|"
				}
			}
			if seen[key] {
				return false // duplicate emission
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The prioritized pulling strategy should pull no more features than
// round-robin on average (Definition 5's motivation).
func TestPrioritizedPullsNoMoreThanRoundRobin(t *testing.T) {
	wP := buildWorld(t, 314, 200, 400, 3, 16, index.SRT, Options{Pull: PullPrioritized})
	wR := buildWorld(t, 314, 200, 400, 3, 16, index.SRT, Options{Pull: PullRoundRobin})
	rng := rand.New(rand.NewSource(315))
	var pulledP, pulledR int
	for trial := 0; trial < 10; trial++ {
		q := wP.randQuery(rng, 3, RangeScore)
		_, sp, err := wP.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		_, sr, err := wR.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		pulledP += sp.FeaturesPulled
		pulledR += sr.FeaturesPulled
	}
	if float64(pulledP) > float64(pulledR)*1.25 {
		t.Errorf("prioritized pulled %d features, round-robin %d", pulledP, pulledR)
	}
}

// Every variant defaults to eager generation under its own rule — range
// over its pair grids, influence (the stream that can be told a floor)
// without a pairwise rule, NN under the cells rule; one set makes no
// pairs and has no rule; and only the lazy reference is chosen by option.
func TestCombinationModeDispatch(t *testing.T) {
	stream := func(opts Options, variant Variant) *combinationStream {
		t.Helper()
		w := buildWorld(t, 320, 30, 40, 2, 8, index.SRT, opts)
		q := w.randQuery(rand.New(rand.NewSource(321)), 2, variant)
		cs, err := newCombinationStream(w.engine, &q, new(Stats), nil)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	if cs := stream(Options{}, RangeScore); !cs.eager || cs.grids == nil || cs.rule != rulePairs {
		t.Error("range variant should default to grid-accelerated eager under the 2r rule")
	}
	if cs := stream(Options{}, InfluenceScore); !cs.eager || cs.grids != nil || cs.rule != ruleNone {
		t.Error("influence variant should default to eager without grids or a pairwise rule")
	}
	if cs := stream(Options{}, NearestNeighborScore); !cs.eager || cs.grids != nil || cs.rule != ruleCells {
		t.Error("NN variant should default to eager under the cells rule")
	}
	for _, variant := range []Variant{RangeScore, InfluenceScore, NearestNeighborScore} {
		if cs := stream(Options{Combinations: CombinationsLazy}, variant); cs.eager || cs.rule != ruleOf(variant, 2) {
			t.Errorf("explicit lazy must override the %v default and keep its rule", variant)
		}
		if ruleOf(variant, 1) != ruleNone {
			t.Errorf("%v over one feature set has a pairwise rule", variant)
		}
	}
	if CombinationsEager.String() != "eager" || CombinationsLazy.String() != "lazy" {
		t.Error("mode strings")
	}
}

// A cell of the pair grid yields its members in the order they were added
// (the order combinations are queued in decides ties between equal
// scores), and a reset grid is refilled without allocating.
func TestPairGridChainsKeepInsertionOrder(t *testing.T) {
	g := newPairGrid(0.1)
	rng := rand.New(rand.NewSource(330))
	fill := func() map[[2]int32][]int32 {
		want := map[[2]int32][]int32{}
		for idx := int32(0); idx < 500; idx++ {
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			want[g.key(p)] = append(want[g.key(p)], idx)
			g.add(p)
		}
		return want
	}
	for round := 0; round < 2; round++ {
		g.reset(0.1)
		for k, members := range fill() {
			var got []int32
			for a := g.first(k); a >= 0; a = g.next[a] {
				got = append(got, a)
			}
			if !slices.Equal(got, members) {
				t.Fatalf("round %d cell %v: chain %v, added %v", round, k, got, members)
			}
		}
	}
	if g.first([2]int32{99, 99}) != -1 {
		t.Error("an empty cell must report no member")
	}
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		g.reset(0.1)
		for _, p := range pts {
			g.add(p)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset grid allocates %.0f times", allocs)
	}
}

// latticeSet is one synthetic feature set of the lattice test: the scores
// its stream yields (in any order here; the stream's heap sorts them) and
// whether it ends in ∅ as a real stream does, or just runs dry.
type latticeSet struct {
	scores  []float64
	virtual bool
}

// The lazy lattice generates every index vector from its canonical parent
// alone, with no record of what it has seen: over sets of unequal length,
// with and without a final ∅, and with scores that tie, it must still emit
// each vector exactly once, in non-increasing score — the very sequence of
// scores the sorted cross product gives, hence the same multiset down to
// any stopping score — under either pulling strategy, and forced lazy on
// the range and NN variants only the combinations their pairwise rule (2r,
// cells that can meet) lets through.
func TestLazyLatticeEmitsEachVectorOnce(t *testing.T) {
	eighths := func(n ...int) []float64 {
		out := make([]float64, len(n))
		for i, v := range n {
			out[i] = float64(v) / 8
		}
		return out
	}
	cases := []struct {
		name string
		sets []latticeSet
	}{
		{"c=2 unequal", []latticeSet{{eighths(8, 7, 5, 3, 2), true}, {eighths(6, 1), true}}},
		{"c=2 tied", []latticeSet{{eighths(4, 4, 4, 2, 2), true}, {eighths(4, 4, 2), true}}},
		{"c=2 no ∅", []latticeSet{{eighths(7, 3, 3), false}, {eighths(8, 5, 5, 1), false}}},
		{"c=3 one runs dry", []latticeSet{{eighths(8, 6, 6, 2), true}, {eighths(5, 5), false}, {eighths(7, 4, 1), true}}},
		{"c=3 only ∅", []latticeSet{{eighths(3, 2, 1), true}, {nil, true}, {eighths(8, 8), true}}},
		{"c=4 mixed", []latticeSet{{eighths(8, 4, 4), true}, {eighths(6, 2), false}, {eighths(5), true}, {eighths(7, 7, 3), true}}},
		{"c=4 all tied", []latticeSet{{eighths(4, 4), true}, {eighths(4, 4), true}, {eighths(4, 4), false}, {eighths(4, 4), true}}},
	}
	for _, tc := range cases {
		for _, pull := range []PullStrategy{PullPrioritized, PullRoundRobin} {
			for _, variant := range []Variant{NearestNeighborScore, RangeScore} {
				t.Run(fmt.Sprintf("%s/%v/%v", tc.name, pull, variant), func(t *testing.T) {
					c := len(tc.sets)
					w := buildWorld(t, 340, 5, 5, c, 8, index.SRT, Options{Pull: pull, Combinations: CombinationsLazy})
					rng := rand.New(rand.NewSource(341))
					q := w.randQuery(rng, c, variant)
					q.Radius = 0.15
					cs, err := newCombinationStream(w.engine, &q, new(Stats), nil)
					if err != nil {
						t.Fatal(err)
					}
					// Replace what each per-set stream would retrieve by the
					// table's features, queued as leaves already resolved.
					sets := make([][]featureRef, c)
					for i, set := range tc.sets {
						st := cs.streams[i]
						st.heap.reset()
						for j, s := range set.scores {
							ref := featureRef{id: int64(j), loc: geo.Point{X: rng.Float64(), Y: rng.Float64()}, score: s}
							sets[i] = append(sets[i], ref)
							st.heap.push(candidate{prio: s, ref: ref.id, loc: ref.loc, leaf: true, resolved: true})
						}
						st.exhausted = !set.virtual
						if set.virtual {
							sets[i] = append(sets[i], featureRef{id: -1, virtual: true})
						}
					}
					// Under the cells rule a feature's cell reach decides its
					// partners; the stream finds the same cells in the store.
					reach := func(set int, ref featureRef) float64 {
						c, err := w.engine.cellOf(set, &ref, new(Stats), nil)
						if err != nil {
							t.Fatal(err)
						}
						return c.reach
					}
					var want []float64
					var cross func(i int, members []featureRef, score float64)
					cross = func(i int, members []featureRef, score float64) {
						if i == c {
							want = append(want, score)
							return
						}
						for _, ref := range sets[i] {
							valid := true
							for j, m := range members {
								if ref.virtual || m.virtual {
									continue
								}
								switch variant {
								case RangeScore:
									valid = valid && ref.loc.Dist(m.loc) <= 2*q.Radius
								case NearestNeighborScore:
									r := reach(i, ref) + reach(j, m)
									valid = valid && ref.loc.Dist2(m.loc) <= r*r
								}
							}
							if valid {
								cross(i+1, append(members, ref), score+ref.score)
							}
						}
					}
					cross(0, nil, 0)
					slices.SortFunc(want, func(a, b float64) int { return cmp.Compare(b, a) })

					seen := map[string]bool{}
					var got []float64
					for {
						comb, ok, err := cs.next(negInf)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						key := ""
						for _, ref := range comb.refs {
							id := ref.id
							if ref.virtual {
								id = -1
							}
							key += fmt.Sprint(id, "|")
						}
						if seen[key] {
							t.Fatalf("vector %s emitted twice", key)
						}
						seen[key] = true
						got = append(got, comb.score)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("emitted scores %v,\nsorted cross product %v", got, want)
					}
				})
			}
		}
	}
}
