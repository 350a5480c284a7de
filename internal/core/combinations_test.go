package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
)

// drainCombinations pulls up to limit combinations from a fresh stream,
// never telling it a floor.
func drainCombinations(t *testing.T, w *testWorld, q Query, limit int) []combination {
	t.Helper()
	out, _ := drainCombos(t, w, q, limit, false)
	return out
}

// drainCombos is drainCombinations, on a stream without its partner grids
// if scan: generation then scans every D_j linearly for partners. It
// returns the stream too, for what it pulled.
func drainCombos(t *testing.T, w *testWorld, q Query, limit int, scan bool) ([]combination, *combinationStream) {
	t.Helper()
	var stats Stats
	cs := newCombinationStream(w.engine, &q, &stats, nil)
	if scan {
		cs.grids = nil
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
	return out, cs
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

// The stream emits the top of the sorted cross product of what it pulled,
// score for score (sortedCrossProduct; a drained stream emits all of it) up
// to the 1e-12 its emission test allows τ, which may let a combination out
// an ulp ahead of one that beats it.
// Under the cells rule generation finds partners through the reach grid,
// which must queue what the linear scan of D_j queues, in the scan's order:
// over both index kinds at c = 2 and 3 the two emit the same index vectors
// with the same scores, ties included — every other query scores by
// Jaccard alone (λ = 1), where combinations tie and the heap pops them in
// the order they were queued. The sets differ in size, so their reaches
// differ too.
func TestStreamSequenceMatchesCrossProduct(t *testing.T) {
	topOfCrossProduct := func(label string, got []combination, cs *combinationStream, limit int) {
		t.Helper()
		want := sortedCrossProduct(t, cs)
		// A stream that stopped short of the limit ran out: it owes every
		// combination.
		if len(got) > len(want) || len(got) < limit && len(got) != len(want) {
			t.Fatalf("%s: emitted %d combinations, the cross product has %d", label, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].score-want[i]) > 1e-9 {
				t.Fatalf("%s: position %d: emitted %v, sorted cross product %v", label, i, got[i].score, want[i])
			}
		}
	}
	w := buildWorld(t, 308, 50, 100, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(309))
	for trial := 0; trial < 4; trial++ {
		q := w.randQuery(rng, 2, RangeScore)
		got, cs := drainCombos(t, w, q, 150, false)
		topOfCrossProduct(fmt.Sprintf("range trial %d", trial), got, cs, 150)
	}
	vectors := func(cs []combination) [][]int64 {
		out := make([][]int64, len(cs))
		for i, comb := range cs {
			for _, ref := range comb.refs {
				id := ref.id
				if ref.virtual {
					id = -1
				}
				out[i] = append(out[i], id)
			}
		}
		return out
	}
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for c := 2; c <= 3; c++ {
			w := buildUnevenWorld(t, 316+int64(c), c, kind, Options{})
			rng := rand.New(rand.NewSource(326 + int64(c)))
			for trial := 0; trial < 8; trial++ {
				q := w.randQuery(rng, c, NearestNeighborScore)
				if trial%2 == 1 {
					q.Lambda = 1
				}
				label := fmt.Sprintf("NN %v c=%d trial %d", kind, c, trial)
				grid, cs := drainCombos(t, w, q, 300, false)
				topOfCrossProduct(label, grid, cs, 300)
				scan, _ := drainCombos(t, w, q, 300, true)
				if !slices.EqualFunc(grid, scan, func(a, b combination) bool { return a.score == b.score }) ||
					!slices.EqualFunc(vectors(grid), vectors(scan), slices.Equal) {
					t.Fatalf("%s: the reach grid emitted\n%v,\nthe linear scan\n%v", label, vectors(grid), vectors(scan))
				}
			}
		}
	}
}

// buildUnevenWorld is buildWorld over c feature sets of 40, 160, 80, …
// features: sets of unlike density, whose Voronoi cells differ in reach.
func buildUnevenWorld(t *testing.T, seed int64, c int, kind index.Kind, opts Options) *testWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]index.Object, 60)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	oidx, err := index.BuildObjectIndex(objs, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, c)
	for s := range fidxs {
		feats := make([]index.Feature, []int{40, 160, 80}[s%3])
		for i := range feats {
			kw := kwset.NewSet(8)
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(rng.Intn(8))
			}
			feats[i] = index.Feature{ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
		}
		if fidxs[s], err = index.BuildFeatureIndex(feats, index.Options{Kind: kind, VocabWidth: 8, PageSize: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(oidx, fidxs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{engine: eng, vocabW: 8}
}

// Without a pairwise rule — the influence variant's stream while it is told
// no floor — the stream must cover the full cross product (plus virtual
// slots) before exhausting.
func TestUnfilteredStreamCountsCrossProduct(t *testing.T) {
	w := buildWorld(t, 310, 20, 30, 2, 8, index.SRT, Options{})
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
		t.Fatalf("emitted %d combinations, want %d", len(combos), want)
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
		w := buildWorld(t, seed, 10, 15, 2, 8, index.SRT, Options{})
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		q := w.randQuery(rng, 2, InfluenceScore)
		var stats Stats
		cs := newCombinationStream(w.engine, &q, &stats, nil)
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

// Told the k-th score, the range and NN consumers stop the stream once
// nothing queued or unseen reaches it, instead of letting it pull on to the
// combination the loop stops at. Over both index kinds, one to three
// feature sets so small that streams run dry and pull ∅, each query is
// driven by the consumer's loop twice — never telling the stream a floor,
// and telling it the k-th score — beside the engine's own STPS: the three
// answers must be BruteForce's to the bit, the floor may only save pulls
// and must save some, and the engine must pull what the floored loop does.
// Every combination either loop takes must obey the variant's pairwise
// rule. Once the top-k is full its k-th score is that of the combination
// just taken, so the floored stream pulls on only for combinations that tie
// it; every other query scores by Jaccard alone (λ = 1), where they do. A
// range or NN stream that took the floor for the influence variant's
// (extendBounded's) rule would then queue combinations that break the
// pairwise rule and drop tying ones its influence bound puts below the
// floor, with the objects that win the id tie-break; so would a stream
// that stopped once the rounded τ fell below the floor by an ulp.
func TestFloorPullsNoMore(t *testing.T) {
	sawLess, sawVirtual := false, false
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for c := 1; c <= 3; c++ {
			w := buildWorld(t, 350+int64(c), 150, 25, c, 8, kind, Options{})
			rng := rand.New(rand.NewSource(360 + int64(c)))
			for _, variant := range []Variant{RangeScore, NearestNeighborScore} {
				for trial := 0; trial < 16; trial++ {
					q := w.randQuery(rng, c, variant)
					if trial%2 == 1 {
						q.Lambda = 1 // Jaccard scores alone: combinations tie
					}
					label := fmt.Sprintf("%v c=%d %v trial %d", kind, c, variant, trial)
					want, err := w.engine.BruteForce(q)
					if err != nil {
						t.Fatal(err)
					}
					open, openPulled, _ := floorDrive(t, w.engine, q, false)
					told, toldPulled, virtual := floorDrive(t, w.engine, q, true)
					got, st, err := w.engine.STPS(q)
					if err != nil {
						t.Fatal(err)
					}
					for name, rs := range map[string][]Result{"no floor": open, "floor": told, "STPS": got} {
						if !slices.Equal(rs, want) {
							t.Fatalf("%s: %s answers %v, brute force %v", label, name, rs, want)
						}
					}
					if st.FeaturesPulled != toldPulled {
						t.Fatalf("%s: STPS pulled %d features, the floored loop %d", label, st.FeaturesPulled, toldPulled)
					}
					if toldPulled > openPulled {
						t.Fatalf("%s: told the k-th score the stream pulled %d features, %d without", label, toldPulled, openPulled)
					}
					sawLess = sawLess || toldPulled < openPulled
					sawVirtual = sawVirtual || virtual
				}
			}
		}
	}
	if !sawLess {
		t.Error("the floor saved no pull on any query")
	}
	if !sawVirtual {
		t.Error("no floored stream pulled ∅: the feature sets are too large to show it")
	}
}

// floorDrive runs the consumer loop of stpsRange or stpsNearestNeighbor on
// a fresh stream, passing it the k-th score if told, else −∞. It returns
// the answer, the features pulled and whether a set ran dry (pulled ∅).
func floorDrive(t *testing.T, root *Engine, q Query, told bool) ([]Result, int, bool) {
	t.Helper()
	e := root.session()
	defer root.releaseSession(e)
	var stats Stats
	cs := newCombinationStream(e, &q, &stats, nil)
	seen := map[int64]bool{}
	acc := newTopkAccumulator(q.K)
	for {
		floor := negInf
		if told {
			floor = acc.threshold()
		}
		comb, ok, err := cs.next(floor)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || acc.full() && comb.score < acc.threshold() {
			break
		}
		for i, u := range comb.refs {
			for j, v := range comb.refs[:i] {
				if u.virtual || v.virtual {
					continue
				}
				if q.Variant == RangeScore {
					if u.loc.Dist(v.loc) > 2*q.Radius {
						t.Fatalf("range combination %v: members %d and %d farther apart than 2r", comb.refs, j, i)
					}
				} else if r := cellReach(t, e, i, u) + cellReach(t, e, j, v); u.loc.Dist2(v.loc) > r*r {
					t.Fatalf("NN combination %v: the cells of members %d and %d cannot meet", comb.refs, j, i)
				}
			}
		}
		score := comb.score
		visit := func(en rtree.Entry) bool {
			if !seen[en.ItemID] {
				seen[en.ItemID] = true
				acc.offer(Result{ID: en.ItemID, Location: en.Point(), Score: score})
			}
			return true
		}
		if q.Variant == RangeScore {
			err = e.objectsMatchingRangeCombo(comb, q.Radius, visit)
		} else {
			var region geo.Polygon
			if region, err = e.comboRegion(comb, &stats, nil); err == nil && !region.IsEmpty() {
				err = e.probeParts(region.IntersectsRect, func(tr *rtree.Tree) error {
					return tr.SearchPolygon(region, visit)
				})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return acc.results(), stats.FeaturesPulled, slices.Contains(cs.exhausted, true)
}

// cellReach returns the reach of the Voronoi cell of a feature of set.
func cellReach(t *testing.T, e *Engine, set int, ref featureRef) float64 {
	t.Helper()
	c, err := e.cellOf(set, &ref, new(Stats), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.reach
}

// Every variant generates under its own rule — range over its pair grids,
// influence (the stream that can be told a floor) without a pairwise rule
// or grids, NN under the cells rule over its reach grids — and one set
// makes no pairs and has no rule.
func TestCombinationModeDispatch(t *testing.T) {
	stream := func(variant Variant) *combinationStream {
		t.Helper()
		w := buildWorld(t, 320, 30, 40, 2, 8, index.SRT, Options{})
		q := w.randQuery(rand.New(rand.NewSource(321)), 2, variant)
		return newCombinationStream(w.engine, &q, new(Stats), nil)
	}
	if cs := stream(RangeScore); cs.grids == nil || cs.rule != rulePairs {
		t.Error("the range variant should generate over grids under the 2r rule")
	}
	if cs := stream(InfluenceScore); cs.grids != nil || cs.rule != ruleNone || !cs.bounded {
		t.Error("the influence variant should generate without grids or a pairwise rule, under the floor rule")
	}
	if cs := stream(NearestNeighborScore); cs.grids == nil || cs.rule != ruleCells {
		t.Error("the NN variant should generate over grids under the cells rule")
	}
	for _, variant := range []Variant{RangeScore, InfluenceScore, NearestNeighborScore} {
		if ruleOf(variant, 1) != ruleNone {
			t.Errorf("%v over one feature set has a pairwise rule", variant)
		}
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

// FuzzPairGrid holds the flat grid to a map of slices keyed by the same
// cells: every 3×3 neighbourhood yields the same indices in the same order,
// over a fresh grid and over one reset after it grew, for cell sizes down
// to 1e-9 and coordinates whose cell index passes 2³¹. Each neighbourhood
// must also hold every point within half a cell of its centre point. The
// candidate of the best-first heaps is checked here too: it must stay
// within six words, what the heaps were sized for.
func FuzzPairGrid(f *testing.F) {
	if size := unsafe.Sizeof(candidate{}); size > 48 {
		f.Fatalf("candidate is %d bytes, more than 48", size)
	}
	f.Add(int64(1), uint16(300), 0.1, 0.0)
	f.Add(int64(2), uint16(500), 1e-9, 0.5)
	f.Add(int64(3), uint16(400), 1e-9, 2.147483648) // cell index 2³¹
	f.Add(int64(4), uint16(400), 1e-9, -3.0)
	f.Add(int64(5), uint16(1000), 1e-3, 0.0) // hundreds of cells: the table grows
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cell, offset float64) {
		if !(cell >= 1e-9 && cell <= 1e3 && math.Abs(offset) <= 1e3) {
			t.Skip()
		}
		n %= 1024
		rng := rand.New(rand.NewSource(seed))
		g := newPairGrid(cell)
		for round := 0; round < 2; round++ {
			g.reset(cell)
			pts := make([]geo.Point, n)
			want := map[[2]int32][]int32{}
			for i := range pts {
				// Most points a few cells around the offset, where cells
				// share neighbourhoods; some anywhere near it.
				spread := 20 * cell
				if rng.Intn(4) == 0 {
					spread = 1
				}
				p := geo.Point{X: offset + spread*(2*rng.Float64()-1), Y: offset + spread*(2*rng.Float64()-1)}
				pts[i] = p
				want[g.key(p)] = append(want[g.key(p)], int32(i))
				g.add(p)
			}
			for i, p := range pts {
				k := g.key(p)
				var got, exp []int32
				for dx := int32(-1); dx <= 1; dx++ {
					for dy := int32(-1); dy <= 1; dy++ {
						nk := [2]int32{k[0] + dx, k[1] + dy}
						for a := g.first(nk); a >= 0; a = g.next[a] {
							got = append(got, a)
						}
						exp = append(exp, want[nk]...)
					}
				}
				if !slices.Equal(got, exp) {
					t.Fatalf("round %d: neighbourhood of point %d at %v: grid %v, map %v", round, i, p, got, exp)
				}
				if i < 32 {
					for j, q := range pts {
						if p.Dist(q) <= cell/2 && !slices.Contains(got, int32(j)) {
							t.Fatalf("round %d: point %d at %v is within half a cell of point %d at %v, not in its neighbourhood", round, j, q, i, p)
						}
					}
				}
			}
		}
	})
}
