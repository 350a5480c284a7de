package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/rtree"
)

// exactPrice is the influence price of a slot with rectangle rect under
// the concrete members of refs, spelled out: the distance to a leaf's
// object or a node's MBR, and one exponential per member. influenceAt over
// decayTerms must equal it to the bit.
func exactPrice(refs []featureRef, r float64, rect geo.Rect, leaf bool) float64 {
	sum := 0.0
	for _, ref := range refs {
		if ref.virtual {
			continue
		}
		d := rect.MinDist(ref.loc)
		if leaf {
			d = rect.Min.Dist(ref.loc)
		}
		sum += ref.score * math.Exp2(-d/r)
	}
	return sum
}

// checkPrune prices en both ways under the limit L. It fails if the exact
// price differs from exactPrice, exceeds the ceiling (for a leaf the one
// taken from √Dist2, not from math.Hypot), or is not strictly below L
// while the reaches reject en; it reports whether they did. A NaN price
// (never below a limit, so never queued) passes.
func checkPrune(t *testing.T, refs []featureRef, r float64, en *rtree.Entry, L float64, label string) (rejected bool) {
	t.Helper()
	exact := influenceAt(decayTerms(refs, r, &en.Rect, en.Leaf, nil))
	if want := exactPrice(refs, r, en.Rect, en.Leaf); exact != want && !(math.IsNaN(exact) && math.IsNaN(want)) {
		t.Fatalf("%s: influenceAt %v, the spelled-out price %v\nrefs %+v\nentry %+v", label, exact, want, refs, *en)
	}
	var p influencePrune
	p.reset(refs, r, 1)
	p.deriveReaches(L)
	rejected = p.outOfReach(&en.Rect, en.Leaf)
	if rejected && !(exact < L) {
		t.Fatalf("%s: the reaches reject an entry priced %v under the limit %v\nrefs %+v\nentry %+v", label, exact, L, refs, *en)
	}
	if ceil := p.ceil(en.Leaf); exact > ceil {
		t.Fatalf("%s: ceiling %v below the exact price %v\nrefs %+v\nentry %+v", label, ceil, exact, refs, *en)
	}
	return rejected
}

// decayCeil dominates math.Exp2(−x) at 0, at every table boundary and four
// ulps either side of it, at the end of the table and past it, at +Inf
// and at 10⁵ random x, and is a finite power for NaN. Below the table's
// end it is also within one step, 2^(1/16), of the power it bounds, and
// past it no higher than the last entry: a ceiling of 1 would dominate
// too, and reject nothing.
func TestDecayCeilDominates(t *testing.T) {
	last := decayTable[len(decayTable)-1]
	check := func(x float64) {
		t.Helper()
		got, exact := decayCeil(x), math.Exp2(-x)
		if got < exact {
			t.Fatalf("decayCeil(%v) = %v, below math.Exp2(-x) = %v", x, got, exact)
		}
		limit := last
		if x < decaySpan {
			limit = exact * math.Exp2(1.0/decaySteps) * (1 + 1e-11)
		}
		if got > limit {
			t.Fatalf("decayCeil(%v) = %v, looser than %v (math.Exp2(-x) = %v)", x, got, limit, exact)
		}
	}
	check(0)
	for i := 0; i <= len(decayTable); i++ {
		b := float64(i) / decaySteps
		lo, hi := b, b
		check(b)
		for k := 0; k < 4; k++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			if lo >= 0 {
				check(lo)
			}
			check(hi)
		}
	}
	for _, x := range []float64{decaySpan, 64.5, 65, 100, 1075, 1e6, math.MaxFloat64, math.Inf(1)} {
		check(x)
	}
	rng := rand.New(rand.NewSource(2601))
	for n := 0; n < 100_000; n++ {
		if n%2 == 0 {
			check(72 * rng.Float64())
		} else {
			check(math.Exp2(60*rng.Float64() - 50)) // 1e-15 … 1e3
		}
	}
	if got := decayCeil(math.NaN()); got != last {
		t.Fatalf("decayCeil(NaN) = %v, want the last entry %v", got, last)
	}
}

// randCeilCase draws a combination of c members, virtual ones among them,
// and an entry — a leaf or a node — for it, at a radius from 1e-5 (every
// exponent past the table's end) to 10 (every exponent near 0).
func randCeilCase(rng *rand.Rand, c int) ([]featureRef, float64, rtree.Entry) {
	refs := make([]featureRef, c)
	for i := range refs {
		if rng.Intn(5) == 0 {
			refs[i] = featureRef{virtual: true, score: virtualScore}
			continue
		}
		refs[i] = featureRef{id: int64(i), loc: geo.Point{X: rng.Float64(), Y: rng.Float64()}, score: rng.Float64()}
	}
	r := math.Exp2(20*rng.Float64() - 16.6)
	p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
	if rng.Intn(2) == 0 {
		return refs, r, rtree.Entry{Rect: geo.RectOf(p), Leaf: true}
	}
	q := geo.Point{X: p.X + 0.2*rng.Float64(), Y: p.Y + 0.2*rng.Float64()}
	return refs, r, rtree.Entry{Rect: geo.Rect{Min: p, Max: q}}
}

// The summed ceiling dominates the exact price, which is the spelled-out
// price to the bit, for random combinations of two to four members over
// leaf and node entries.
func TestInfluenceCeilDominatesPrice(t *testing.T) {
	rng := rand.New(rand.NewSource(2602))
	for trial := 0; trial < 30_000; trial++ {
		c := 2 + trial%3
		refs, r, en := randCeilCase(rng, c)
		checkPrune(t, refs, r, &en, negInf, fmt.Sprintf("trial %d (c=%d, r=%v, leaf=%v)", trial, c, r, en.Leaf))
	}
}

// The reaches reject only entries priced strictly below the limit, for
// random combinations of two to four members over leaf and node entries,
// under limits at the exact price, an ulp either side of it, a relative
// 1e-9 either side (the reaches' margin) and at random. Some limits must be
// rejected under, or the test proves nothing.
func TestInfluenceReachRejectsBelowLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2603))
	rejected := 0
	for trial := 0; trial < 20_000; trial++ {
		c := 2 + trial%3
		refs, r, en := randCeilCase(rng, c)
		exact := exactPrice(refs, r, en.Rect, en.Leaf)
		for _, L := range []float64{
			exact, math.Nextafter(exact, 0), math.Nextafter(exact, 2),
			exact * (1 - 1e-9), exact * (1 + 1e-9), exact * (1 + 3*rng.Float64()), 2 * rng.Float64(),
		} {
			label := fmt.Sprintf("trial %d (c=%d, r=%v, leaf=%v, L=%v)", trial, c, r, en.Leaf, L)
			if checkPrune(t, refs, r, &en, L, label) {
				rejected++
			}
		}
	}
	if rejected < 10_000 {
		t.Fatalf("the reaches rejected only %d entries", rejected)
	}
}

// FuzzInfluenceCeil checks both pre-tests of influencePrune under a
// limit L for three members, any of them virtual (bits of virt), over an
// entry spanning w×h from (x, y) (a leaf takes the corner): an entry the
// reaches reject prices strictly below L, and the ceiling — a leaf's taken
// from √Dist2 — is at least the exact price. L may be −∞; every other
// non-finite or negative input is outside what a query can produce and is
// skipped.
func FuzzInfluenceCeil(f *testing.F) {
	inf := math.Inf(-1)
	// Radii from 1e-5 (every exponent past the table's end) to 100, the
	// reaches off.
	f.Add(0.01, 0.5, 0.5, 0.0, 0.0, true, 0.4, 0.5, 0.9, 0.6, 0.5, 0.3, 0.5, 0.7, 0.1, uint8(0), inf)
	f.Add(0.05, 0.1, 0.1, 0.2, 0.3, false, 0.9, 0.9, 1.0, 0.0, 0.0, 0.5, 0.15, 0.2, 0.7, uint8(2), inf)
	f.Add(1e-5, 0.0, 0.0, 0.0, 0.0, true, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 0.25, 0.75, 1.0, uint8(4), inf)
	f.Add(100.0, 0.3, 0.3, 0.01, 0.01, false, 0.3, 0.3, 0.8, 0.31, 0.29, 0.2, 0.9, 0.1, 0.6, uint8(1), inf)
	f.Add(0.01, 0.5, 0.5, 0.0, 0.0, true, 0.5, 0.5, 1.0, 0.5, 0.64, 1.0, 0.5, 0.5, 0.0, uint8(0), inf)
	// L ≤ 0 and L = −∞: the reaches are off.
	f.Add(0.05, 0.5, 0.5, 0.0, 0.0, true, 0.4, 0.5, 0.9, 0.6, 0.5, 0.3, 0.5, 0.7, 0.1, uint8(0), 0.0)
	f.Add(0.05, 0.5, 0.5, 0.1, 0.1, false, 0.4, 0.5, 0.9, 0.6, 0.5, 0.3, 0.5, 0.7, 0.1, uint8(0), -0.5)
	f.Add(0.05, 0.5, 0.5, 0.0, 0.0, true, 0.4, 0.5, 0.9, 0.6, 0.5, 0.3, 0.5, 0.7, 0.1, uint8(1), inf)
	// n·s_j = L exactly: three members of 0.25 at one point, L = 0.75, and
	// the leaf on the point or a hair from it — at 1e-20 the price rounds
	// to L itself.
	f.Add(0.05, 0.5, 0.5, 0.0, 0.0, true, 0.5, 0.5, 0.25, 0.5, 0.5, 0.25, 0.5, 0.5, 0.25, uint8(0), 0.75)
	f.Add(0.05, 0.5+1e-12, 0.5, 0.0, 0.0, true, 0.5, 0.5, 0.25, 0.5, 0.5, 0.25, 0.5, 0.5, 0.25, uint8(0), 0.75)
	f.Add(1.0, 1e-20, 0.0, 0.0, 0.0, true, 0.0, 0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.25, uint8(0), 0.75)
	// A score of 0.
	f.Add(0.1, 0.2, 0.2, 0.0, 0.0, true, 0.2, 0.2, 0.0, 0.3, 0.3, 0.5, 0.9, 0.9, 0.4, uint8(0), 0.3)
	// Subnormal coordinates.
	f.Add(1e-5, 5e-324, 0.0, 0.0, 0.0, true, 0.0, 1e-310, 0.7, 2e-320, 0.0, 0.6, 0.0, 0.0, 0.5, uint8(0), 1.2)
	f.Add(1e-160, 1e-160, 0.0, 0.0, 0.0, true, 0.0, 0.0, 0.7, 0.0, 1e-161, 0.6, 3e-160, 0.0, 0.5, uint8(0), 0.9)
	// A subnormal limit, met exactly by two subnormal scores a hair away:
	// the reaches must be off.
	f.Add(1.0, 1e-20, 0.0, 0.0, 0.0, true, 0.0, 0.0, 5e-324, 0.0, 0.0, 5e-324, 0.0, 0.0, 0.0, uint8(4), 1e-323)
	// A squared reach of 1e-320, subnormal, and a leaf inside the reach
	// whose two squares both round up past it: the reach must be raised.
	f.Add(1e-161, 4.937839789711837e-161, 8.69580597939268e-161, 0.0, 0.0, true, 0.0, 0.0, 512.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(6), 0.5)
	// 1e200 coordinates: squared distances overflow.
	f.Add(1e300, 1e200, 1e200, 0.0, 0.0, true, -1e200, -1e200, 0.7, 0.0, 0.0, 0.6, 1e200, -1e200, 0.5, uint8(0), 0.5)
	f.Add(100.0, 1e200, 0.0, 1e200, 1e200, false, -1e200, 0.0, 0.7, 0.0, 0.0, 0.6, 0.0, 1e200, 0.5, uint8(0), 0.5)
	// r = 1e-5 and r = 100.
	f.Add(1e-5, 0.3, 0.3, 0.0, 0.0, true, 0.3, 0.30001, 0.8, 0.31, 0.29, 0.2, 0.9, 0.1, 0.6, uint8(0), 0.4)
	f.Add(100.0, 0.3, 0.3, 0.01, 0.01, false, 0.3, 0.3, 0.8, 0.31, 0.29, 0.2, 0.9, 0.1, 0.6, uint8(4), 1.39)
	f.Fuzz(func(t *testing.T, r, x, y, w, h float64, leaf bool,
		x0, y0, s0, x1, y1, s1, x2, y2, s2 float64, virt uint8, L float64) {
		for _, v := range []float64{r, x, y, w, h, x0, y0, s0, x1, y1, s1, x2, y2, s2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		if math.IsNaN(L) || math.IsInf(L, 1) || r <= 0 || w < 0 || h < 0 || s0 < 0 || s1 < 0 || s2 < 0 {
			t.Skip("outside a query's domain")
		}
		refs := []featureRef{
			{id: 0, loc: geo.Point{X: x0, Y: y0}, score: s0},
			{id: 1, loc: geo.Point{X: x1, Y: y1}, score: s1},
			{id: 2, loc: geo.Point{X: x2, Y: y2}, score: s2},
		}
		for i := range refs {
			if virt&(1<<i) != 0 {
				refs[i] = featureRef{virtual: true, score: virtualScore}
			}
		}
		en := rtree.Entry{Rect: geo.Rect{Min: geo.Point{X: x, Y: y}, Max: geo.Point{X: x + w, Y: y + h}}, Leaf: leaf}
		if leaf {
			en.Rect = geo.RectOf(en.Rect.Min)
		}
		checkPrune(t, refs, r, &en, L, "fuzz")
	})
}

// topKInfluenceExact is topKInfluence without the pre-tests: every child
// of an expanded node is priced exactly. It is the reference search the
// pre-tests must not change.
func (e *Engine) topKInfluenceExact(comb combination, q *Query, acc *influenceTopK, stats *Stats) error {
	pq := e.scratchBoundHeap()
	for pi, part := range e.objects {
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		pq.push(candidateOf(&root, pi, exactPrice(comb.refs, q.Radius, root.Rect, false), nil))
	}
	emitted := 0
	kth := negInf
	for pq.Len() > 0 {
		it := pq.pop()
		limit := acc.threshold()
		if emitted >= q.K && kth > limit {
			limit = kth
		}
		if it.prio < limit {
			return nil
		}
		if it.isLeaf() {
			if acc.offer(it.ref, it.loc, it.prio) {
				stats.ObjectsScored++
			}
			emitted++
			if emitted == q.K {
				kth = it.prio
			}
			continue
		}
		e.markProbed(int(it.part))
		v, err := e.objects[it.part].Tree().View(it.child())
		if err != nil {
			return err
		}
		for i := 0; i < v.Len(); i++ {
			if !v.Visible(i) {
				continue
			}
			rect := v.Rect(i)
			if prio := exactPrice(comb.refs, q.Radius, rect, v.Leaf()); prio >= limit {
				pq.push(slotCandidate(&v, i, int(it.part), prio))
			}
		}
	}
	return nil
}

// influenceLockstep runs q's influence STPS (stpsInfluence's loop) with
// two accumulators: every combination the stream emits is searched by
// topKInfluence into one and by topKInfluenceExact into the other, and
// after each pair of searches the two must hold the same scores and top
// list, having read as many pages and scored as many objects. It returns
// the answer and the number of searches.
func influenceLockstep(t *testing.T, e *Engine, q Query, label string) ([]Result, int) {
	t.Helper()
	if err := q.Validate(len(e.features)); err != nil {
		t.Fatal(err)
	}
	s := e.session()
	defer e.releaseSession(s)
	var stats, stExact Stats
	cs, err := newCombinationStream(s, &q, &stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc, ref := newInfluenceTopK(q.K), newInfluenceTopK(q.K)
	searches := 0
	for {
		comb, ok, err := cs.next(acc.threshold())
		if err != nil {
			t.Fatal(err)
		}
		if !ok || acc.full() && comb.score < acc.threshold() {
			break
		}
		if influenceBound(comb.refs, q.Radius) < acc.threshold() {
			continue
		}
		before := s.snapshotReads()
		if err := s.topKInfluence(comb, &q, acc, &stats); err != nil {
			t.Fatal(err)
		}
		mid := s.snapshotReads()
		if err := s.topKInfluenceExact(comb, &q, ref, &stExact); err != nil {
			t.Fatal(err)
		}
		after := s.snapshotReads()
		searches++
		got, want := mid.Sub(before).LogicalReads, after.Sub(mid).LogicalReads
		if got != want || stats.ObjectsScored != stExact.ObjectsScored {
			t.Fatalf("%s, search %d: read %d pages and scored %d objects, the exact search %d and %d",
				label, searches, got, stats.ObjectsScored, want, stExact.ObjectsScored)
		}
		if !slices.Equal(acc.top, ref.top) || len(acc.best) != len(ref.best) {
			t.Fatalf("%s, search %d: top lists differ\nceiling %v\nexact   %v", label, searches, acc.top, ref.top)
		}
		for id, v := range ref.best {
			if acc.best[id] != v {
				t.Fatalf("%s, search %d: object %d scored %v, the exact search %v", label, searches, id, acc.best[id], v)
			}
		}
	}
	return acc.results(), searches
}

// dupEngine is w's engine with every object location held by copies
// objects, of ids id·copies to id·copies+copies−1, in one object tree: the
// copies price the same under every combination, so prices tie at the
// K-th place.
func dupEngine(t *testing.T, w *testWorld, copies int) *Engine {
	t.Helper()
	all, err := w.engine.allObjects()
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]index.Object, 0, copies*len(all))
	for _, en := range all {
		for j := 0; j < copies; j++ {
			objs = append(objs, index.Object{ID: en.ItemID*int64(copies) + int64(j), Location: en.Point()})
		}
	}
	oidx, err := index.BuildObjectIndex(objs, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineOverParts([]*index.ObjectIndex{oidx}, 0, w.engine.FeatureGroups(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The three pre-tests of topKInfluence — the member reaches, the tabled
// ceiling (a leaf's taken from √Dist2) and the floor at the K-th best leaf
// price pushed — leave the influence search as it was: searched in
// lockstep with the exact-price reference, every combination's search
// reads the same pages, scores the same objects and leaves the same top
// list and best scores. This holds on both index kinds, at c = 2 and 3,
// over one and four object parts and over a tree where three objects share
// every location (so prices tie at the K-th place), at K = 1, 10, 40 and
// |O| + 5 (the floor never set), at the workload-like radii of randQuery
// and at radii that push most exponents past the table's end (0.003, where
// x > 64 from a distance of 0.19 on) or every one toward 0 (10). The
// answer is STPS's and the oracle's, to the bit.
func TestInfluenceCeilSearchUnchanged(t *testing.T) {
	// K = |O| + 5 never fills the accumulator, so every search runs the
	// stream to its end: it runs on a world small enough for that.
	worlds := []struct{ objects, features int }{{300, 0}, {30, 12}}
	queries, searches := 0, 0
	for _, c := range []int{2, 3} {
		for _, kind := range []index.Kind{index.SRT, index.IR2} {
			for wi, size := range worlds {
				const copies = 3
				features := size.features
				if wi == 0 {
					features = 220 - 40*c
				}
				w := buildWorld(t, int64(2610+c), size.objects, features, c, 16, kind, Options{})
				engines := []struct {
					name    string
					e       *Engine
					objects int
				}{
					{"parts=1", partsEngine(t, w, 1, Options{}), size.objects},
					{"parts=4", partsEngine(t, w, 4, Options{}), size.objects},
					{"duplicates", dupEngine(t, w, copies), copies * size.objects},
				}
				for _, eng := range engines {
					ks := []int{1, 10, 40}
					if wi == 1 {
						ks = []int{eng.objects + 5}
					}
					rng := rand.New(rand.NewSource(int64(2620 + c)))
					for trial := 0; trial < 6; trial++ {
						q := w.randQuery(rng, c, InfluenceScore)
						switch {
						case trial%3 == 1 && c == 2:
							// At c = 3 a radius this short enumerates nearly
							// every combination (EXPERIMENTS.md note 1).
							q.Radius = 0.003
						case trial%3 == 2:
							q.Radius = 10
						}
						for _, k := range ks {
							q.K = k
							label := fmt.Sprintf("c=%d %v |O|=%d %s trial %d r=%v K=%d", c, kind, size.objects, eng.name, trial, q.Radius, k)
							got, n := influenceLockstep(t, eng.e, q, label)
							searches += n
							stps, _, err := eng.e.STPS(q)
							if err != nil {
								t.Fatal(err)
							}
							want, err := eng.e.BruteForce(q)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got, stps) || !slices.Equal(got, want) {
								t.Fatalf("%s: answers differ\nlockstep %v\nSTPS     %v\noracle   %v", label, got, stps, want)
							}
							queries++
						}
					}
				}
			}
		}
	}
	if queries < 288 || searches < queries {
		t.Fatalf("only %d queries and %d searches compared", queries, searches)
	}
}
