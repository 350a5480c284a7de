package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/rtree"
)

// oracle answers queries by the score definitions alone, as
// core.Engine.BruteForce does: it scores every data object and keeps the k
// best. BruteForce compares every object with every feature (5·10⁹ pairs
// per query at 50k), which no run can afford; the oracle reads the
// features through a uniform grid instead and stops looking outwards once
// no farther feature can change the object's score. It shares no code
// with the engine's indexes or algorithms, and bench_test.go holds it
// equal to BruteForce on every variant.
type oracle struct {
	objects []index.Object
	sets    [][]index.Feature
	byCell  *grid   // the objects
	all     []*grid // per set, every feature: the NN variant's nearest neighbour ignores keywords
}

func newOracle(objects []index.Object, sets [][]index.Feature) *oracle {
	o := &oracle{objects: objects, sets: sets}
	o.byCell = newGrid(len(objects), func(i int) geo.Point { return objects[i].Location }, 0)
	for _, feats := range sets {
		o.all = append(o.all, newGrid(len(feats), func(i int) geo.Point { return feats[i].Location }, 0))
	}
	return o
}

// scored is one feature relevant to a query with its score s(t).
type scored struct {
	at geo.Point
	s  float64
}

// grid buckets points of the unit square into n×n cells.
type grid struct {
	n     int
	start []int32 // cell → first position in items; len n*n+1
	items []int32 // positions into the bucketed slice
}

func cellOf(v float64, n int) int {
	return min(int(v*float64(n)), n-1)
}

// newGrid buckets count points. cell is the wanted cell width; 0 picks
// about two points per cell.
func newGrid(count int, at func(i int) geo.Point, cell float64) *grid {
	n := int(math.Sqrt(float64(count) / 2))
	if cell > 0 {
		n = int(1 / cell)
	}
	n = max(1, min(n, 1024))
	g := &grid{n: n, start: make([]int32, n*n+1), items: make([]int32, count)}
	for i := 0; i < count; i++ {
		p := at(i)
		g.start[cellOf(p.Y, n)*n+cellOf(p.X, n)+1]++
	}
	for c := 0; c < n*n; c++ {
		g.start[c+1] += g.start[c]
	}
	fill := append([]int32(nil), g.start[:n*n]...)
	for i := 0; i < count; i++ {
		p := at(i)
		c := cellOf(p.Y, n)*n + cellOf(p.X, n)
		g.items[fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// near visits the bucketed points around p ring by ring: ring ρ holds the
// cells at Chebyshev distance ρ from p's cell, and every point in it is at
// least (ρ−1)/n away. It stops before the first ring for which more
// reports that no point at that distance matters.
func (g *grid) near(p geo.Point, more func(minDist float64) bool, visit func(i int32)) {
	cx, cy := cellOf(p.X, g.n), cellOf(p.Y, g.n)
	for ring := 0; ring < g.n; ring++ {
		if ring > 1 && !more(float64(ring-1)/float64(g.n)) {
			return
		}
		for y := max(cy-ring, 0); y <= min(cy+ring, g.n-1); y++ {
			step := 1
			if y != cy-ring && y != cy+ring {
				step = 2 * ring // only the two end cells of an inner row are on the ring
			}
			for x := cx - ring; x <= cx+ring; x += step {
				if x < 0 || x >= g.n {
					continue
				}
				c := y*g.n + x
				for _, i := range g.items[g.start[c]:g.start[c+1]] {
					visit(i)
				}
			}
		}
	}
}

// relevant returns the features of set i with positive textual similarity
// to the query, scored by Definition 1 exactly as the engine scores them.
func (o *oracle) relevant(q *core.Query, i int) (rel []scored, best float64) {
	qk := index.QueryKeywords{Set: q.Keywords[i], Lambda: q.Lambda, Sim: q.Similarity}
	for _, f := range o.sets[i] {
		if !f.Keywords.Intersects(qk.Set) {
			continue
		}
		s := index.Score(rtree.Entry{Score: f.Score, Keywords: f.Keywords}, qk)
		rel = append(rel, scored{f.Location, s})
		best = math.Max(best, s)
	}
	return rel, best
}

// topK returns the exact answer in the engine's result order.
func (o *oracle) topK(q core.Query) []core.Result {
	total := make([]float64, len(o.objects))
	for i := range o.sets {
		o.addSet(&q, i, total)
	}
	top := make([]core.Result, 0, q.K+1)
	for j, obj := range o.objects {
		r := core.Result{ID: obj.ID, Location: obj.Location, Score: total[j]}
		if len(top) == q.K && !core.ResultBefore(r, top[q.K-1]) {
			continue
		}
		at := sort.Search(len(top), func(n int) bool { return core.ResultBefore(r, top[n]) })
		top = append(top, core.Result{})
		copy(top[at+1:], top[at:])
		top[at] = r
		top = top[:min(len(top), q.K)]
	}
	return top
}

// addSet adds τ_i(p) to total for every object p.
func (o *oracle) addSet(q *core.Query, i int, total []float64) {
	if q.Variant == core.NearestNeighborScore {
		qk := index.QueryKeywords{Set: q.Keywords[i], Lambda: q.Lambda, Sim: q.Similarity}
		feats := o.sets[i]
		for j, obj := range o.objects {
			nn, bestDist := -1, math.Inf(1)
			o.all[i].near(obj.Location,
				func(minDist float64) bool { return minDist <= bestDist },
				func(f int32) {
					if d := feats[f].Location.Dist(obj.Location); d < bestDist {
						nn, bestDist = int(f), d
					}
				})
			if nn >= 0 && feats[nn].Keywords.Intersects(qk.Set) {
				total[j] += index.Score(rtree.Entry{Score: feats[nn].Score, Keywords: feats[nn].Keywords}, qk)
			}
		}
		return
	}
	rel, sMax := o.relevant(q, i)
	if len(rel) == 0 {
		return
	}
	r := q.Radius
	if q.Variant == core.RangeScore {
		// Few features are relevant, so it is cheaper to hand each one's
		// score to the objects around it than to search from every object.
		best := make([]float64, len(o.objects))
		for _, t := range rel {
			o.byCell.near(t.at,
				func(minDist float64) bool { return minDist <= r },
				func(j int32) {
					if t.s > best[j] && t.at.Dist(o.objects[j].Location) <= r {
						best[j] = t.s
					}
				})
		}
		for j, b := range best {
			total[j] += b
		}
		return
	}
	// A feature at distance d can raise best only if sMax·2^(−d/r) > best,
	// that is within reach = r·log2(sMax/best); the margin keeps the
	// shortcut on the safe side of rounding, and the score itself is
	// computed as the engine computes it.
	g := newGrid(len(rel), func(i int) geo.Point { return rel[i].at }, r/2)
	for j, obj := range o.objects {
		best, reach := 0.0, math.Inf(1)
		g.near(obj.Location,
			func(minDist float64) bool { return minDist <= reach },
			func(f int32) {
				t := rel[f]
				if t.s <= best || t.at.Dist2(obj.Location) > reach*reach {
					return
				}
				if s := t.s * math.Exp2(-t.at.Dist(obj.Location)/r); s > best {
					best, reach = s, r*math.Log2(sMax/s)*(1+1e-9)
				}
			})
		total[j] += best
	}
}

// sameAnswer reports whether got is the oracle's answer: the same ids in
// the same order with bit-equal scores.
func sameAnswer(got []resultRow, want []core.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if got[i].ID != w.ID || got[i].Score != w.Score {
			return false
		}
	}
	return true
}

// answers computes the oracle's answer to every query, on all CPUs.
func (o *oracle) answers(queries []core.Query) [][]core.Result {
	out := make([][]core.Result, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				out[i] = o.topK(queries[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// countWrong counts the operations of a checked pass whose answer is not
// the oracle's; plan maps operations to queries (-1: not a query).
func countWrong(got [][]resultRow, plan []int, want [][]core.Result) int {
	wrong := 0
	for op, q := range plan {
		if q >= 0 && !sameAnswer(got[op], want[q]) {
			wrong++
		}
	}
	return wrong
}
