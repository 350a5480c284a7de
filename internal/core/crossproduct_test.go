package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
)

// sortedCrossProduct is the reference the combination stream is held to:
// D_1×…×D_c over the features cs pulled, ∅ included where it was appended,
// keeping what the variant's rule lets through — members pairwise within 2r
// for range, Voronoi cells that can meet for NN (read from the engine's
// store), any members for influence. Each combination's score sums its
// members in set order, as pushVec and BruteForce do, and the scores come
// back in descending order. It shares no code with the stream's generator.
func sortedCrossProduct(t testing.TB, cs *combinationStream) []float64 {
	t.Helper()
	q, d := cs.q, cs.d
	// reach[i][a] is the cell reach of d[i][a], looked up on first use.
	reach := make([][]float64, len(d))
	for i := range d {
		reach[i] = make([]float64, len(d[i]))
		for a := range reach[i] {
			reach[i][a] = -1
		}
	}
	reachOf := func(i, a int) float64 {
		if reach[i][a] < 0 {
			c, err := cs.e.cellOf(i, &d[i][a], new(Stats), nil)
			if err != nil {
				t.Fatal(err)
			}
			reach[i][a] = c.reach
		}
		return reach[i][a]
	}
	valid := func(i, a, j, b int) bool {
		u, v := &d[i][a], &d[j][b]
		if u.virtual || v.virtual {
			return true
		}
		switch q.Variant {
		case RangeScore:
			return u.loc.Dist(v.loc) <= 2*q.Radius
		case NearestNeighborScore:
			r := reachOf(i, a) + reachOf(j, b)
			return u.loc.Dist2(v.loc) <= r*r
		}
		return true
	}
	var out []float64
	vec := make([]int, len(d))
	var cross func(i int, score float64)
	cross = func(i int, score float64) {
		if i == len(d) {
			out = append(out, score)
			return
		}
	next:
		for a := range d[i] {
			for j := range i {
				if !valid(i, a, j, vec[j]) {
					continue next
				}
			}
			vec[i] = a
			cross(i+1, score+d[i][a].score)
		}
	}
	cross(0, 0)
	slices.SortFunc(out, func(a, b float64) int { return cmp.Compare(b, a) })
	return out
}

// threshold is τ, the best score any unseen combination can reach.
func (cs *combinationStream) threshold() float64 {
	tau, _, _ := cs.attain()
	return tau
}

// pull takes one step of set i's stream, from the order setBound names.
func (cs *combinationStream) pull(i int) error {
	sumP, sumA := cs.sums()
	_, from := cs.setBound(i, sumP, sumA)
	return cs.pullFrom(i, from)
}

// pullOrder says who picks the set each feature is pulled from: the stream,
// by Definition 5, or the test, taking the sets in turn.
type pullOrder int

const (
	prioritized pullOrder = iota
	roundRobin
)

func (o pullOrder) String() string {
	if o == roundRobin {
		return "round-robin"
	}
	return "prioritized"
}

// drainScores pulls every combination from cs, never telling it a floor,
// and returns their scores in emission order; it fails the test if a
// combination of the same members comes twice. Under roundRobin the test
// pulls the sets in turn, skipping those that are done, until the stream
// has a combination it may emit without pulling, so generation and
// emission meet a pull order other than the stream's own.
func drainScores(t testing.TB, cs *combinationStream, order pullOrder) []float64 {
	t.Helper()
	seen := map[string]bool{}
	var got []float64
	rr := 0
	for {
		for order == roundRobin && !cs.allExhausted() && (cs.heap.Len() == 0 || cs.heap[0].score < cs.threshold()-1e-12) {
			for cs.exhausted[rr] {
				rr = (rr + 1) % len(cs.d)
			}
			if err := cs.pull(rr); err != nil {
				t.Fatal(err)
			}
			rr = (rr + 1) % len(cs.d)
		}
		comb, ok, err := cs.next(negInf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
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
			t.Fatalf("combination %s emitted twice", key)
		}
		seen[key] = true
		got = append(got, comb.score)
	}
}

// tableSet is one synthetic feature set: the scores its stream yields (in
// any order here; the stream's heap sorts them) and whether it ends in ∅ as
// a real stream does, or just runs dry.
type tableSet struct {
	scores  []float64
	virtual bool
}

// eighths returns n/8 for each n: scores that tie often and sum exactly.
func eighths(n ...int) []float64 {
	out := make([]float64, len(n))
	for i, v := range n {
		out[i] = float64(v) / 8
	}
	return out
}

// scoreTables are the stream's hard cases: sets of unequal length, with and
// without a final ∅, a set that runs dry, a set that yields only ∅, c = 4,
// and scores that tie, down to all of them.
var scoreTables = []struct {
	name string
	sets []tableSet
}{
	{"c=2 unequal", []tableSet{{eighths(8, 7, 5, 3, 2), true}, {eighths(6, 1), true}}},
	{"c=2 tied", []tableSet{{eighths(4, 4, 4, 2, 2), true}, {eighths(4, 4, 2), true}}},
	{"c=2 no ∅", []tableSet{{eighths(7, 3, 3), false}, {eighths(8, 5, 5, 1), false}}},
	{"c=3 one runs dry", []tableSet{{eighths(8, 6, 6, 2), true}, {eighths(5, 5), false}, {eighths(7, 4, 1), true}}},
	{"c=3 only ∅", []tableSet{{eighths(3, 2, 1), true}, {nil, true}, {eighths(8, 8), true}}},
	{"c=4 mixed", []tableSet{{eighths(8, 4, 4), true}, {eighths(6, 2), false}, {eighths(5), true}, {eighths(7, 7, 3), true}}},
	{"c=4 all tied", []tableSet{{eighths(4, 4), true}, {eighths(4, 4), true}, {eighths(4, 4), false}, {eighths(4, 4), true}}},
}

// tableStream returns a stream of a query of the variant whose per-set
// streams yield the table's features, queued as leaves already resolved,
// at locations drawn from seed. Under the cells rule a feature's cell is
// built against the world's feature index, where the stream and the
// reference both find it.
func tableStream(t testing.TB, sets []tableSet, variant Variant, seed int64) *combinationStream {
	t.Helper()
	c := len(sets)
	w := buildWorld(t, 340, 5, 5, c, 8, index.SRT, Options{})
	rng := rand.New(rand.NewSource(seed))
	q := w.randQuery(rng, c, variant)
	q.Radius = 0.15
	cs := newCombinationStream(w.engine, &q, new(Stats), nil)
	for i, set := range sets {
		st := cs.streams[i]
		st.heap = st.heap[:0]
		if st.pq != nil {
			st.pq.reset()
		}
		for j, s := range set.scores {
			c := candidate{prio: s, ref: int64(j), loc: geo.Point{X: rng.Float64(), Y: rng.Float64()}, slot: slotFinal}
			if st.pq != nil {
				st.queue(&c, geo.RectOf(c.loc))
			} else {
				st.heap.push(c)
			}
		}
		st.exhausted = !set.virtual
	}
	return cs
}

// checkTableStream drains a table stream in the pull order and requires
// the sorted cross product's score sequence, over every feature of the
// tables: a drained stream has pulled each set whole, ∅ included where the
// set ends in it.
func checkTableStream(t testing.TB, sets []tableSet, variant Variant, order pullOrder, seed int64) {
	t.Helper()
	cs := tableStream(t, sets, variant, seed)
	got := drainScores(t, cs, order)
	for i, set := range sets {
		n := len(set.scores)
		if set.virtual {
			n++
		}
		if len(cs.d[i]) != n {
			t.Fatalf("set %d: the stream pulled %d of its %d features", i, len(cs.d[i]), n)
		}
	}
	if want := sortedCrossProduct(t, cs); !slices.Equal(got, want) {
		t.Fatalf("emitted scores %v,\nsorted cross product %v", got, want)
	}
}

// Over the score tables, under each variant's rule and either pull order,
// the stream emits each combination once and the very sequence of scores
// the sorted cross product gives. The name is the one the test had when it
// checked a rank-join lattice generator, kept so that its cases read the
// same across commits; the stream has one generator now.
func TestLazyLatticeEmitsEachVectorOnce(t *testing.T) {
	for _, tc := range scoreTables {
		for _, order := range []pullOrder{prioritized, roundRobin} {
			for _, variant := range []Variant{NearestNeighborScore, RangeScore, InfluenceScore} {
				t.Run(fmt.Sprintf("%s/%v/%v", tc.name, order, variant), func(t *testing.T) {
					checkTableStream(t, tc.sets, variant, order, 341)
				})
			}
		}
	}
}

// encodeTables is decodeTables' inverse for tables scored in eighths 1…8.
func encodeTables(sets []tableSet) []byte {
	out := []byte{byte(len(sets) - 2)}
	for _, set := range sets {
		h := byte(len(set.scores))
		if set.virtual {
			h |= 8
		}
		out = append(out, h)
		for _, s := range set.scores {
			out = append(out, byte(s*8)-1)
		}
	}
	return out
}

// decodeTables reads c ∈ [2, 4] score tables: a byte for c, then per set a
// header byte — its low three bits the number of features, at most 6, bit 3
// whether ∅ ends the set — followed by a byte per feature, scoring
// (1 + b%8)/8. A missing byte reads as 0.
func decodeTables(data []byte) []tableSet {
	at := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sets := make([]tableSet, 2+at()%3)
	for i := range sets {
		h := at()
		sets[i].virtual = h&8 != 0
		for range int(h&7) % 7 {
			sets[i].scores = append(sets[i].scores, float64(1+at()%8)/8)
		}
	}
	return sets
}

// FuzzCombinationStream drains the stream over decoded score tables —
// scored in eighths, so that ties are common — under the variant's rule
// (v%3) and pull order (v/3%2) and requires the sorted cross product's
// score sequence, each combination emitted once.
func FuzzCombinationStream(f *testing.F) {
	for _, tc := range scoreTables {
		for v := range 6 {
			f.Add(int64(341), uint8(v), encodeTables(tc.sets))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, v uint8, data []byte) {
		variant := []Variant{RangeScore, NearestNeighborScore, InfluenceScore}[v%3]
		checkTableStream(t, decodeTables(data), variant, pullOrder(v/3%2), seed)
	})
}
