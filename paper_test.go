package stpq

// paper_test.go runs the experiment rows of the sweep table
// (sweep_test.go): TestPaperShapes asserts the paper's claims on them at a
// test scale, and TestExperiments, behind -experiments, prints
// EXPERIMENTS.md's tables at their own scale.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"stpq/internal/core"
	"stpq/internal/index"
	"stpq/internal/obs"
	"stpq/internal/storage"
)

var experimentsFlag = flag.String("experiments", "", "run TestExperiments over these figures, into experiments_output.txt: all, or a comma list such as table3,fig7")

// measure runs the row's workload with one index kind, query by query, and
// returns each query's Stats. An NN query runs on a fresh engine
// (freshEngine), so it builds every Voronoi cell it needs, as the figures
// measure.
func measure(tb testing.TB, r sweepRow, kind index.Kind, trace bool) []core.Stats {
	tb.Helper()
	key := r.key(kind)
	e := benchEngine(tb, key)
	qs := benchDataset(tb, key).GenQueries(r.queries, r.queryConfig())
	per := make([]core.Stats, len(qs))
	for i, q := range qs {
		q.Trace = trace
		var err error
		switch {
		case r.alg == STDS:
			_, per[i], err = e.STDS(q)
		case r.variant == NearestNeighbor:
			_, per[i], err = freshEngine(tb, e).STPS(q)
		default:
			_, per[i], err = e.STPS(q)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return per
}

// mean is the per-query average of a workload's Stats.
func mean(per []core.Stats) core.Stats {
	var acc core.Stats
	for _, st := range per {
		acc.Add(st)
	}
	return acc.Scale(len(per))
}

// TestPaperShapes runs experiment rows at a test scale — a tenth of the
// paper's cardinalities (10 K objects and 10 K features per set at the
// defaults), 16 queries a point — and asserts the paper's claims on
// deterministic counts only: logical page reads, features pulled, and the
// logical reads of the voronoi.* spans of traced NN queries
// (Stats.VoronoiReads counts physical reads, which a warm pool hides).
// Where this reproduction deviates from the paper (EXPERIMENTS.md notes
// 2–3 and the summary table), the deviation is asserted as it stands, so
// that a change that flips it is noticed. EXPERIMENTS.md's summary table
// links each claim to its subtest here. No wall clock is asserted: the
// paper's time claims are what `make experiments` prints.
func TestPaperShapes(t *testing.T) {
	if raceDetector {
		t.Skip("single-goroutine counts; the race detector adds minutes and nothing to check")
	}
	t.Cleanup(dropFixtures)
	const (
		shapeScale   = 0.1
		shapeQueries = 16
	)
	cache := map[string]shape{}
	// run returns the points of one panel at the test scale, each value
	// once (Figure 13(a)'s anchors repeat its first values); values, when
	// given, restrict the panel to them.
	run := func(t *testing.T, fig, panel string, values ...float64) []shape {
		t.Helper()
		var out []shape
		for _, r := range experimentRows(fig, panel) {
			if r.omit != "" || (len(values) > 0 && !slices.Contains(values, r.value)) {
				continue
			}
			if slices.ContainsFunc(out, func(o shape) bool { return o.row.value == r.value }) {
				continue
			}
			id := fmt.Sprintf("%s/%s/%v", fig, panel, r.value)
			s, ok := cache[id]
			if !ok {
				s = runShape(t, r.at(shapeScale, shapeQueries))
				cache[id] = s
			}
			out = append(out, s)
		}
		if len(out) == 0 {
			t.Fatalf("%s(%s) has no rows for %v", fig, panel, values)
		}
		return out
	}
	at := func(t *testing.T, fig, panel string, value float64) shape { return run(t, fig, panel, value)[0] }
	logPanel := func(t *testing.T, name string, ps []shape) {
		t.Helper()
		for _, p := range ps {
			t.Logf("%s %s: reads SRT %.1f IR2 %.1f, pulled %.1f, voronoi reads SRT %.1f IR2 %.1f",
				name, p.row.label(), p.reads[0], p.reads[1], p.pulled[0], p.voronoi[0], p.voronoi[1])
		}
	}

	t.Run("Table3/stds-vs-stps", func(t *testing.T) {
		// The paper's claim is time at full scale ("orders of magnitude");
		// on logical reads at the test scale STDS reads 12× STPS's pages on
		// SRT and 5× on IR².
		stds, stps := at(t, "Table3", "a", defFeatures), at(t, "Fig7", "a", defFeatures)
		for i, kind := range kinds {
			ratio := stds.reads[i] / stps.reads[i]
			t.Logf("%v: STDS %.1f reads, STPS %.1f: %.1fx", kind, stds.reads[i], stps.reads[i], ratio)
			if floor := [...]float64{10, 4}[i]; ratio < floor {
				t.Errorf("%v: STDS reads %.1fx STPS's, want at least %vx", kind, ratio, floor)
			}
		}
	})
	t.Run("Table3/note2-ir2-not-worse-for-stds", func(t *testing.T) {
		p := at(t, "Table3", "a", defFeatures)
		t.Logf("STDS reads: SRT %.1f, IR2 %.1f", p.reads[0], p.reads[1])
		if p.reads[1] > p.reads[0] {
			t.Errorf("IR2 reads %.1f > SRT %.1f: note 2's deviation flipped", p.reads[1], p.reads[0])
		}
	})
	t.Run("Fig7a/sublinear-in-features", func(t *testing.T) {
		ps := run(t, "Fig7", "a")
		logPanel(t, "Fig7a", ps)
		first, last := ps[0], ps[len(ps)-1]
		grow := last.row.value / first.row.value
		for i, kind := range kinds {
			if r := last.reads[i] / first.reads[i]; r >= grow {
				t.Errorf("%v: reads grow %.1fx over %vx the features", kind, r, grow)
			}
		}
		if r := last.pulled[0] / first.pulled[0]; r >= grow {
			t.Errorf("features pulled grow %.1fx over %vx the features", r, grow)
		}
	})
	t.Run("Fig7b/objects-barely-matter", func(t *testing.T) {
		// Pinned deviation: reads fall as |O| grows, by more than the 10 %
		// the paper's "barely" allowed until the range stream took its
		// partner order (SRT 149.9 → 136.5 and IR² 250.2 → 244.3 before,
		// 129.1 → 109.2 and 249.4 → 223.3 after). More objects put the k
		// answers at higher combination scores, and partner order pulls
		// only the features a partner within 2r lifts to the k-th score:
		// 43.8 features a query at 5K objects, 22.0 at 100K. They fall at
		// every step but SRT's last: since the inner slots keep each
		// keyword's best score (107.1 → 90.4 and 143.9 → 116.9) SRT's
		// feature pages fall 83.6 → 82.7 a query from 50K to 100K objects,
		// less than its object pages rise, 5.8 → 7.8, so its reads rise
		// 89.4 → 90.4 there. SRT's fall by less than a quarter (99.5 →
		// 81.9 since the signatures took tokens); IR²'s by more than a
		// quarter and less than 30 % (126.0 → 99.2), where it fell by less
		// than a quarter before the tokens (143.9 → 116.9): they price a
		// leaf's lone query keyword at two keywords, which cuts most where
		// a query pulls few features and reads its leaves by their bound.
		ps := run(t, "Fig7", "b")
		logPanel(t, "Fig7b", ps)
		for i, kind := range kinds {
			for j := 1; j < len(ps); j++ {
				rises := kind == index.SRT && j == len(ps)-1
				if (ps[j].reads[i] > ps[j-1].reads[i]) != rises {
					t.Errorf("%v: reads %.1f at %s after %.1f at %s: want a rise %v, the deviation moved", kind,
						ps[j].reads[i], ps[j].row.label(), ps[j-1].reads[i], ps[j-1].row.label(), rises)
				}
			}
			first, last := ps[0].reads[i], ps[len(ps)-1].reads[i]
			if kind == index.SRT && first > 1.25*last {
				t.Errorf("%v: reads fall from %.1f to %.1f over |O|, more than a quarter", kind, first, last)
			}
			if kind == index.IR2 && (first <= 1.25*last || first > 1.3*last) {
				t.Errorf("%v: reads fall from %.1f to %.1f over |O|, not by a quarter to 30 %%: the deviation moved", kind, first, last)
			}
		}
	})
	t.Run("Fig7c/grows-with-c", func(t *testing.T) {
		ps := run(t, "Fig7", "c")
		logPanel(t, "Fig7c", ps)
		for j := 1; j < len(ps); j++ {
			for i, kind := range kinds {
				if ps[j].reads[i] <= ps[j-1].reads[i] {
					t.Errorf("%v: reads at %s (%.1f) not above %s (%.1f)", kind,
						ps[j].row.label(), ps[j].reads[i], ps[j-1].row.label(), ps[j-1].reads[i])
				}
			}
			if ps[j].pulled[0] <= ps[j-1].pulled[0] {
				t.Errorf("features pulled at %s not above %s", ps[j].row.label(), ps[j-1].row.label())
			}
		}
	})
	t.Run("Fig7d/keywords-deviation", func(t *testing.T) {
		// The paper: more indexed keywords cost slightly more. SRT does
		// from 64 keywords to 256 (82.5, 90.0, 88.8, 89.9), but falls at
		// 192: its inner pages hold fewer slots as the score tables widen
		// (9.4 inner reads a query at 64 keywords, 20.5 at 256), and the
		// singleton tokens price its leaves lower over a wider vocabulary.
		// IR² deviates: it falls at every step, below its reads at 64
		// (119.8, 115.1, 100.0, 96.9). Its leaves are clustered by place
		// alone, and over a wider vocabulary fewer of a leaf's features
		// hold any one query keyword, so the leaf's levels price it lower.
		// Before the tokens SRT rose at every step (87.4, 100.5, 101.3,
		// 101.8) and IR² rose to 128 keywords (131.3, 136.4, 122.4, 114.9);
		// before the score tables SRT deviated instead (101.3, 126.4,
		// 122.1, 120.5) and IR² rose at every step (177.7, 247.3, 264.2,
		// 264.8).
		ps := run(t, "Fig7", "d")
		logPanel(t, "Fig7d", ps)
		first, last := ps[0], ps[len(ps)-1]
		if last.reads[0] <= first.reads[0] {
			t.Errorf("SRT reads %.1f at %s, not above %.1f at %s", last.reads[0], last.row.label(), first.reads[0], first.row.label())
		}
		if last.reads[1] >= first.reads[1] {
			t.Errorf("IR2 reads %.1f at %s, not below %.1f at %s: the deviation moved", last.reads[1], last.row.label(), first.reads[1], first.row.label())
		}
		for i, kind := range kinds {
			for j, rises := range [][]bool{{true, false, true}, {false, false, false}}[i] {
				a, b := ps[j], ps[j+1]
				if (b.reads[i] > a.reads[i]) != rises {
					t.Errorf("%v reads %.1f at %s after %.1f at %s: want a rise %v, the deviation moved",
						kind, b.reads[i], b.row.label(), a.reads[i], a.row.label(), rises)
				}
			}
		}
	})
	t.Run("Fig7-9/srt-beats-ir2", func(t *testing.T) {
		// At every point but those of irBeatsSRT.
		for _, fig := range []string{"Fig7", "Fig8", "Fig9"} {
			for _, panel := range []string{"a", "b", "c", "d"} {
				for _, p := range run(t, fig, panel) {
					checkSRTBeatsIR2(t, fig+"("+panel+")", p)
				}
			}
		}
	})
	t.Run("Fig8-9a/radius", func(t *testing.T) {
		// Smaller r costs more, and SRT's gain over IR² shrinks on the
		// real data (Fig. 8). On the synthetic data (Fig. 9) it grows, a
		// pinned deviation since the inner slots keep each keyword's best
		// score: IR²'s leaf reads fell most where a query reads few leaves
		// (142.1 → 48.7 a query at r = 0.08, 231.3 → 137.4 at r = 0.005),
		// and the gain went from 1.78× at r = 0.005 and 2.12× at 0.08 to
		// 1.35× and 1.21×.
		for _, fig := range []string{"Fig8", "Fig9"} {
			ps := run(t, fig, "a")
			logPanel(t, fig+"a", ps)
			for j := 1; j < len(ps); j++ {
				for i, kind := range kinds {
					if ps[j].reads[i] > ps[j-1].reads[i] {
						t.Errorf("%s %v: reads rise from %s to %s", fig, kind, ps[j-1].row.label(), ps[j].row.label())
					}
				}
			}
			first, last := ps[0], ps[len(ps)-1]
			if g0, g1 := first.reads[1]/first.reads[0], last.reads[1]/last.reads[0]; (g0 < g1) != (fig == "Fig8") {
				t.Errorf("%s: SRT's gain %.2fx at %s against %.2fx at %s: the shape moved", fig, g0, first.row.label(), g1, last.row.label())
			}
		}
	})
	t.Run("Fig8-9b/k", func(t *testing.T) {
		for _, fig := range []string{"Fig8", "Fig9"} {
			ps := run(t, fig, "b")
			logPanel(t, fig+"b", ps)
			for j := 1; j < len(ps); j++ {
				for i, kind := range kinds {
					if ps[j].reads[i] < ps[j-1].reads[i] {
						t.Errorf("%s %v: reads fall from %s to %s", fig, kind, ps[j-1].row.label(), ps[j].row.label())
					}
				}
			}
		}
	})
	t.Run("Fig8-9c/srt-beats-ir2-at-every-lambda", func(t *testing.T) {
		for _, fig := range []string{"Fig8", "Fig9"} {
			ps := run(t, fig, "c")
			logPanel(t, fig+"c", ps)
			for _, p := range ps {
				checkSRTBeatsIR2(t, fig+"(c)", p)
			}
		}
	})
	t.Run("Fig9d/one-keyword-is-cheap", func(t *testing.T) {
		// The paper: one queried keyword is the cheap case. IR² holds it
		// (91.0 reads, 115.1 at 3 keywords, 128.7 at 9) and SRT does not,
		// a pinned deviation (92.0, 90.0 and 88.9): one keyword has no
		// pair for the inner slots' pair signatures to prune on, and no
		// second keyword whose best score a slot's table could price apart
		// from the first's. The singleton tokens price it instead, at two
		// keywords wherever no feature below holds it alone, and cut IR²'s
		// reads at one keyword 144.6 → 91.0 and SRT's 126.8 → 92.0. IR²
		// held the claim until the inner slots kept each keyword's best
		// score and lost it until the tokens (144.6 reads, 136.4 at 3).
		ps := run(t, "Fig9", "d")
		logPanel(t, "Fig9d", ps)
		for _, p := range ps[1:] {
			for i, kind := range kinds {
				if cheap := kind == index.IR2; (ps[0].reads[i] < p.reads[i]) != cheap {
					t.Errorf("%v: %s reads %.1f against %s's %.1f: want fewer %v, the shape moved", kind, ps[0].row.label(), ps[0].reads[i], p.row.label(), p.reads[i], cheap)
				}
			}
		}
	})
	t.Run("Fig10/influence-costs-more-than-range", func(t *testing.T) {
		// The paper: comparable, slightly more. At the test scale
		// influence reads about 11× range's pages.
		infl, rng := at(t, "Fig10", "a", defFeatures), at(t, "Fig7", "a", defFeatures)
		for i, kind := range kinds {
			t.Logf("%v: influence %.1f reads, range %.1f: %.1fx", kind, infl.reads[i], rng.reads[i], infl.reads[i]/rng.reads[i])
			if infl.reads[i] <= rng.reads[i] {
				t.Errorf("%v: influence reads %.1f, not above range's %.1f", kind, infl.reads[i], rng.reads[i])
			}
		}
	})
	t.Run("Fig11a/k-rises-deviation", func(t *testing.T) {
		// The paper: large k relatively cheaper for influence on real data.
		// Here every step of k reads more pages.
		ps := run(t, "Fig11", "a")
		logPanel(t, "Fig11a", ps)
		for j := 1; j < len(ps); j++ {
			for i, kind := range kinds {
				if ps[j].reads[i] <= ps[j-1].reads[i] {
					t.Errorf("%v: reads at %s not above %s: the deviation flipped", kind, ps[j].row.label(), ps[j-1].row.label())
				}
			}
		}
	})
	// Figure 13(a) stops at the default |F_i|: at the test scale its two
	// largest points take 25 s.
	fig13a := []float64{cardinalities[0], defFeatures}
	t.Run("Fig13/voronoi-dominates", func(t *testing.T) {
		for _, p := range slices.Concat(run(t, "Fig13", "a", fig13a...), run(t, "Fig13", "b")) {
			for i, kind := range kinds {
				if share := p.voronoi[i] / p.reads[i]; share <= 0.5 {
					t.Errorf("%s %v: voronoi spans read %.0f%% of the pages", p.row.label(), kind, 100*share)
				}
			}
		}
		def, infl, rng := at(t, "Fig13", "b", defObjects), at(t, "Fig10", "a", defFeatures), at(t, "Fig7", "a", defFeatures)
		for i, kind := range kinds {
			t.Logf("%v at the default point: NN %.1f reads (voronoi %.0f%%), influence %.1f, range %.1f",
				kind, def.reads[i], 100*def.voronoi[i]/def.reads[i], infl.reads[i], rng.reads[i])
			if def.reads[i] <= infl.reads[i] || def.reads[i] <= rng.reads[i] {
				t.Errorf("%v: NN is not the most expensive variant", kind)
			}
		}
	})
	t.Run("Fig13a/explodes-with-features", func(t *testing.T) {
		ps := run(t, "Fig13", "a", fig13a...)
		logPanel(t, "Fig13a", ps)
		grow := ps[1].row.value / ps[0].row.value
		for i, kind := range kinds {
			if r := ps[1].reads[i] / ps[0].reads[i]; r <= grow {
				t.Errorf("%v: reads grow %.1fx over %vx the features, want super-linear", kind, r, grow)
			}
		}
	})
	t.Run("Fig13b/objects-fall-deviation", func(t *testing.T) {
		// The paper: NN cost grows with |O|. Here denser objects need
		// fewer combinations.
		ps := run(t, "Fig13", "b")
		logPanel(t, "Fig13b", ps)
		for i, kind := range kinds {
			if first, last := ps[0].reads[i], ps[len(ps)-1].reads[i]; last >= first {
				t.Errorf("%v: reads %.1f at the largest |O|, not below %.1f: the deviation flipped", kind, last, first)
			}
		}
	})
	t.Run("Fig13-14/note3-srt-wins-nn", func(t *testing.T) {
		// The paper: SRT reads fewer pages than IR² on NN queries. Both
		// build cells from the same location layer, so their Voronoi reads
		// are equal and SRT's keyword clustering decides the rest.
		for _, p := range slices.Concat(run(t, "Fig13", "a", fig13a...), run(t, "Fig13", "b"),
			run(t, "Fig14", "a_real"), run(t, "Fig14", "b_synthetic")) {
			if p.reads[0] >= p.reads[1] || p.voronoi[0] > p.voronoi[1] {
				t.Errorf("%s %s: SRT reads %.1f (voronoi %.1f), IR2 %.1f (voronoi %.1f): SRT does not win",
					p.row.fig, p.row.label(), p.reads[0], p.voronoi[0], p.reads[1], p.voronoi[1])
			}
		}
	})
	t.Run("Fig14/k", func(t *testing.T) {
		// The paper: on synthetic data NN cost grows with k, on real data
		// k barely matters. The synthetic half holds; on the real surrogate
		// reads grow with k as well (a deviation).
		for _, panel := range []string{"a_real", "b_synthetic"} {
			ps := run(t, "Fig14", panel)
			logPanel(t, "Fig14"+panel, ps)
			for j := 1; j < len(ps); j++ {
				for i, kind := range kinds {
					if ps[j].reads[i] < ps[j-1].reads[i] {
						t.Errorf("%s %v: reads fall from %s to %s", panel, kind, ps[j-1].row.label(), ps[j].row.label())
					}
				}
			}
		}
	})
}

// shape is one figure point run at the test scale: per index kind (in
// kinds order) the per-query means of logical reads, features pulled and
// the logical reads of the voronoi.* spans.
type shape struct {
	row                    sweepRow
	reads, pulled, voronoi [2]float64
}

// runShape runs one row on both index kinds; NN queries are traced.
func runShape(t *testing.T, r sweepRow) shape {
	t.Helper()
	s := shape{row: r}
	for i, kind := range kinds {
		per := measure(t, r, kind, r.variant == NearestNeighbor)
		for _, st := range per {
			s.reads[i] += float64(st.LogicalReads)
			s.pulled[i] += float64(st.FeaturesPulled)
			s.voronoi[i] += float64(voronoiReads(st.Trace))
		}
		n := float64(len(per))
		s.reads[i], s.pulled[i], s.voronoi[i] = s.reads[i]/n, s.pulled[i]/n, s.voronoi[i]/n
	}
	return s
}

// irBeatsSRT are the range points of Figures 7–9 where IR² reads fewer
// pages than SRT, a pinned deviation from the paper's claim that SRT reads
// fewer everywhere. At λ = 0.9 on the synthetic data (IR² 98.2 reads a
// query, SRT 110.2) nine tenths of a bound is the keyword term, which the
// pair signatures cap alike on both trees; since the inner slots keep
// each keyword's best score IR² reads fewer leaves there (82.1 a query
// against 94.1). Before, SRT read 113.9 and IR² 118.2. At one query keyword
// on the synthetic data (IR² 91.0, SRT 92.0) since the singleton tokens:
// they cut IR²'s reads there 144.6 → 91.0 and SRT's 126.8 → 92.0.
var irBeatsSRT = map[string]bool{"Fig9(c) lambda = 0.9": true, "Fig9(d) keywords = 1": true}

// checkSRTBeatsIR2 fails unless SRT reads fewer pages than IR² at the
// point p of figure panel fig, or, at the points of irBeatsSRT, more.
func checkSRTBeatsIR2(t *testing.T, fig string, p shape) {
	t.Helper()
	if deviation := irBeatsSRT[fig+" "+p.row.label()]; (p.reads[0] >= p.reads[1]) != deviation {
		t.Errorf("%s %s: SRT reads %.1f, IR2 %.1f: want IR2 fewer %v", fig, p.row.label(), p.reads[0], p.reads[1], deviation)
	}
}

// voronoiReads sums the logical reads of the outermost voronoi.* spans.
func voronoiReads(s *obs.Span) int64 {
	if s == nil {
		return 0
	}
	if strings.HasPrefix(s.Name, "voronoi.") {
		return s.LogicalReads
	}
	var n int64
	for _, c := range s.Children {
		n += voronoiReads(c)
	}
	return n
}

// figureTitles head each figure's table, as EXPERIMENTS.md names them.
var figureTitles = map[string]string{
	"Table3": "Table 3: STDS execution time, synthetic",
	"Fig7":   "Figure 7: STPS scalability, synthetic, range score",
	"Fig8":   "Figure 8: STPS query parameters, real dataset, range score",
	"Fig9":   "Figure 9: STPS query parameters, synthetic, range score",
	"Fig10":  "Figure 10: STPS scalability, synthetic, influence score",
	"Fig11":  "Figure 11: STPS influence score, real dataset",
	"Fig12":  "Figure 12: STPS query parameters, synthetic, influence score",
	"Fig13":  "Figure 13: STPS nearest-neighbor score, synthetic",
	"Fig14":  "Figure 14: STPS nearest-neighbor score, vary k",
}

// TestExperiments regenerates experiments_output.txt, the raw tables of
// EXPERIMENTS.md: every experiment row of the sweep table at its own scale,
// one line per figure point, each cell the per-query mean of modeled I/O
// (physical page reads × 100 µs) plus measured CPU — the paper's stacked
// bars — and, for the NN variant, the Voronoi cells' share. It runs only
// under -experiments (`make experiments`); at paper scale it takes minutes.
func TestExperiments(t *testing.T) {
	if *experimentsFlag == "" {
		t.Skip("run with -experiments all (make experiments)")
	}
	want := map[string]bool{}
	for _, f := range strings.Split(strings.ToLower(*experimentsFlag), ",") {
		want[strings.TrimSpace(f)] = true
	}
	f, err := os.Create("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := bufio.NewWriter(io.MultiWriter(f, os.Stdout))
	line := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	line("# stpq experiments (make experiments), figures: %s", *experimentsFlag)
	line("# commit %s, %s", describeCommit(), describeHost())
	line("# cells: per-query mean of modeled I/O (physical reads x 100 us, 256-page pool per index) + measured CPU = total ms")

	defer dropFixtures()
	start := time.Now()
	var (
		fig, group string
		world      fixtureKey
	)
	for _, r := range sweepTable {
		if r.bench || !(want["all"] || want[strings.ToLower(r.fig)]) {
			continue
		}
		if r.fig != fig {
			fig = r.fig
			line("\n=== %s (scale %v, avg of %d queries) ===", figureTitles[fig], r.scale, r.queries)
		}
		if g := fmt.Sprintf("%s/%s/%v", fig, r.panel, r.scale); g != group {
			group = g
			vary := "vary " + paramNames[r.param].vary
			if len(r.panel) > 1 { // Figure 14: "a_real" is "(a) real"
				vary = fmt.Sprintf("(%s) %s, %s", r.panel[:1], r.panel[2:], vary)
			}
			if r.scale != 1 {
				vary += fmt.Sprintf(" (scale %v)", r.scale)
			}
			if r.variant == NearestNeighbor {
				line("%-28s %s", vary, "SRT total ms  IR2 total ms")
			} else {
				line("%-28s %s", vary, "SRT (io+cpu=total ms)  IR2 (io+cpu=total ms)")
			}
		}
		if r.omit != "" {
			line("  %-26s %s", r.label(), r.omit)
			continue
		}
		// Hold one world at a time: paper-scale worlds take gigabytes.
		if k := r.key(index.SRT); k != world {
			dropFixtures()
			runtime.GC()
			world = k
		}
		cells := make([]string, len(kinds))
		for i, kind := range kinds {
			st := mean(measure(t, r, kind, false))
			if r.variant == NearestNeighbor {
				cells[i] = fmt.Sprintf("%8.1f (voronoi: io %6.1f cpu %6.1f)", ms(st.Total()),
					ms(storage.DefaultCostModel().IOTime(st.VoronoiReads)), ms(st.VoronoiCPUTime))
			} else {
				cells[i] = fmt.Sprintf("%7.1f+%7.1f=%8.1f", ms(st.IOTime), ms(st.CPUTime), ms(st.Total()))
			}
		}
		line("  %-26s %s", r.label(), strings.Join(cells, "  "))
	}
	line("\ntotal time: %v", time.Since(start).Round(time.Second))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// describeCommit names the checked-out commit, "-dirty" when the tree has
// uncommitted changes.
func describeCommit() string {
	b, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// describeHost names the machine: host name, CPU model and count, OS,
// architecture and Go version.
func describeHost() string {
	host, _ := os.Hostname()
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host %s: %s x %d, %s/%s, %s", host, cpu, runtime.NumCPU(),
		runtime.GOOS, runtime.GOARCH, runtime.Version())
}
