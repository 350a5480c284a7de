package shard

import (
	"math"
	"testing"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
)

// testData generates a small clustered world shared by the tests.
func testData(seed int64) *datagen.Dataset {
	return datagen.Synthetic(datagen.SyntheticConfig{
		Objects:        500,
		FeaturesPerSet: 400,
		FeatureSets:    2,
		Vocab:          48,
		Clusters:       40,
		Seed:           seed,
	})
}

func buildUnsharded(t *testing.T, ds *datagen.Dataset, kind index.Kind) *core.Engine {
	t.Helper()
	iopts := index.Options{Kind: kind, VocabWidth: ds.VocabWidth, PageSize: 1024}
	oidx, err := index.BuildObjectIndex(ds.Objects, iopts)
	if err != nil {
		t.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		fidxs[i], err = index.BuildFeatureIndex(fs, iopts)
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(oidx, fidxs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func buildSharded(t *testing.T, ds *datagen.Dataset, kind index.Kind, opts Options) *Engine {
	t.Helper()
	opts.Index = index.Options{Kind: kind, VocabWidth: ds.VocabWidth, PageSize: 1024}
	eng, err := New(ds.Objects, ds.FeatureSets, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testQueries(ds *datagen.Dataset, variant core.Variant, seed int64) []core.Query {
	return ds.GenQueries(4, datagen.QueryConfig{
		K: 10, Radius: 0.05, Lambda: 0.5, NumKeywords: 2, Variant: variant, Seed: seed,
	})
}

// TestPartitioningAssignsInRange checks both strategies map every object
// and feature into a valid cell and that the Hilbert split is balanced.
func TestPartitioningAssignsInRange(t *testing.T) {
	ds := testData(42)
	for _, strategy := range []Strategy{HilbertRuns, FixedGrid} {
		for _, shards := range []int{2, 3, 4, 8} {
			part, err := buildPartitioning(ds.Objects, shards, strategy)
			if err != nil {
				t.Fatal(err)
			}
			if part.cells != shards {
				t.Fatalf("%v/%d: cells %d", strategy, shards, part.cells)
			}
			counts := make([]int, shards)
			for _, o := range ds.Objects {
				c := part.assign(o.Location)
				if c < 0 || c >= shards {
					t.Fatalf("%v/%d: cell %d out of range", strategy, shards, c)
				}
				counts[c]++
			}
			for _, fs := range ds.FeatureSets {
				for _, f := range fs {
					if c := part.assign(f.Location); c < 0 || c >= shards {
						t.Fatalf("%v/%d: feature cell %d out of range", strategy, shards, c)
					}
				}
			}
			if strategy == HilbertRuns {
				want := len(ds.Objects) / shards
				for c, n := range counts {
					if n < want/2 || n > want*2 {
						t.Errorf("hilbert/%d: cell %d holds %d objects, want ≈%d", shards, c, n, want)
					}
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	ds := testData(43)
	iopts := index.Options{VocabWidth: ds.VocabWidth, PageSize: 1024}
	if _, err := New(ds.Objects, ds.FeatureSets, Options{Shards: 1, Index: iopts}); err == nil {
		t.Fatal("Shards=1 must be rejected")
	}
	if _, err := New(nil, ds.FeatureSets, Options{Shards: 2, Index: iopts}); err == nil {
		t.Fatal("empty objects must be rejected")
	}
	if _, err := New(ds.Objects, nil, Options{Shards: 2, Index: iopts}); err == nil {
		t.Fatal("empty feature sets must be rejected")
	}
	if _, err := New(ds.Objects, ds.FeatureSets, Options{Shards: 2, Strategy: Strategy(99), Index: iopts}); err == nil {
		t.Fatal("unknown strategy must be rejected")
	}
}

// TestShardedMatchesUnsharded is the core equivalence guarantee: for both
// index kinds, all three variants, both algorithms and several shard
// counts, the engine over shard parts returns byte-identical results —
// same scores AND same tie-break order — as the single engine.
func TestShardedMatchesUnsharded(t *testing.T) {
	ds := testData(44)
	for _, kind := range []index.Kind{index.IR2, index.SRT} {
		single := buildUnsharded(t, ds, kind)
		for _, shards := range []int{2, 4, 8} {
			strategy := HilbertRuns
			if shards == 4 {
				strategy = FixedGrid
			}
			sharded := buildSharded(t, ds, kind, Options{Shards: shards, Strategy: strategy})
			for _, variant := range []core.Variant{core.RangeScore, core.InfluenceScore, core.NearestNeighborScore} {
				for qi, q := range testQueries(ds, variant, 100+int64(shards)) {
					want, _, err := single.STDS(q)
					if err != nil {
						t.Fatal(err)
					}
					for _, alg := range []string{"stds", "stps"} {
						var got []core.Result
						if alg == "stds" {
							got, _, err = sharded.Core().STDS(q)
						} else {
							got, _, err = sharded.STPS(q)
						}
						if err != nil {
							t.Fatalf("%v/%d/%s/%v q%d: %v", kind, shards, alg, variant, qi, err)
						}
						if len(got) != len(want) {
							t.Fatalf("%v/%d/%s/%v q%d: %d results, want %d",
								kind, shards, alg, variant, qi, len(got), len(want))
						}
						for i := range want {
							if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
								t.Fatalf("%v/%d/%s/%v q%d rank %d: got (%d, %v) want (%d, %v)",
									kind, shards, alg, variant, qi, i,
									got[i].ID, got[i].Score, want[i].ID, want[i].Score)
							}
						}
					}
				}
			}
		}
	}
}

// TestUpperBoundIsSound: no object may score above the bound Plan reports
// for the shard whose rectangle holds it.
func TestUpperBoundIsSound(t *testing.T) {
	ds := testData(45)
	sharded := buildSharded(t, ds, index.IR2, Options{Shards: 4})
	for _, variant := range []core.Variant{core.RangeScore, core.InfluenceScore, core.NearestNeighborScore} {
		for _, q := range testQueries(ds, variant, 200) {
			plan, err := sharded.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			q.K = len(ds.Objects)
			res, _, err := sharded.Core().STDS(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(ds.Objects) {
				t.Fatalf("%v: %d of %d objects scored", variant, len(res), len(ds.Objects))
			}
			for _, r := range res {
				for _, sh := range plan {
					if sh.Rect.Contains(r.Location) && r.Score > sh.Bound+1e-9 {
						t.Fatalf("%v shard %d: score %v exceeds bound %v", variant, sh.ID, r.Score, sh.Bound)
					}
				}
			}
		}
	}
}

// TestShardStatsAndTrace checks what the shard counters count: STDS scans every
// part, STPS descends only into the parts a combination's region reaches,
// and the two counters always add up to the shard count — in the stats and
// on the root span.
func TestShardStatsAndTrace(t *testing.T) {
	ds := testData(46)
	sharded := buildSharded(t, ds, index.IR2, Options{Shards: 4})
	shards := sharded.NumShards()
	pruned := 0
	for _, variant := range []core.Variant{core.RangeScore, core.InfluenceScore, core.NearestNeighborScore} {
		for _, q := range testQueries(ds, variant, 300) {
			q.Trace = true
			_, st, err := sharded.Core().STDS(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardFanout != shards || st.ShardPruned != 0 {
				t.Fatalf("%v stds: fanout %d pruned %d over %d shards", variant, st.ShardFanout, st.ShardPruned, shards)
			}
			_, st, err = sharded.STPS(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardFanout < 1 || st.ShardFanout+st.ShardPruned != shards {
				t.Fatalf("%v stps: fanout %d + pruned %d != shards %d", variant, st.ShardFanout, st.ShardPruned, shards)
			}
			pruned += st.ShardPruned
			if st.Trace == nil {
				t.Fatal("trace missing with tracing on")
			}
			if got := st.Trace.Counters["shards_fanout"]; got != int64(st.ShardFanout) {
				t.Fatalf("trace fanout %d, stats %d", got, st.ShardFanout)
			}
			if got := st.Trace.Counters["shards_pruned"]; got != int64(st.ShardPruned) {
				t.Fatalf("trace pruned %d, stats %d", got, st.ShardPruned)
			}
			q.Trace = false
			if _, st, err = sharded.STPS(q); err != nil || st.Trace != nil {
				t.Fatalf("tracing off: trace %v, err %v", st.Trace, err)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no STPS query skipped a shard; the test shows nothing about pruning")
	}
}

// TestExactScoreMatchesEngine: the score oracle over feature parts must
// agree with a one-part oracle at arbitrary locations.
func TestExactScoreMatchesEngine(t *testing.T) {
	ds := testData(47)
	single := buildUnsharded(t, ds, index.IR2)
	sharded := buildSharded(t, ds, index.IR2, Options{Shards: 3})
	for _, variant := range []core.Variant{core.RangeScore, core.InfluenceScore, core.NearestNeighborScore} {
		q := testQueries(ds, variant, 400)[0]
		for _, o := range ds.Objects[:25] {
			a, err := single.ExactScore(q, o.Location)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sharded.Core().ExactScore(q, o.Location)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("%v at %v: single %v sharded %v", variant, o.Location, a, b)
			}
		}
	}
}

// Partner order reads every part's root before it first compares two
// sets, so a range query over four shards pulls and reads about what it
// does over one part: here at most a quarter more of either. And over either
// layout it pulls less than a tenth of the relevant features: a pull order
// that drains a set, as one that lets a set with unread roots price every
// entry of the other at +∞ does, fails on both layouts alike.
func TestPartnerOrderPullsAlikeOverShards(t *testing.T) {
	ds := datagen.Synthetic(datagen.SyntheticConfig{
		Objects: 2000, FeaturesPerSet: 3000, FeatureSets: 2, Vocab: 64, Clusters: 60, Seed: 46,
	})
	qs := ds.GenQueries(24, datagen.QueryConfig{
		K: 10, Radius: 0.01, Lambda: 0.5, NumKeywords: 2, Variant: core.RangeScore, Seed: 47,
	})
	relevant := 0
	for _, q := range qs {
		for i, fs := range ds.FeatureSets {
			for _, f := range fs {
				if f.Keywords.Intersects(q.Keywords[i]) {
					relevant++
				}
			}
		}
	}
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		single := buildUnsharded(t, ds, kind)
		sharded := buildSharded(t, ds, kind, Options{Shards: 4})
		var pulled, reads [2]int
		for _, q := range qs {
			for i, e := range []*core.Engine{single, sharded.Core()} {
				_, st, err := e.STPS(q)
				if err != nil {
					t.Fatal(err)
				}
				pulled[i] += st.FeaturesPulled
				reads[i] += int(st.LogicalReads)
			}
		}
		t.Logf("%v: pulled %d over one part, %d over four, of %d relevant; reads %d and %d",
			kind, pulled[0], pulled[1], relevant, reads[0], reads[1])
		if 4*pulled[1] > 5*pulled[0] || 4*reads[1] > 5*reads[0] {
			t.Errorf("%v: four shards pull %d features and read %d pages, one part %d and %d: more than a quarter more",
				kind, pulled[1], reads[1], pulled[0], reads[0])
		}
		if 10*max(pulled[0], pulled[1]) > relevant {
			t.Errorf("%v: %d and %d features pulled of %d relevant", kind, pulled[0], pulled[1], relevant)
		}
	}
}
