package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stpq"
	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/hilbert"
	"stpq/internal/index"
	"stpq/internal/ingest"
	"stpq/internal/rtree"
	"stpq/internal/serve"
	"stpq/internal/shard"
	"stpq/internal/storage"
	"stpq/internal/voronoi"
)

// ledger collects the per-layer metrics of a traced run by name.
type ledger map[string]float64

// oracleChecks is how many answers a traced run compares with the oracle;
// it compares every answer of DB.TopK with the engine's below it.
const oracleChecks = 16

// sink keeps the drivers' results alive, so that the compiler cannot drop
// the calls being timed.
var sink float64

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// drive times fn, which reports how many calls into the layer it made, as
// one span, and returns the nanoseconds and heap allocations per call.
func (t *tracer) drive(name, req string, fn func() (calls int)) (nsPerCall, allocsPerCall float64) {
	before := mallocs()
	start := time.Now()
	calls := fn()
	end := time.Now()
	allocs := mallocs() - before
	id := t.add(name, req, 0, start, end)
	t.spans[id-1].Calls = calls
	return float64(end.Sub(start)) / float64(calls), float64(allocs) / float64(calls)
}

// strided returns about n of the items, evenly spaced.
func strided[T any](items []T, n int) []T {
	step := max(1, len(items)/n)
	var out []T
	for i := 0; i < len(items); i += step {
		out = append(out, items[i])
	}
	return out
}

// pagesOf lists the pages of a tree, root first.
func pagesOf(t *rtree.Tree) ([]storage.PageID, error) {
	pages := []storage.PageID{t.Root()}
	for i := 0; i < len(pages); i++ {
		n, err := t.Node(pages[i])
		if err != nil {
			return nil, err
		}
		for _, e := range n.Entries {
			if !e.Leaf {
				pages = append(pages, e.Child)
			}
		}
	}
	return pages, nil
}

// lower is the workload's data indexed directly, below the public API: the
// trees the layer drivers call into and the single engine that
// core.stps_us is timed on.
type lower struct {
	objects  *index.ObjectIndex
	features []*index.FeatureIndex
	eng      *core.Engine
}

// pools returns the buffer pools the engine reads through.
func (lo *lower) pools() []*storage.BufferPool {
	pools := []*storage.BufferPool{lo.objects.Tree().Pool()}
	for _, f := range lo.features {
		pools = append(pools, f.Tree().Pool())
	}
	return pools
}

func (lo *lower) poolStats() storage.Stats {
	var st storage.Stats
	for _, p := range lo.pools() {
		st.Add(p.Stats())
	}
	return st
}

func indexOptions(w workload, wd *world) index.Options {
	return index.Options{VocabWidth: wd.ds.VocabWidth, BufferPages: w.Buffer}
}

// driveLayers builds the workload's indexes as DB.Build does and times
// calls into the public functions of every layer below the engine, on
// those trees and at the workload's own query keywords and locations.
func driveLayers(tr *tracer, w workload, wd *world, led ledger) (*lower, error) {
	req := func(driver string) string { return w.Name + "/" + driver }
	ds, opts := wd.ds, indexOptions(w, wd)
	lo := &lower{}
	var err error

	ns, _ := tr.drive("index.Build", req("build"), func() int {
		lo.objects, err = index.BuildObjectIndex(ds.Objects, opts)
		for i := 0; err == nil && i < len(ds.FeatureSets); i++ {
			var fidx *index.FeatureIndex
			fidx, err = index.BuildFeatureIndex(ds.FeatureSets[i], opts)
			lo.features = append(lo.features, fidx)
		}
		return 1
	})
	if err != nil {
		return nil, err
	}
	led["index.build_s"] = ns / 1e9

	// One feature set bulk-loaded into a bare tree along the plain Hilbert
	// curve: the sort, the node packing and the page writes of a build.
	feats := ds.FeatureSets[0]
	items := make([]rtree.Item, len(feats))
	for i, f := range feats {
		items[i] = rtree.Item{ID: f.ID, Location: f.Location, Score: f.Score, Keywords: f.Keywords}
	}
	bare, err := rtree.New(rtree.Config{KeywordWidth: ds.VocabWidth, WithScore: true, BufferPages: w.Buffer})
	if err != nil {
		return nil, err
	}
	ns, _ = tr.drive("rtree.Tree.BulkLoad", req("bulkload"), func() int {
		err = bare.BulkLoad(items, func(it rtree.Item) uint64 {
			return hilbert.Encode2D(geo.Quantize(it.Location.X, 16), geo.Quantize(it.Location.Y, 16), 16)
		})
		return 1
	})
	if err != nil {
		return nil, err
	}
	led["rtree.bulkload_s"] = ns / 1e9

	ftree, otree := lo.features[0].Tree(), lo.objects.Tree()
	all, err := ftree.All()
	if err != nil {
		return nil, err
	}
	leaves := strided(all, 2048)

	led["kwset.jaccard_ns"], led["kwset.allocs_op"] = tr.drive("kwset.Set.Jaccard", req("jaccard"), func() int {
		for _, q := range wd.queries {
			for _, e := range leaves {
				sink += q.Keywords[0].Jaccard(e.Keywords)
			}
		}
		return len(wd.queries) * len(leaves)
	})
	led["index.score_ns"], _ = tr.drive("index.Score+Bound", req("score"), func() int {
		for _, q := range wd.queries {
			qk := index.QueryKeywords{Set: q.Keywords[0], Lambda: q.Lambda}
			for _, e := range leaves {
				sink += index.Score(e, qk) + index.Bound(e, qk)
			}
		}
		return 2 * len(wd.queries) * len(leaves)
	})

	pages, err := pagesOf(ftree)
	if err != nil {
		return nil, err
	}
	rounds := max(1, 20_000/len(pages))
	led["rtree.node_decode_ns"], led["rtree.node_decode_allocs"] = tr.drive("rtree.Tree.Node", req("node"), func() int {
		for r := 0; r < rounds; r++ {
			for _, id := range pages {
				var n *rtree.Node
				if n, err = ftree.Node(id); err != nil {
					return 1
				}
				sink += float64(len(n.Entries))
			}
		}
		return rounds * len(pages)
	})
	if err != nil {
		return nil, err
	}

	// Hits: as many pages as the pool holds, read again and again. Misses:
	// every page once into an emptied pool.
	pool := ftree.Pool()
	resident := pages[:min(len(pages), pool.Capacity())]
	get := func(ids []storage.PageID, rounds int, before func()) func() int {
		return func() int {
			for r := 0; r < rounds; r++ {
				before()
				for _, id := range ids {
					var page []byte
					if page, err = pool.Get(id); err != nil {
						return 1
					}
					sink += float64(page[0])
				}
			}
			return rounds * len(ids)
		}
	}
	get(resident, 1, func() {})()
	led["storage.get_hit_ns"], _ = tr.drive("storage.BufferPool.Get/hit", req("get-hit"), get(resident, max(1, 20_000/len(resident)), func() {}))
	led["storage.get_miss_ns"], _ = tr.drive("storage.BufferPool.Get/miss", req("get-miss"), get(pages, 10, pool.Clear))
	if err != nil {
		return nil, err
	}

	radius := w.Radius
	if radius == 0 {
		radius = 0.01
	}
	ns, _ = tr.drive("rtree.Tree.RangeSearch", req("range-search"), func() int {
		centers := strided(feats, 512)
		for _, f := range centers {
			if err = otree.RangeSearch(f.Location, radius, func(rtree.Entry) bool { sink++; return true }); err != nil {
				return 1
			}
		}
		return len(centers)
	})
	led["rtree.range_search_us"] = ns / 1e3
	ns, _ = tr.drive("rtree.Tree.AscendDistance", req("ascend"), func() int {
		centers := strided(ds.Objects, 512)
		for _, o := range centers {
			taken := 0
			err = ftree.AscendDistance(o.Location, func(_ rtree.Entry, d float64) bool { sink += d; taken++; return taken < 16 })
			if err != nil {
				return 1
			}
		}
		return len(centers)
	})
	led["rtree.ascend_us"] = ns / 1e3

	// Voronoi cells as the NN variant builds them: clip by neighbours in
	// ascending distance until the cell can shrink no further.
	clips := 0
	sites := strided(all, 256)
	ns, _ = tr.drive("voronoi.CellBuilder", req("cells"), func() int {
		for _, site := range sites {
			b := voronoi.NewCellBuilder(site.Point(), geo.UnitSquare())
			err = ftree.AscendDistance(site.Point(), func(e rtree.Entry, d float64) bool {
				if e.ItemID == site.ItemID {
					return true
				}
				if b.Done(d) {
					return false
				}
				b.Clip(e.Point())
				return true
			})
			if err != nil {
				return 1
			}
			clips += b.Clips()
		}
		return len(sites)
	})
	if err != nil {
		return nil, err
	}
	led["voronoi.cell_us"] = ns / 1e3
	led["voronoi.clips_per_cell"] = float64(clips) / float64(len(sites))

	lo.eng, err = core.NewEngine(lo.objects, lo.features, core.Options{BatchSTDS: true})
	return lo, err
}

// stpsEngine is what the benchmark times below DB.TopK: the single engine,
// or the sharded one.
type stpsEngine interface {
	STPS(core.Query) ([]core.Result, core.Stats, error)
}

// tracedRecorder returns a recorder that files a span per query.
func tracedRecorder(tr *tracer, name string, w workload, ops int) *recorder {
	return &recorder{
		answers: make([][]resultRow, ops), spans: tr, spanName: name, spanOf: make([]int, ops),
		reqOf: func(op int) string { return fmt.Sprintf("%s/%d", w.Name, op) },
	}
}

// layer is a public entry point above DB.TopK: call sends query i into it
// and returns the time its answer says the engine took.
type layer struct {
	name  string
	call  func(i int) (engine time.Duration, err error)
	close func()
}

// traceEngine fills the ledger for the layers from DB.TopK down. Each
// query goes through every layer in turn, back to back so that all calls
// see the same machine, and each call is filed as a span under the one
// above it. What a layer adds to a query is read off a single call: its
// duration as the caller sees it less the engine time its own answer
// reports (comparing two calls would bury some tens of microseconds under
// the few hundred by which one 10 ms call differs from the next). top, when
// set, is a layer above DB.TopK and parent the span above each query's
// outermost call. A further pass over the single engine takes the counts,
// which do not depend on timing.
func traceEngine(tr *tracer, w workload, wd *world, db *stpq.DB, top *layer, parent []int, lo *lower, led ledger) (wrong int, err error) {
	n := float64(len(wd.queries))
	// The engine the DB wraps, built once more outside it.
	var below stpsEngine = lo.eng
	belowName := "core.Engine.STPS"
	if w.Shards > 1 {
		belowName = "shard.Engine.STPS"
		sh, err := shard.New(wd.ds.Objects, wd.ds.FeatureSets, shard.Options{
			Shards: w.Shards, Strategy: shard.Strategy(stpq.ShardHilbert), Index: indexOptions(w, wd),
			Core: core.Options{BatchSTDS: true},
		})
		if err != nil {
			return 0, err
		}
		below = sh
		ns, _ := tr.drive("shard.Engine.Plan", w.Name+"/plan", func() int {
			for _, q := range wd.queries {
				var plan []shard.PlanShard
				if plan, err = sh.Plan(q); err != nil {
					return 1
				}
				sink += float64(len(plan))
			}
			return len(wd.queries)
		})
		if err != nil {
			return 0, err
		}
		led["shard.plan_us"] = ns / 1e3
	}

	// Warm the DB and the engines; the layer above stays cold, so that its
	// result cache misses on every traced query.
	for i, q := range wd.queries {
		if _, _, err := db.TopK(wd.pub[i]); err != nil {
			return 0, err
		}
		if _, _, err := below.STPS(q); err != nil {
			return 0, err
		}
		if _, _, err := lo.eng.STPS(q); err != nil {
			return 0, err
		}
	}
	want := newOracle(wd.ds.Objects, wd.ds.FeatureSets).answers(wd.queries[:min(oracleChecks, len(wd.queries))])
	var (
		topSelf, pipeline, belowUS, singleUS []float64
		sharded                              core.Stats
	)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	filing, began := tr.filing, time.Now()
	for i, q := range wd.queries {
		req := fmt.Sprintf("%s/%d", w.Name, i)
		above := 0
		if parent != nil {
			above = parent[i]
		}
		if top != nil {
			start := time.Now()
			engine, err := top.call(i)
			end := time.Now()
			if err != nil {
				return 0, fmt.Errorf("%s, query %d: %w", top.name, i, err)
			}
			above = tr.add(top.name, req, above, start, end)
			topSelf = append(topSelf, us(end.Sub(start)-engine))
		}
		start := time.Now()
		res, st, err := db.TopK(wd.pub[i])
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("DB.TopK, query %d: %w", i, err)
		}
		above = tr.add("stpq.DB.TopK", req, above, start, end)
		pipeline = append(pipeline, us(end.Sub(start)-st.CPUTime))

		start = time.Now()
		inner, cst, err := below.STPS(q)
		end = time.Now()
		if err != nil {
			return 0, err
		}
		tr.add(belowName, req, above, start, end)
		belowUS = append(belowUS, us(end.Sub(start)))
		sharded.Add(cst)
		if !sameAnswer(rowsOf(res), inner) || (i < len(want) && !sameAnswer(rowsOf(res), want[i])) {
			wrong++
		}
		if w.Shards > 1 {
			// The same query on the single engine: what S shards cost
			// against one.
			start = time.Now()
			if _, _, err := lo.eng.STPS(q); err != nil {
				return 0, err
			}
			end = time.Now()
			tr.add("core.Engine.STPS", req, 0, start, end)
			singleUS = append(singleUS, us(end.Sub(start)))
		}
	}
	led["trace.overhead_frac"] = float64(tr.filing-filing) / float64(time.Since(began))
	led["stpq.pipeline_us"] = median(pipeline)
	if top != nil {
		// What Service.Do adds around DB.TopK: its own surroundings of the
		// engine less DB.TopK's.
		led["serve.do_us"] = median(topSelf) - median(pipeline)
	}
	stpsUS := median(belowUS)
	if w.Shards > 1 {
		stpsUS = median(singleUS)
		led["shard.latency_ratio"] = median(belowUS) / stpsUS
	}
	led["core.stps_us"] = stpsUS

	// DB.TopK alone, for the CPU a query costs its process.
	cpu0, err := cpuSeconds()
	if err != nil {
		return 0, err
	}
	for _, q := range wd.pub {
		if _, _, err := db.TopK(q); err != nil {
			return 0, err
		}
	}
	cpu1, err := cpuSeconds()
	if err != nil {
		return 0, err
	}
	led["stpq.cpu_ms_per_query"] = 1000 * (cpu1 - cpu0) / n

	// The single engine's counts, with the pools' counters around them.
	pools, before := lo.poolStats(), mallocs()
	var st core.Stats
	for _, q := range wd.queries {
		_, one, err := lo.eng.STPS(q)
		if err != nil {
			return 0, err
		}
		st.Add(one)
	}
	allocs := mallocs() - before
	pools = lo.poolStats().Sub(pools)
	led["core.allocs_per_query"] = float64(allocs) / n
	led["core.features_pulled_per_query"] = float64(st.FeaturesPulled) / n
	led["core.combinations_per_query"] = float64(st.Combinations) / n
	led["core.objects_scored_per_query"] = float64(st.ObjectsScored) / n
	led["core.reads_per_result"] = float64(st.LogicalReads) / n / topK
	led["storage.hit_ratio"] = pools.HitRatio()
	led["storage.evictions_per_query"] = float64(pools.Evictions) / n
	led["storage.physical_reads_per_query"] = float64(st.PhysicalReads) / n
	led["rtree.decode_share"] = float64(st.LogicalReads) / n * led["rtree.node_decode_ns"] / (1000 * stpsUS)
	if st.CPUTime > 0 {
		led["voronoi.cpu_share"] = float64(st.VoronoiCPUTime) / float64(st.CPUTime)
	}
	if w.Shards > 1 {
		led["shard.read_amplification"] = float64(sharded.LogicalReads) / float64(st.LogicalReads)
		led["shard.fanout_per_query"] = float64(sharded.ShardFanout) / n
		led["shard.pruned_frac"] = float64(sharded.ShardPruned) / float64(sharded.ShardFanout+sharded.ShardPruned)
	}
	return wrong, nil
}

// traceServe fills the serving layer's ledger from client-seen spans
// against a child stpqd, and returns for each query the span of the first
// request that asked it.
func traceServe(tr *tracer, w workload, wd *world, seed int64, led ledger) (first []int, failed int, err error) {
	bin, err := buildStpqd()
	if err != nil {
		return nil, 0, err
	}
	child, err := openHTTP(w, wd, bin, seed)
	if err != nil {
		return nil, 0, err
	}
	// Pass 1 warms the hot set; the traced pass then asks block 0, whose
	// other queries the server has not seen and the onion replays.
	child.pass(1, &recorder{})
	seen := tracedRecorder(tr, "http POST /query", w, len(child.plan))
	child.pass(0, seen)
	if err := child.close(); err != nil {
		return nil, 0, fmt.Errorf("stopping stpqd: %w", err)
	}
	led["serve.http_us"] = median(seen.httpUS)
	led["serve.hit_p50_us"] = median(seen.hitUS)
	led["serve.cache_hit_frac"] = float64(seen.cached) / float64(seen.ops-seen.failed)
	led["serve.rejected_frac"] = float64(seen.failed) / float64(seen.ops)
	led["serve.fingerprint_ns"], _ = tr.drive("serve.Fingerprint", w.Name+"/fingerprint", func() int {
		for _, q := range wd.pub {
			sink += float64(len(serve.Fingerprint(q)))
		}
		return len(wd.pub)
	})
	first = make([]int, len(wd.pub))
	for op := len(child.plan) - 1; op >= 0; op-- {
		first[child.plan[op]] = seen.spanOf[op]
	}
	return first, seen.failed, nil
}

// serviceLayer puts Service.Do, with stpqd's defaults, above the DB.
func serviceLayer(db *stpq.DB, queries []stpq.Query) (*layer, error) {
	svc, err := serve.New(db, serve.Config{})
	if err != nil {
		return nil, err
	}
	return &layer{name: "serve.Service.Do", close: svc.Close, call: func(i int) (time.Duration, error) {
		resp, err := svc.Do(context.Background(), queries[i])
		return resp.Stats.CPUTime, err
	}}, nil
}

// userBytes is the size of a batch as the data it carries: 8 bytes per id,
// coordinate and score, and the keywords' letters.
func userBytes(batch []stpq.Mutation) int {
	n := 0
	for _, m := range batch {
		switch {
		case m.Object != nil:
			n += 24
		case m.Feature != nil:
			n += 32
			for _, kw := range m.Feature.Keywords {
				n += len(kw)
			}
		default:
			n += 8
		}
	}
	return n
}

// traceIngest fills the write path's ledger: a bare WAL, then two mixed
// passes, reads before and after Flush, and a rebuild from the log.
func traceIngest(tr *tracer, w workload, wd *world, seed int64, led ledger) (failed int, err error) {
	// WAL.Append alone, fsync included, on batches like the workload's.
	walDir := filepath.Join(outDir, fmt.Sprintf("wal-%d-append", os.Getpid()))
	defer os.RemoveAll(walDir)
	wal, err := ingest.OpenWAL(walDir, ingest.WALOptions{})
	if err != nil {
		return 0, err
	}
	m := newModel(wd, seed)
	var appendUS []float64
	for i := 0; i < 64 && err == nil; i++ {
		payload, _ := json.Marshal(m.batch())
		start := time.Now()
		_, err = wal.Append(payload)
		end := time.Now()
		tr.add("ingest.WAL.Append", fmt.Sprintf("%s/append-%d", w.Name, i), 0, start, end)
		appendUS = append(appendUS, 1000*ms(end.Sub(start)))
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	led["ingest.wal_append_us"] = median(appendUS)

	tg, err := openIngest(w, wd, seed)
	if err != nil {
		return 0, err
	}
	defer closeTarget(tg)
	tg.pass(0, &recorder{})
	mixed := &recorder{}
	for n := 1; n <= 2; n++ {
		tg.prepare(n)
		r := tracedRecorder(tr, "stpq.DB.TopK/overlay", w, len(tg.plan))
		tg.pass(n, r)
		mixed.merge(r)
	}
	led["ingest.write_p50_ms"] = percentile(mixed.writeMS, 50)
	led["ingest.write_p95_ms"] = percentile(mixed.writeMS, 95)
	db := tg.db
	led["ingest.wal_bytes_per_user_byte"] = float64(db.Metrics().Counters["stpq_wal_bytes_total"]) / float64(tg.userBytes)

	// The same reads with the delta pending and after it is merged.
	pending := &recorder{}
	tg.pass(0, pending)
	start := time.Now()
	if err := db.Flush(); err != nil {
		return 0, err
	}
	led["ingest.flush_s"] = time.Since(start).Seconds()
	tr.add("stpq.DB.Flush", w.Name+"/flush", 0, start, time.Now())
	flushed := &recorder{}
	tg.pass(0, flushed)
	led["ingest.overlay_read_penalty"] = percentile(pending.readMS, 50) / percentile(flushed.readMS, 50)

	status := db.IngestStatus()
	led["ingest.compactions"] = float64(status.Compactions)
	led["ingest.write_stalls"] = float64(status.WriteStalls)
	led["ingest.merge_s"] = status.LastMergeSeconds

	// Close, then rebuild from the generated base and the log alone.
	if err := db.CloseWAL(); err != nil {
		return 0, err
	}
	start = time.Now()
	reopened, err := wd.build(tg.cfg)
	if err != nil {
		return 0, err
	}
	led["ingest.replay_s"] = time.Since(start).Seconds()
	tr.add("stpq.DB.Build/replay", w.Name+"/replay", 0, start, time.Now())
	return mixed.failed + pending.failed + flushed.failed, reopened.CloseWAL()
}

// traceWorkload replays the workload through every layer's public entry
// points, returns the per-layer metrics and writes the spans to
// bench/out/trace-<workload>.jsonl.
func traceWorkload(w workload, opt options) (*result, stamp, error) {
	runtime.GOMAXPROCS(2)
	wd := newWorld(w, opt.seed, opt.scale, 2)
	st := newStamp(w, opt)
	tr := newTracer()
	led := ledger{}
	lo, err := driveLayers(tr, w, wd, led)
	if err != nil {
		return nil, st, err
	}
	// In process the traced run replays the head of the query list: the
	// ledger needs medians and counts per query, not a 10 s sample.
	head := *wd
	head.queries, head.pub = wd.queries[:min(w.traceOps(), len(wd.queries))], wd.pub[:min(w.traceOps(), len(wd.pub))]

	// What only some workloads have above DB.TopK or beside it.
	var (
		top    *layer
		parent []int // the span above each query's outermost call
		failed int
	)
	switch w.Kind {
	case kindHTTP:
		parent, failed, err = traceServe(tr, w, wd, opt.seed, led)
	case kindIngest:
		failed, err = traceIngest(tr, w, wd, opt.seed, led)
	}
	if err != nil {
		return nil, st, err
	}
	db, err := head.build(w.config())
	if err != nil {
		return nil, st, err
	}
	if w.Kind == kindHTTP {
		if top, err = serviceLayer(db, head.pub); err != nil {
			return nil, st, err
		}
		defer top.close()
	}
	wrong, err := traceEngine(tr, w, &head, db, top, parent, lo, led)
	if err != nil {
		return nil, st, err
	}

	st.Passes, st.Samples = 1, len(head.queries)
	if err := tr.write(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), st); err != nil {
		return nil, st, err
	}
	res, err := newResult(perLayer, led, wrong == 0 && failed == 0, len(tr.spans), failed+wrong)
	if err != nil {
		return nil, st, err
	}
	fmt.Printf("filed %d spans; %d answers of DB.TopK differ from the engine's below it\n", len(tr.spans), wrong)
	return res, st, nil
}
