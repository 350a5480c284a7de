package main

// cluster.go benchmarks distributed scatter-gather: the synthetic dataset
// partitioned across N in-process cluster nodes on loopback TCP, queried
// through a coordinator by a closed-loop concurrent workload. N = 1 is a
// one-node cluster (the full RPC + coordination overhead, no fan-out win),
// the baseline the node-count sweep is read against. Per-query engine
// counters come back over the wire, so the records carry the same cost
// breakdown as the in-process experiments plus scatter QPS, latency
// quantiles and fanout/pruned totals.
//
// Like the shard sweep, the records always land in BENCH_cluster.json.

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"stpq"
	"stpq/internal/cluster"
	"stpq/internal/core"
	"stpq/internal/serve"
	"stpq/internal/shard"
)

// clusterBenchFile is where the node-count sweep always saves its records.
const clusterBenchFile = "BENCH_cluster.json"

// clusterWorkers is the closed-loop client concurrency per data point.
const clusterWorkers = 8

func (b *bench) clusterExp() {
	header("cluster sweep: coordinator scatter-gather vs node count (STPS, SRT)")
	ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)

	// Lower the dataset into the public types once; every node count
	// re-partitions the same objects.
	objs := make([]stpq.Object, len(ds.Objects))
	for i, o := range ds.Objects {
		objs[i] = stpq.Object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
	}
	sets := make([]struct {
		name  string
		feats []stpq.Feature
	}, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		feats := make([]stpq.Feature, len(fs))
		for j, f := range fs {
			var kws []string
			f.Keywords.ForEach(func(id int) { kws = append(kws, fmt.Sprintf("kw%d", id)) })
			feats[j] = stpq.Feature{ID: f.ID, X: f.Location.X, Y: f.Location.Y,
				Score: f.Score, Keywords: kws}
		}
		sets[i].name = fmt.Sprintf("set%d", i+1)
		sets[i].feats = feats
	}

	// A fixed query workload shared by every node count.
	rng := rand.New(rand.NewSource(b.seed))
	queries := make([]stpq.Query, b.queries)
	for i := range queries {
		kw := make(map[string][]string, len(sets))
		for _, s := range sets {
			words := make([]string, defQKw)
			for j := range words {
				words[j] = fmt.Sprintf("kw%d", rng.Intn(defVocab))
			}
			kw[s.name] = words
		}
		queries[i] = stpq.Query{
			K: defK, Radius: defRadius, Lambda: defLambda, Keywords: kw,
		}
	}

	var recs []Record
	for _, nodes := range []int{1, 2, 4} {
		rec := b.clusterPoint(objs, sets, queries, nodes)
		recs = append(recs, rec)
	}
	if err := writeRecords(clusterBenchFile, recs); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d cluster records to %s", len(recs), clusterBenchFile)
	if b.jsonPath != "" {
		b.records = append(b.records, recs...)
	}
}

// clusterPoint measures one node count: start the nodes, scatter the
// workload through a coordinator with clusterWorkers in flight, record
// QPS, latency quantiles and the summed engine counters.
func (b *bench) clusterPoint(objs []stpq.Object, sets []struct {
	name  string
	feats []stpq.Feature
}, queries []stpq.Query, nodes int) Record {
	leaders := make([]string, nodes)
	for i := range leaders {
		leaders[i] = "pending"
	}
	m, err := cluster.BuildMap(objs, leaders, shard.HilbertRuns)
	if err != nil {
		log.Fatal(err)
	}
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	for i := 0; i < nodes; i++ {
		db := stpq.New(stpq.Config{PageSize: 4096})
		db.AddObjects(m.PartitionObjects(objs, i))
		for _, s := range sets {
			db.AddFeatureSet(s.name, s.feats)
		}
		if err := db.Build(); err != nil {
			log.Fatal(err)
		}
		svc, err := serve.New(db, serve.Config{CacheEntries: -1})
		if err != nil {
			log.Fatal(err)
		}
		cleanup = append(cleanup, svc.Close)
		n := cluster.NewNode(cluster.NodeConfig{NodeID: i, Service: svc, DB: db})
		addr, err := n.Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		cleanup = append(cleanup, n.Close)
		m.Nodes[i].Leader = addr.String()
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Map: m, HealthInterval: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cleanup = append(cleanup, coord.Close)

	// Closed loop: clusterWorkers goroutines draw queries from one shared
	// index until the workload drains.
	per := make([]core.Stats, len(queries))
	walls := make([]time.Duration, len(queries))
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < clusterWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(queries) {
					return
				}
				t0 := time.Now()
				resp, err := coord.Do(queries[i])
				if err != nil {
					log.Fatalf("cluster nodes=%d query %d: %v", len(m.Nodes), i, err)
				}
				walls[i] = time.Since(t0)
				per[i] = resp.Stats
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	label := fmt.Sprintf("  nodes=%d", nodes)
	rec := newRecord("cluster", label, "SRT", "stps", nil, per)
	rec.Variant = "range"
	rec.QPS = float64(len(queries)) / elapsed.Seconds()
	fanout := coord.Metrics().Counter("stpq_cluster_fanout_total").Value()
	pruned := coord.Metrics().Counter("stpq_cluster_pruned_total").Value()
	rec.Counters = map[string]int64{
		"stpq_cluster_fanout_total": fanout,
		"stpq_cluster_pruned_total": pruned,
	}
	line(label, fmt.Sprintf("%.0f queries/s  p50 %s p99 %s  fanout %.2f pruned %.2f /query",
		rec.QPS, wallQuantile(walls, 0.50), wallQuantile(walls, 0.99),
		float64(fanout)/float64(len(queries)), float64(pruned)/float64(len(queries))))
	return rec
}

// wallQuantile returns the q-th quantile of unsorted wall latencies.
func wallQuantile(walls []time.Duration, q float64) time.Duration {
	sorted := make([]time.Duration, len(walls))
	copy(sorted, walls)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(10 * time.Microsecond)
}
