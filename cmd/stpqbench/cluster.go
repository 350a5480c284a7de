package main

// cluster.go benchmarks query routing: N in-process replicas of the whole
// synthetic dataset on loopback TCP, queried through a coordinator by a
// closed-loop concurrent workload. Each query runs on one replica, so the
// sweep measures what routing costs (RPC, coordinator, spreading load over
// the replicas), not scatter-gather. N = 1 is the baseline the node-count
// sweep is read against. Per-query engine counters come back over the
// wire, so the records carry the same cost breakdown as the in-process
// experiments plus QPS, latency quantiles and the queries each replica
// served.
//
// The records always land in BENCH_cluster.json.

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
)

// clusterBenchFile is where the node-count sweep always saves its records.
const clusterBenchFile = "BENCH_cluster.json"

// clusterWorkers is the closed-loop client concurrency per data point.
const clusterWorkers = 8

func (b *bench) clusterExp() {
	header("cluster sweep: coordinator routing vs replica count (STPS, SRT)")
	ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)

	// Lower the dataset into the public types once; every replica of every
	// node count loads all of it.
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

// clusterPoint measures one node count: start the replicas, route the
// workload through a coordinator with clusterWorkers in flight, record
// QPS, latency quantiles, the per-query engine counters and how many
// queries each replica served.
func (b *bench) clusterPoint(objs []stpq.Object, sets []struct {
	name  string
	feats []stpq.Feature
}, queries []stpq.Query, nodes int) Record {
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	replicas := make([]*cluster.Node, nodes)
	addrs := make([]string, nodes)
	for i := range replicas {
		db := stpq.New(stpq.Config{PageSize: 4096})
		db.AddObjects(objs)
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
		replicas[i] = cluster.NewNode(cluster.NodeConfig{Service: svc, DB: db})
		addr, err := replicas[i].Start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		cleanup = append(cleanup, replicas[i].Close)
		addrs[i] = addr.String()
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Replicas: addrs, HealthInterval: -1,
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
					log.Fatalf("cluster nodes=%d query %d: %v", nodes, i, err)
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
	// With health probes off, every RPC a replica served was a query.
	rec.Counters = make(map[string]int64, nodes)
	served := make([]int64, nodes)
	for i, n := range replicas {
		served[i] = n.Served()
		rec.Counters[fmt.Sprintf("replica%d_queries", i)] = served[i]
	}
	line(label, fmt.Sprintf("%.0f queries/s  p50 %s p99 %s  queries per replica %v",
		rec.QPS, wallQuantile(walls, 0.50), wallQuantile(walls, 0.99), served))
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
