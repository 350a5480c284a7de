package main

// cluster.go benchmarks query routing as a client sees it: N in-process
// replicas of the whole synthetic dataset, each its stpqd handler on a
// loopback HTTP listener, queried through a coordinator's HTTP front by a
// closed-loop concurrent workload of pre-marshalled POST /query bodies.
// Each query runs on one replica, so the sweep measures what routing costs
// (the extra HTTP hop, the coordinator, spreading load over the replicas),
// not scatter-gather. N = 1 is the baseline the node-count sweep is read
// against. Per-query engine counters come back in each response's stats,
// so the records carry the same cost breakdown as the in-process
// experiments plus QPS, the client's wall-clock quantiles and the queries
// each replica served.
//
// The records always land in BENCH_cluster.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
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

	// A fixed query workload shared by every node count, marshalled once.
	rng := rand.New(rand.NewSource(b.seed))
	queries := make([][]byte, b.queries)
	for i := range queries {
		kw := make(map[string][]string, len(sets))
		for _, s := range sets {
			words := make([]string, defQKw)
			for j := range words {
				words[j] = fmt.Sprintf("kw%d", rng.Intn(defVocab))
			}
			kw[s.name] = words
		}
		body, err := json.Marshal(serve.QueryRequest{
			K: defK, Radius: defRadius, Lambda: defLambda, Keywords: kw,
		})
		if err != nil {
			log.Fatal(err)
		}
		queries[i] = body
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
// workload through a coordinator's HTTP front with clusterWorkers
// connections in flight, record QPS, the client's latency quantiles, the
// per-query engine counters and how many queries each replica served.
func (b *bench) clusterPoint(objs []stpq.Object, sets []struct {
	name  string
	feats []stpq.Feature
}, queries [][]byte, nodes int) Record {
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	replicas := make([]*serve.Service, nodes)
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
		srv := httptest.NewServer(svc.Handler())
		cleanup = append(cleanup, srv.Close)
		replicas[i] = svc
		addrs[i] = srv.Listener.Addr().String()
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Replicas: addrs, HealthInterval: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cleanup = append(cleanup, coord.Close)
	front := httptest.NewServer(coord.Handler())
	cleanup = append(cleanup, front.Close)

	// Closed loop: clusterWorkers clients, one keep-alive connection each,
	// draw queries from one shared index until the workload drains.
	per := make([]core.Stats, len(queries))
	walls := make([]time.Duration, len(queries))
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < clusterWorkers; w++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
		cleanup = append(cleanup, client.CloseIdleConnections)
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
				st, err := postQuery(client, front.URL+"/query", queries[i])
				if err != nil {
					log.Fatalf("cluster nodes=%d query %d: %v", nodes, i, err)
				}
				walls[i] = time.Since(t0)
				per[i] = st
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	label := fmt.Sprintf("  nodes=%d", nodes)
	rec := newRecord("cluster", label, "SRT", "stps", nil, per)
	rec.Variant = "range"
	rec.QPS = float64(len(queries)) / elapsed.Seconds()
	rec.Counters = make(map[string]int64, nodes+3)
	for _, q := range []struct {
		name string
		q    float64
	}{{"client_p50_us", 0.50}, {"client_p95_us", 0.95}, {"client_p99_us", 0.99}} {
		rec.Counters[q.name] = wallQuantile(walls, q.q).Microseconds()
	}
	served := make([]int64, nodes)
	for i, svc := range replicas {
		served[i] = svc.Metrics().Counter("stpq_serve_queries_total").Value()
		rec.Counters[fmt.Sprintf("replica%d_queries", i)] = served[i]
	}
	line(label, fmt.Sprintf("%.0f queries/s  p50 %s p95 %s p99 %s  queries per replica %v",
		rec.QPS, wallQuantile(walls, 0.50), wallQuantile(walls, 0.95), wallQuantile(walls, 0.99), served))
	return rec
}

// postQuery sends one /query body and returns the answering replica's
// engine counters from the response's stats.
func postQuery(client *http.Client, url string, body []byte) (core.Stats, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return core.Stats{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return core.Stats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return core.Stats{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return core.Stats{}, err
	}
	st := out.Stats
	return core.Stats{
		CPUTime:        time.Duration(st.CPUMicros) * time.Microsecond,
		IOTime:         time.Duration(st.IOMicros) * time.Microsecond,
		LogicalReads:   st.LogicalReads,
		PhysicalReads:  st.PhysicalReads,
		Combinations:   st.Combinations,
		FeaturesPulled: st.FeaturesPulled,
		ObjectsScored:  st.ObjectsScored,
	}, nil
}

// wallQuantile returns the q-th quantile of unsorted wall latencies.
func wallQuantile(walls []time.Duration, q float64) time.Duration {
	sorted := slices.Clone(walls)
	slices.Sort(sorted)
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(10 * time.Microsecond)
}
