// Command stpqload drives a running stpqd with a closed-loop workload:
// each of -c workers keeps exactly one query in flight, drawing random
// keyword combinations from the server's GET /info dataset description.
// It reports throughput, latency quantiles (p50/p90/p99), the cache hit
// fraction and any non-200 responses.
//
// Usage:
//
//	stpqload -addr http://localhost:8080 -c 8 -duration 10s
//	stpqload -addr http://localhost:8080 -n 1000 -k 10 -radius 0.05
//	stpqload -addr http://localhost:8080 -warmup 100 -n 1000
//	stpqload -targets http://host1:8080,http://host2:8080 -duration 30s
//
// With -targets, requests round-robin across several endpoints — e.g.
// a cluster coordinator plus per-node HTTP listeners, or several
// coordinators over the same cluster map.
//
// With -warmup N, the first N requests are sent before the clock starts
// and are excluded from the reported throughput and latency percentiles.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stpq/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stpqload: ")
	var (
		addr     = flag.String("addr", "http://localhost:8080", "stpqd base URL")
		targets  = flag.String("targets", "", "comma-separated base URLs served round-robin, one per request (overrides -addr)")
		workers  = flag.Int("c", 8, "closed-loop concurrency (in-flight queries)")
		duration = flag.Duration("duration", 10*time.Second, "run length (ignored when -n > 0)")
		count    = flag.Int("n", 0, "total queries to send (0 = run for -duration)")
		k        = flag.Int("k", 10, "result size k")
		radius   = flag.Float64("radius", 0.1, "query radius")
		lambda   = flag.Float64("lambda", 0.5, "query lambda")
		variant  = flag.String("variant", "range", "variant: range | influence | nn")
		alg      = flag.String("algorithm", "stps", "algorithm: stps | stds (empty = stps)")
		kwPerSet = flag.Int("keywords", 2, "query keywords per feature set")
		seed     = flag.Int64("seed", 1, "random seed for query generation")
		warmup   = flag.Int("warmup", 0, "warmup requests sent before measuring; excluded from reported percentiles")
		wfrac    = flag.Float64("write-frac", 0, "fraction of requests sent as POST /ingest mutation batches (0 = read-only)")
	)
	flag.Parse()
	if *wfrac < 0 || *wfrac > 1 {
		log.Fatalf("-write-frac %v outside [0,1]", *wfrac)
	}
	addrs := []string{*addr}
	if *targets != "" {
		addrs = nil
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				addrs = append(addrs, t)
			}
		}
		if len(addrs) == 0 {
			log.Fatal("-targets has no endpoints")
		}
	}
	if err := run(addrs, *workers, *duration, *count, *k, *radius, *lambda,
		*variant, *alg, *kwPerSet, *seed, *warmup, *wfrac); err != nil {
		log.Fatal(err)
	}
}

// sample aggregates one worker's observations.
type sample struct {
	latencies []time.Duration
	writeLats []time.Duration
	cached    int
	// errs counts failures by class: "HTTP <status> (<reason>)" using the
	// server's machine-readable rejection reason when present — so the
	// report tells a queue-full 429 from, say, a deadline 504 without
	// parsing error prose — plain "HTTP <status>" otherwise, and
	// "transport" for connection errors.
	errs map[string]int
}

func run(addrs []string, workers int, duration time.Duration, count, k int,
	radius, lambda float64, variant, alg string, kwPerSet int, seed int64, warmup int,
	writeFrac float64) error {
	for i, a := range addrs {
		addrs[i] = strings.TrimSuffix(a, "/")
	}
	for _, a := range addrs {
		if err := checkHealthz(a); err != nil {
			return err
		}
	}
	// All targets serve the same logical dataset (a coordinator reports the
	// cluster aggregate), so one /info describes the workload.
	info, err := fetchInfo(addrs[0])
	if err != nil {
		return err
	}
	// nextAddr hands out targets round-robin across all workers.
	var rr atomic.Uint64
	nextAddr := func() string {
		if len(addrs) == 1 {
			return addrs[0]
		}
		return addrs[rr.Add(1)%uint64(len(addrs))]
	}
	names := make([]string, 0, len(info.Keywords))
	for name, kws := range info.Keywords {
		if len(kws) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("server dataset has no keywords to query")
	}
	log.Printf("%d target(s), %s: %d objects, %d feature sets, generation %d",
		len(addrs), strings.Join(addrs, " "), info.Objects, len(info.FeatureSets), info.Generation)
	log.Printf("server %s (%s), up %s, %d shard(s)",
		info.Revision, info.GoVersion,
		(time.Duration(info.UptimeSeconds * float64(time.Second))).Round(time.Second),
		max(info.Shards, 1))

	var (
		wg      sync.WaitGroup
		samples = make([]*sample, workers)
		rngs    = make([]*rand.Rand, workers)
	)
	// split distributes n across workers.
	split := func(n, i int) int {
		m := n / workers
		if i < n%workers {
			m++
		}
		return m
	}
	newReq := func(rng *rand.Rand) serve.QueryRequest {
		return serve.QueryRequest{
			K: k, Radius: radius, Lambda: lambda,
			Variant: variant, Algorithm: alg,
			Keywords: randomKeywords(rng, names, info.Keywords, kwPerSet),
		}
	}
	// shoot sends one request, flipping a biased coin between the read and
	// write paths; warmup and the measured loop share the same mix.
	shoot := func(rng *rand.Rand, s *sample) {
		if writeFrac > 0 && rng.Float64() < writeFrac {
			fireIngest(nextAddr(), randomIngest(rng, names, info.Keywords), s)
			return
		}
		fire(nextAddr(), newReq(rng), s)
	}
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}

	// Warmup phase: -warmup requests are fired into a discarded sample so
	// cold caches and JIT'd connection setup never pollute the reported
	// percentiles; the clock starts after the phase completes.
	if warmup > 0 {
		log.Printf("warming up: %d requests (excluded from the report)", warmup)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				discard := &sample{errs: make(map[string]int)}
				for n := split(warmup, i); n > 0; n-- {
					shoot(rngs[i], discard)
				}
			}(i)
		}
		wg.Wait()
	}

	start := time.Now()
	deadline := start.Add(duration)
	for i := 0; i < workers; i++ {
		samples[i] = &sample{errs: make(map[string]int)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := samples[i]
			// -n budget per worker; <0 means run on -duration.
			n := -1
			if count > 0 {
				n = split(count, i)
			}
			for ; n != 0; n-- {
				if count <= 0 && time.Now().After(deadline) {
					return
				}
				shoot(rngs[i], s)
			}
		}(i)
	}
	wg.Wait()
	report(samples, time.Since(start))
	return nil
}

// randomKeywords draws kwPerSet keywords per feature set.
func randomKeywords(rng *rand.Rand, names []string, pool map[string][]string, kwPerSet int) map[string][]string {
	out := make(map[string][]string, len(names))
	for _, name := range names {
		avail := pool[name]
		n := kwPerSet
		if n > len(avail) {
			n = len(avail)
		}
		kws := make([]string, n)
		for j := range kws {
			kws[j] = avail[rng.Intn(len(avail))]
		}
		out[name] = kws
	}
	return out
}

// loadIDBase keeps load-generated ids clear of any realistic dataset.
const loadIDBase = 1 << 40

// randomIngest builds a small mutation batch: one object upsert and one
// feature upsert per set, with keywords drawn from the server vocabulary.
func randomIngest(rng *rand.Rand, names []string, pool map[string][]string) serve.IngestRequest {
	req := serve.IngestRequest{
		Objects: []serve.ObjectJSON{{
			ID: loadIDBase + rng.Int63n(1<<20), X: rng.Float64(), Y: rng.Float64(),
		}},
		Features: make(map[string][]serve.FeatureJSON, len(names)),
	}
	for _, name := range names {
		avail := pool[name]
		req.Features[name] = []serve.FeatureJSON{{
			ID: loadIDBase + rng.Int63n(1<<20), X: rng.Float64(), Y: rng.Float64(),
			Score:    rng.Float64(),
			Keywords: []string{avail[rng.Intn(len(avail))]},
		}}
	}
	return req
}

// fireIngest sends one mutation batch and records its outcome.
func fireIngest(addr string, req serve.IngestRequest, s *sample) {
	body, _ := json.Marshal(req)
	t0 := time.Now()
	resp, err := http.Post(addr+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		s.errs["transport"]++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.errs[errKey(resp.StatusCode, resp.Body)]++
		return
	}
	io.Copy(io.Discard, resp.Body)
	s.writeLats = append(s.writeLats, time.Since(t0))
}

// fire sends one query and records its outcome.
func fire(addr string, req serve.QueryRequest, s *sample) {
	body, _ := json.Marshal(req)
	t0 := time.Now()
	resp, err := http.Post(addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		s.errs["transport"]++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.errs[errKey(resp.StatusCode, resp.Body)]++
		return
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		s.errs["transport"]++
		return
	}
	s.latencies = append(s.latencies, time.Since(t0))
	if out.Cached {
		s.cached++
	}
}

// errKey classifies one failed response for the error breakdown, folding in
// the server's machine-readable rejection reason when the body carries one.
func errKey(status int, body io.Reader) string {
	var er struct {
		Reason string `json:"reason"`
	}
	_ = json.NewDecoder(body).Decode(&er)
	io.Copy(io.Discard, body)
	if er.Reason != "" {
		return fmt.Sprintf("HTTP %d (%s)", status, er.Reason)
	}
	return fmt.Sprintf("HTTP %d", status)
}

func checkHealthz(addr string) error {
	resp, err := http.Get(addr + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

func fetchInfo(addr string) (serve.Info, error) {
	var info serve.Info
	resp, err := http.Get(addr + "/info")
	if err != nil {
		return info, fmt.Errorf("info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("info: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, fmt.Errorf("info: %w", err)
	}
	return info, nil
}

// report merges worker samples and prints the summary.
func report(samples []*sample, elapsed time.Duration) {
	var all, writes []time.Duration
	cached, errTotal := 0, 0
	errs := make(map[string]int)
	for _, s := range samples {
		all = append(all, s.latencies...)
		writes = append(writes, s.writeLats...)
		cached += s.cached
		for class, n := range s.errs {
			errs[class] += n
			errTotal += n
		}
	}
	n := len(all)
	fmt.Printf("queries     %d ok, %d failed in %s\n", n, errTotal, elapsed.Round(time.Millisecond))
	if n > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		qps := float64(n) / elapsed.Seconds()
		fmt.Printf("throughput  %.1f queries/s\n", qps)
		fmt.Printf("latency     p50 %s  p90 %s  p99 %s  max %s\n",
			quantile(all, 0.50), quantile(all, 0.90), quantile(all, 0.99), all[n-1])
		fmt.Printf("cache hits  %d (%.1f%%)\n", cached, 100*float64(cached)/float64(n))
	}
	if w := len(writes); w > 0 {
		sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
		fmt.Printf("ingests     %d ok, %.1f writes/s\n", w, float64(w)/elapsed.Seconds())
		fmt.Printf("write lat   p50 %s  p90 %s  p99 %s  max %s\n",
			quantile(writes, 0.50), quantile(writes, 0.90), quantile(writes, 0.99), writes[w-1])
	}
	if errTotal > 0 {
		classes := make([]string, 0, len(errs))
		for c := range errs {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Printf("errors      %s: %d\n", c, errs[c])
		}
	}
}

// quantile returns the q-th quantile of sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(10 * time.Microsecond)
}
