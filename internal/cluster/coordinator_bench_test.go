package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stpq"
	"stpq/internal/serve"
)

// BenchmarkCoordinator measures query routing as a client sees it: N
// whole-DB replicas of testData(7), each its stpqd handler on a loopback
// listener, queried through the coordinator's HTTP front by eight
// closed-loop clients, one keep-alive connection each, posting
// pre-marshalled /query bodies. Each query runs on one replica, so the
// node count prices routing — the extra HTTP hop, the coordinator,
// spreading the load — not scatter-gather; nodes=1 is the baseline. The
// bodies are 4,096 distinct queries cycled in order, more than a replica's
// result cache holds, so every query runs. It reports throughput, the
// client's p50/p95/p99 and the logical reads per query, which must not
// move with the node count.
func BenchmarkCoordinator(b *testing.B) {
	_, _, _, words := testData(7)
	var pairs [][]string // every two-word food set
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			pairs = append(pairs, []string{words[i], words[j]})
		}
	}
	bodies := make([][]byte, 4096)
	for i := range bodies {
		bodies[i] = requestBody(b, stpq.Query{
			K: 1 + i%16, Radius: 0.06, Lambda: 0.5,
			Keywords: map[string][]string{
				"food":  pairs[i/16%len(pairs)],
				"cafes": {words[i/16/len(pairs)]},
			},
		})
	}
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			tc := startCluster(b, stpq.Config{PageSize: 1024}, nodes, CoordinatorConfig{HealthInterval: -1})
			front := httptest.NewServer(tc.coord.Handler())
			defer front.Close()
			const clients = 8
			var (
				next  atomic.Int64
				reads atomic.Int64
				mu    sync.Mutex
				walls = make([]time.Duration, 0, b.N)
				wg    sync.WaitGroup
			)
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < clients; w++ {
				client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
				defer client.CloseIdleConnections()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						t0 := time.Now()
						n, err := postQuery(client, front.URL+"/query", bodies[i%len(bodies)])
						wall := time.Since(t0)
						if err != nil {
							b.Error(err)
							return
						}
						reads.Add(n)
						mu.Lock()
						walls = append(walls, wall)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			slices.Sort(walls)
			quantile := func(q float64) float64 {
				if len(walls) == 0 {
					return 0
				}
				return float64(walls[int(q*float64(len(walls)-1))].Microseconds())
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
			b.ReportMetric(quantile(0.50), "p50-us")
			b.ReportMetric(quantile(0.95), "p95-us")
			b.ReportMetric(quantile(0.99), "p99-us")
			b.ReportMetric(float64(reads.Load())/float64(b.N), "reads/op")
		})
	}
}

// postQuery sends one /query body and returns the answering replica's
// logical page reads from the response's stats.
func postQuery(client *http.Client, url string, body []byte) (int64, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, err
	}
	if out.Cached {
		return 0, fmt.Errorf("a cached answer: the workload must not repeat within the cache's reach")
	}
	return out.Stats.LogicalReads, nil
}
