package main

import (
	"encoding/json"
	"fmt"
	"os"

	"stpq"
)

// Query parameters every workload shares: the paper's Table 2 defaults.
const (
	topK        = 10
	lambda      = 0.5
	numKeywords = 3
	vocabSize   = 128
	// warmPages exceeds the page count of any index built here (about 1,500
	// pages at 50k items), so a pool of this size never evicts.
	warmPages = 4096
)

// workloadKind selects how a workload reaches the engine.
type workloadKind int

const (
	kindLibrary workloadKind = iota // DB.TopK in this process
	kindHTTP                        // POST /query against a child stpqd
	kindIngest                      // DB.TopK and DB.Apply interleaved
)

// workload is one pinned set of inputs. Name and Why come from
// BENCHMARK.json, the rest from params. Items is both the number of data
// objects and the number of features per set; Ops is the number of
// operations in one pass, sized for a pass of 2 to 3 s on the reference
// host, so that four timed passes fit in a 10 s run.
type workload struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Kind    workloadKind
	Items   int
	Variant stpq.Variant
	Radius  float64
	Ops     int
	Buffer  int // Config.BufferPages
	Shards  int // Config.ShardCount
}

// traceOps is how many queries a traced run replays in process: about half
// a pass, and no more than the ledger's medians need.
func (w workload) traceOps() int { return min(w.Ops/2, 130) }

// params holds what BENCHMARK.json does not say about each workload it
// names.
var params = map[string]workload{
	"range-warm":   {Kind: kindLibrary, Items: 50_000, Variant: stpq.Range, Radius: 0.01, Ops: 260, Buffer: warmPages},
	"range-cold":   {Kind: kindLibrary, Items: 50_000, Variant: stpq.Range, Radius: 0.01, Ops: 220, Buffer: 32},
	"influence":    {Kind: kindLibrary, Items: 20_000, Variant: stpq.Influence, Radius: 0.05, Ops: 120, Buffer: warmPages},
	"nn":           {Kind: kindLibrary, Items: 2_000, Variant: stpq.NearestNeighbor, Ops: 100, Buffer: warmPages},
	"shard4-range": {Kind: kindLibrary, Items: 50_000, Variant: stpq.Range, Radius: 0.01, Ops: 80, Buffer: warmPages, Shards: 4},
	"serve-http":   {Kind: kindHTTP, Items: 50_000, Variant: stpq.Range, Radius: 0.01, Ops: 440, Buffer: warmPages},
	"mixed-ingest": {Kind: kindIngest, Items: 20_000, Variant: stpq.Range, Radius: 0.01, Ops: 150, Buffer: warmPages},
}

// metric is one reported number as BENCHMARK.json lists it. Per-layer
// metrics have no bound.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The benchmark as BENCHMARK.json defines it: the one list of the
// workloads with their reasons and of the metrics with their units and
// bounds. endToEnd is what a caller of the system sees, reported by every
// workload in an untraced run; perLayer is the ledger of a traced run, in
// which a layer the workload does not reach reports 0.
var (
	workloads []workload
	endToEnd  []metric
	perLayer  []metric
)

// loadManifest reads BENCHMARK.json from the directory the benchmark runs
// in, the root of the checkout.
func loadManifest() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var man struct {
		Workloads []workload `json:"workloads"`
		EndToEnd  []metric   `json:"end_to_end"`
		PerLayer  []metric   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(man.Workloads) != len(params) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, spec.go has parameters for %d", len(man.Workloads), len(params))
	}
	for i, w := range man.Workloads {
		p, ok := params[w.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, for which spec.go has no parameters", w.Name)
		}
		p.Name, p.Why = w.Name, w.Why
		man.Workloads[i] = p
	}
	workloads, endToEnd, perLayer = man.Workloads, man.EndToEnd, man.PerLayer
	return nil
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
