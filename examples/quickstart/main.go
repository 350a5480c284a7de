// Command quickstart is the smallest end-to-end use of the stpq library:
// index a handful of hotels and restaurants, then ask for the hotels that
// have a highly rated Italian restaurant serving pizza nearby — the
// paper's motivating query.
package main

import (
	"fmt"
	"log"

	"stpq"
)

func main() {
	db := stpq.New(stpq.Config{})
	// Sampling rate 1 records a span tree for every query (phase timings
	// and page-read deltas); tracing is off by default and costs one nil
	// check when off.
	if err := db.SetTraceSampling(1, 0); err != nil {
		log.Fatal(err)
	}

	// Data objects: the entities we rank (coordinates in [0,1]²).
	db.AddObjects([]stpq.Object{
		{ID: 1, X: 0.20, Y: 0.20},
		{ID: 2, X: 0.52, Y: 0.48},
		{ID: 3, X: 0.80, Y: 0.75},
	})

	// Feature objects: facilities with a quality score and keywords.
	db.AddFeatureSet("restaurants", []stpq.Feature{
		{ID: 1, X: 0.21, Y: 0.22, Score: 0.9, Keywords: []string{"steak", "bbq"}},
		{ID: 2, X: 0.50, Y: 0.50, Score: 0.8, Keywords: []string{"pizza", "italian"}},
		{ID: 3, X: 0.55, Y: 0.45, Score: 0.6, Keywords: []string{"pizza"}},
		{ID: 4, X: 0.82, Y: 0.74, Score: 0.3, Keywords: []string{"italian"}},
	})

	if err := db.Build(); err != nil {
		log.Fatal(err)
	}

	results, stats, err := db.TopK(stpq.Query{
		K:      3,
		Radius: 0.1, // "nearby" = within 0.1 of the hotel
		Lambda: 0.5, // balance rating vs. keyword match equally
		Keywords: map[string][]string{
			"restaurants": {"italian", "pizza"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Hotels with a good Italian pizza place nearby:")
	for rank, r := range results {
		fmt.Printf("  %d. hotel %d  score %.3f\n", rank+1, r.ID, r.Score)
	}
	fmt.Printf("(answered with %d page reads, %v CPU)\n",
		stats.LogicalReads, stats.CPUTime.Round(1000))

	// The trace breaks the query down by phase. Print one level: the query
	// root and its direct children.
	if root := stats.Trace; root != nil {
		fmt.Printf("phases of %s (%v, %d/%d logical/physical reads):\n",
			root.Name, root.Duration.Round(1000), root.LogicalReads, root.PhysicalReads)
		for _, child := range root.Children {
			fmt.Printf("  %-18s ×%-4d %v\n", child.Name, child.Count, child.Duration.Round(1000))
		}
	}
}
