package stpq

// explain.go is the EXPLAIN surface: DB.Explain describes how a query
// would execute — algorithm, index, the shape it is counted under in
// DB.QueryShapes, shard layout with per-shard upper bounds — without
// running the query. Exposed as `stpq -explain` on the CLI and
// `"explain": true` on the HTTP query endpoint.

import (
	"fmt"
	"strings"
)

// ExplainShard is one shard's entry in the plan of a sharded DB: how many
// data objects the cell holds and the upper bound its region admits for
// the query — no object in it can score above that.
type ExplainShard struct {
	ID      int     `json:"id"`
	Bound   float64 `json:"bound"`
	Objects int     `json:"objects"`
}

// Explain describes how a query would execute.
type Explain struct {
	// Algorithm is "stds" or "stps"; Variant the score variant name.
	Algorithm string `json:"algorithm"`
	Variant   string `json:"variant"`
	// Index names the feature index structure ("srt" or "ir2").
	Index      string  `json:"index"`
	Similarity string  `json:"similarity"`
	K          int     `json:"k"`
	Radius     float64 `json:"radius,omitempty"`
	// KeywordSets counts the non-empty query keyword sets out of the DB's
	// feature sets.
	KeywordSets int `json:"keyword_sets"`
	FeatureSets int `json:"feature_sets"`
	// Shape is the canonical shape label the query's executions are
	// counted under in DB.QueryShapes.
	Shape string `json:"shape"`
	// Shards lists the cells of a sharded DB (nil when unsharded).
	Shards []ExplainShard `json:"shards,omitempty"`
}

// Explain describes how the query would execute against the current
// indexes without running it: the algorithm and index, the query's shape,
// and the shards with their upper bounds (sharded DBs).
func (db *DB) Explain(q Query) (*Explain, error) {
	snap, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.Explain(q)
}

// Explain describes the prepared plan.
func (p *Prepared) Explain() (*Explain, error) {
	s := p.snap
	ex := &Explain{
		Algorithm:   p.key.Alg,
		Variant:     p.key.Variant,
		Index:       "srt",
		Similarity:  p.key.Sim,
		K:           p.q.K,
		Radius:      p.q.Radius,
		KeywordSets: p.key.Sets,
		FeatureSets: len(s.names),
		Shape:       p.Shape(),
	}
	if s.db.cfg.IndexKind == IR2 {
		ex.Index = "ir2"
	}
	if s.shards != nil {
		sp, err := s.shards.Plan(p.cq)
		if err != nil {
			return nil, err
		}
		ex.Shards = make([]ExplainShard, len(sp))
		for i, sh := range sp {
			ex.Shards[i] = ExplainShard{ID: sh.ID, Bound: sh.Bound, Objects: sh.Objects}
		}
	}
	return ex, nil
}

// String renders the plan as the `stpq -explain` text output.
func (e *Explain) String() string {
	var b strings.Builder
	if e.Index != "" {
		fmt.Fprintf(&b, "EXPLAIN %s %s (%s index, %s similarity)\n", e.Algorithm, e.Variant, e.Index, e.Similarity)
	} else {
		fmt.Fprintf(&b, "EXPLAIN %s %s (%s similarity)\n", e.Algorithm, e.Variant, e.Similarity)
	}
	fmt.Fprintf(&b, "  k=%d", e.K)
	if e.Radius > 0 {
		fmt.Fprintf(&b, " radius=%g", e.Radius)
	}
	fmt.Fprintf(&b, " keyword sets: %d/%d non-empty\n", e.KeywordSets, e.FeatureSets)
	fmt.Fprintf(&b, "  shape: %s\n", e.Shape)
	if len(e.Shards) > 0 {
		fmt.Fprintf(&b, "  plan: one engine over %d shards\n", len(e.Shards))
		for _, sh := range e.Shards {
			fmt.Fprintf(&b, "    shard %02d  bound=%.4f  objects=%d\n", sh.ID, sh.Bound, sh.Objects)
		}
	} else {
		fmt.Fprintf(&b, "  plan: single engine\n")
	}
	return b.String()
}
