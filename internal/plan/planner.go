// Package plan is the cost-based query planner: stpq's Prepare consults it
// once per query, between validation and execution (the cluster coordinator
// applies its fan-out rule to coordinator-side statistics), and it turns
// the per-shape statistics of internal/obs into three decisions:
//
//  1. Which algorithm runs a query whose caller did not force one
//     (Algorithm: Auto): the paper shows neither STDS nor STPS dominates —
//     the winner flips with radius, k and keyword selectivity — so the
//     planner compares the recorded mean total cost (CPU + modeled I/O) of
//     the query's shape under both algorithms and picks the cheaper one.
//  2. How wide a clustered query fans out per wave: a query whose
//     predicted cost is small finishes fast even serialized, so running it
//     one node at a time maximizes the bound-pruning between waves; an
//     expensive query wants the full width for overlap.
//  3. What a query is predicted to cost — the admission-control input that
//     lets the serve layer shed the expensive tail under overload instead
//     of rejecting uniformly at random.
//
// Every decision degrades deterministically: while a shape has fewer than
// MinSamples recorded executions, the planner falls back to the historical
// defaults (STPS, engine-default width, cost unknown), so a cold process
// behaves exactly like the pre-planner system. Decisions never affect
// results — both algorithms are exact and the scatter pruning rule is
// width-independent — only cost.
package plan

import (
	"fmt"
	"time"

	"stpq/internal/obs"
)

// Algorithm names, spelled exactly as the telemetry layer records them.
const (
	AlgSTPS = "stps"
	AlgSTDS = "stds"
)

// DefaultCheapLatency is the predicted-cost threshold below which a
// clustered query is serialized (wave width 1): at this cost the pruning
// won by evaluating the termination rule between every node outweighs
// the lost overlap.
const DefaultCheapLatency = 5 * time.Millisecond

// Planner chooses execution strategy per query from recorded per-shape
// statistics. The zero value (nil Shapes) is valid and always falls back
// to the defaults.
type Planner struct {
	// Shapes is the per-shape cost table the planner reads (nil = always
	// cold).
	Shapes *obs.ShapeStats
	// MinSamples is how many recorded executions a shape needs before its
	// mean is trusted (0 = obs.MinPredictSamples).
	MinSamples int64
	// CheapLatency is the serialize-the-waves threshold
	// (0 = DefaultCheapLatency).
	CheapLatency time.Duration
}

// Candidate is one algorithm the planner considered, with the evidence it
// had.
type Candidate struct {
	Algorithm string        `json:"algorithm"`
	Samples   int64         `json:"samples"`
	Cost      time.Duration `json:"cost_ns"`
	Known     bool          `json:"known"`
}

// Decision is the planner's full verdict for one query, reported by
// EXPLAIN alongside the execution plan.
type Decision struct {
	// Algorithm is the concrete algorithm the query runs with.
	Algorithm string `json:"algorithm"`
	// Reason explains the choice in operator-readable form.
	Reason string `json:"reason"`
	// Forced reports that the caller fixed the algorithm and the planner
	// only annotated it.
	Forced bool `json:"forced,omitempty"`
	// Fallback reports the deterministic cold-start path: Auto was
	// requested but at least one candidate shape is below the sample
	// floor, so the historical default won.
	Fallback bool `json:"fallback,omitempty"`
	// Cost is the predicted mean total cost of the chosen plan; CostKnown
	// is false (and Cost zero) below the sample floor.
	Cost      time.Duration `json:"cost_ns,omitempty"`
	CostKnown bool          `json:"cost_known"`
	// Candidates lists every algorithm considered, chosen first.
	Candidates []Candidate `json:"candidates,omitempty"`
}

func (p *Planner) minSamples() int64 {
	if p.MinSamples > 0 {
		return p.MinSamples
	}
	return obs.MinPredictSamples
}

func (p *Planner) cheapLatency() time.Duration {
	if p.CheapLatency > 0 {
		return p.CheapLatency
	}
	return DefaultCheapLatency
}

// candidate looks up one algorithm's recorded cost for the shape.
func (p *Planner) candidate(key obs.ShapeKey, alg string) Candidate {
	key.Alg = alg
	mean, n := p.Shapes.Cost(key)
	return Candidate{Algorithm: alg, Samples: n, Cost: mean, Known: n >= p.minSamples()}
}

// Resolve maps a query shape and the caller's algorithm choice (AlgSTPS /
// AlgSTDS, or "" for Auto) to the concrete algorithm plus its predicted
// cost. It is allocation-free — the form the query hot path uses. key.Alg
// is ignored; the planner fills it per candidate.
func (p *Planner) Resolve(key obs.ShapeKey, forced string) (alg string, cost time.Duration, known bool) {
	if forced != "" {
		c := p.candidate(key, forced)
		return forced, c.Cost, c.Known
	}
	stds := p.candidate(key, AlgSTDS)
	stps := p.candidate(key, AlgSTPS)
	if stds.Known && stps.Known {
		// Both measured: the cheaper mean total wins, STPS on a tie (it is
		// the paper's winner in expectation and today's default).
		if stds.Cost < stps.Cost {
			return AlgSTDS, stds.Cost, true
		}
		return AlgSTPS, stps.Cost, true
	}
	// Cold start: deterministic fallback to the historical default. Its
	// own cost may still be known (only the alternative is cold).
	return AlgSTPS, stps.Cost, stps.Known
}

// Decide is Resolve with the full audit trail: every candidate considered,
// the reason, and the fallback/forced markers. Used by EXPLAIN; the hot
// path calls Resolve instead.
func (p *Planner) Decide(key obs.ShapeKey, forced string) Decision {
	if forced != "" {
		c := p.candidate(key, forced)
		other := AlgSTPS
		if forced == AlgSTPS {
			other = AlgSTDS
		}
		return Decision{
			Algorithm:  forced,
			Reason:     "algorithm forced by caller",
			Forced:     true,
			Cost:       c.Cost,
			CostKnown:  c.Known,
			Candidates: []Candidate{c, p.candidate(key, other)},
		}
	}
	stds := p.candidate(key, AlgSTDS)
	stps := p.candidate(key, AlgSTPS)
	d := Decision{}
	switch {
	case stds.Known && stps.Known && stds.Cost < stps.Cost:
		d = Decision{
			Algorithm: AlgSTDS,
			Reason: fmt.Sprintf("auto: stds predicted %v beats stps %v",
				stds.Cost.Round(time.Microsecond), stps.Cost.Round(time.Microsecond)),
			Cost: stds.Cost, CostKnown: true,
			Candidates: []Candidate{stds, stps},
		}
	case stds.Known && stps.Known:
		d = Decision{
			Algorithm: AlgSTPS,
			Reason: fmt.Sprintf("auto: stps predicted %v beats stds %v",
				stps.Cost.Round(time.Microsecond), stds.Cost.Round(time.Microsecond)),
			Cost: stps.Cost, CostKnown: true,
			Candidates: []Candidate{stps, stds},
		}
	default:
		cold := "stds"
		if !stps.Known {
			if !stds.Known {
				cold = "both algorithms"
			} else {
				cold = "stps"
			}
		}
		d = Decision{
			Algorithm: AlgSTPS,
			Reason: fmt.Sprintf("cold start: %s below %d-sample floor, defaulting to stps",
				cold, p.minSamples()),
			Fallback: true,
			Cost:     stps.Cost, CostKnown: stps.Known,
			Candidates: []Candidate{stps, stds},
		}
	}
	return d
}

// FanoutWidth decides the coordinator's scatter wave width for a query
// over the given number of cluster nodes: 0 keeps the configured width.
// A warm, cheap prediction serializes the waves (width 1) so the
// termination rule is evaluated after every node — maximal pruning at
// negligible latency cost; everything else (expensive or cold) keeps the
// configured width. Results are identical at any width.
func (p *Planner) FanoutWidth(cost time.Duration, known bool, nodes int) int {
	if nodes <= 1 || !known {
		return 0
	}
	if cost <= p.cheapLatency() {
		return 1
	}
	return 0
}
