// Package approx is the approximate fast tier: a MinHash/LSH sketch
// layer over feature keyword sets that prunes textual candidates before
// the exact scoring kernels, trading a bounded amount of recall for
// latency. It follows the signature-approximation line of SEAL and the
// datasketch-style MinHash/LSH pairing of the exemplar repos.
//
// Every feature's keyword set (vocabulary ids) is folded into a MinHash
// signature of SignatureLen 32-bit minima. At query time the signature is
// split into b bands of r rows: a feature is a candidate iff at least one
// band agrees exactly with the query's signature — the classic banded-LSH
// acceptance curve P(candidate) = 1 − (1 − s^r)^b for Jaccard similarity
// s. The per-request recall target ρ picks (b, r) so that a minimally
// relevant feature (one shared keyword among ~10, s ≈ 0.1) survives with
// probability ≥ ρ; see ParamsForRecall.
//
// The package is deliberately dependency-light (kwset only) so the index
// layer can embed it without cycles. All hash seeds are package-level
// constants derived by splitmix64, so signatures are deterministic across
// processes, parts and shards — a sharded engine and an unsharded engine
// prune identically.
package approx

import (
	"math"
	"sync"
	"sync/atomic"

	"stpq/internal/kwset"
)

// SignatureLen is the number of MinHash functions (and 32-bit minima per
// signature). 128 minima estimate Jaccard similarity with a standard
// error of √(J(1−J)/128) ≤ 0.045.
const SignatureLen = 128

// DefaultRecall is the recall target used when an approximate query does
// not set one explicitly.
const DefaultRecall = 0.9

// Signature is one MinHash sketch: the per-hash-function minima over a
// keyword id set. The empty set's signature is all ^uint32(0).
type Signature [SignatureLen]uint32

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// 64-bit mixer used both to derive the per-function seeds and to hash
// keyword ids under them.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seeds holds one fixed 64-bit seed per hash function, derived from the
// function index so every process computes identical signatures.
var seeds = func() [SignatureLen]uint64 {
	var s [SignatureLen]uint64
	for i := range s {
		s[i] = splitmix64(uint64(i) + 0x5851f42d4c957f2d)
	}
	return s
}()

// hashAt returns hash function i applied to keyword id, folded to 32
// bits.
func hashAt(i int, id int) uint32 {
	return uint32(splitmix64(seeds[i]^uint64(uint32(id))) >> 32)
}

// SignatureOf computes the MinHash signature of a keyword id set.
func SignatureOf(set kwset.Set) Signature {
	var sig Signature
	for i := range sig {
		sig[i] = ^uint32(0)
	}
	set.ForEach(func(id int) {
		for i := range sig {
			if h := hashAt(i, id); h < sig[i] {
				sig[i] = h
			}
		}
	})
	return sig
}

// EstimateJaccard returns the fraction of agreeing signature positions —
// the unbiased MinHash estimator of Jaccard similarity.
func EstimateJaccard(a, b *Signature) float64 {
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(SignatureLen)
}

// Params are the banded-LSH settings one recall target lowers to.
type Params struct {
	// Bands and Rows split the signature into Bands bands of Rows minima;
	// a feature is a candidate iff some band agrees exactly.
	Bands int
	Rows  int
	// SkipVerify, in signature-mode indexes, skips the exact-keyword
	// verification page read for candidates and scores them from the
	// MinHash similarity estimate instead — the I/O saving of the fast
	// tier. High recall targets (> 0.95) keep verification so the only
	// approximation left is the LSH candidate filter.
	SkipVerify bool
	// Recall is the target this parameterization was derived from (kept
	// for display and metrics).
	Recall float64
}

// minCandidateSim anchors the recall mapping: a feature sharing one
// keyword of ~10 with the query (Jaccard ≈ 0.1) is the weakest candidate
// the tier still promises to surface with probability ≥ the recall
// target. Features with higher similarity — the ones that actually rank —
// survive with strictly higher probability.
const minCandidateSim = 0.1

// ParamsForRecall maps a recall target ρ ∈ (0,1] to banded-LSH settings:
// Rows = 1 for high targets (gentlest filter), 2 below 0.6 (steeper
// acceptance curve, more pruning), then the smallest band count with
// 1 − (1 − s₀^Rows)^Bands ≥ ρ at s₀ = minCandidateSim, clamped to the
// signature length. See DESIGN.md §15 for the resulting table.
func ParamsForRecall(recall float64) Params {
	if recall <= 0 || recall > 1 || math.IsNaN(recall) {
		recall = DefaultRecall
	}
	rows := 1
	if recall < 0.6 {
		rows = 2
	}
	p := math.Pow(minCandidateSim, float64(rows))
	bands := SignatureLen / rows
	if recall < 1 {
		bands = int(math.Ceil(math.Log(1-recall) / math.Log(1-p)))
	}
	if bands < 1 {
		bands = 1
	}
	if bands > SignatureLen/rows {
		bands = SignatureLen / rows
	}
	return Params{Bands: bands, Rows: rows, SkipVerify: recall <= 0.95, Recall: recall}
}

// Candidate reports whether at least one band of the two signatures
// agrees exactly — the LSH acceptance test.
func (p Params) Candidate(a, b *Signature) bool {
	for band := 0; band < p.Bands; band++ {
		base := band * p.Rows
		hit := true
		for r := 0; r < p.Rows; r++ {
			if a[base+r] != b[base+r] {
				hit = false
				break
			}
		}
		if hit {
			return true
		}
	}
	return false
}

// Request is the per-query approximate-tier state, shared by every engine
// view (shards, sessions) executing one logical query: the lowered LSH
// parameters plus atomic pruning counters, safe for the sharded engine's
// concurrent scatter waves.
type Request struct {
	Params Params
	// Candidates counts leaf features checked against the sketch, Pruned
	// those the band filter rejected, and SkippedReads the verification
	// page reads the skip-verify path avoided.
	Candidates   atomic.Int64
	Pruned       atomic.Int64
	SkippedReads atomic.Int64
}

// NewRequest lowers a recall target (0 = DefaultRecall) into a request.
func NewRequest(recall float64) *Request {
	if recall == 0 {
		recall = DefaultRecall
	}
	return &Request{Params: ParamsForRecall(recall)}
}

// sketchEntry is one feature's sketch: its MinHash signature and keyword
// cardinality (needed to convert the Jaccard estimate to the other
// similarity measures).
type sketchEntry struct {
	sig  Signature
	card int32
}

// Sketch maps feature ids to their MinHash sketches for one index part.
// Reads and writes are internally synchronized.
type Sketch struct {
	mu sync.RWMutex
	m  map[int64]sketchEntry
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{m: make(map[int64]sketchEntry)} }

// Put computes and stores the signature of one feature's keyword set.
func (s *Sketch) Put(id int64, set kwset.Set) {
	e := sketchEntry{sig: SignatureOf(set), card: int32(set.Count())}
	s.mu.Lock()
	s.m[id] = e
	s.mu.Unlock()
}

// Get returns a copy of the feature's signature and its keyword
// cardinality, reporting whether the feature is sketched.
func (s *Sketch) Get(id int64) (Signature, int, bool) {
	s.mu.RLock()
	e, ok := s.m[id]
	s.mu.RUnlock()
	return e.sig, int(e.card), ok
}

// Holder is the shared, lazily-built sketch slot of one index
// generation. Index views (per-query sessions, tombstone filters) are
// shallow struct copies sharing the holder pointer, so the sketch is
// built at most once per generation.
type Holder struct {
	mu     sync.Mutex
	built  atomic.Bool
	sketch *Sketch
	err    error
}

// NewHolder returns an empty holder (sketch built on first Get).
func NewHolder() *Holder { return &Holder{} }

// Get returns the sketch, building it with the supplied closure on first
// use. The build result — error included — is sticky.
func (h *Holder) Get(build func() (*Sketch, error)) (*Sketch, error) {
	if h.built.Load() {
		return h.sketch, h.err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.built.Load() {
		h.sketch, h.err = build()
		h.built.Store(true)
	}
	return h.sketch, h.err
}
