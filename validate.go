package stpq

// validate.go centralizes query validation: one function, shared by the
// library entry points (DB.TopK, DB.Score) and the HTTP query handler of
// internal/serve, returning errors that wrap ErrInvalidQuery so callers
// can map every rejection to a 400 with errors.Is. checkItem and
// checkVocabulary are its counterparts for the data Build and Apply index.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// ErrInvalidQuery is the sentinel wrapped by every query-validation error.
var ErrInvalidQuery = errors.New("stpq: invalid query")

// ErrUnknownFeatureSet is wrapped by validation errors about keyword sets
// that name no registered feature set. It wraps ErrInvalidQuery, so
// errors.Is(err, ErrInvalidQuery) also holds.
var ErrUnknownFeatureSet = fmt.Errorf("%w: unknown feature set", ErrInvalidQuery)

// ErrNotBuilt is returned by queries and snapshots taken before Build.
var ErrNotBuilt = errors.New("stpq: not built")

// ErrVocabularyTooWide is returned by Build, Rebuild and Apply when the
// distinct keywords would number more than a page fits: a leaf page holds
// each feature's keyword bitmap, two features at least. It is returned
// before anything is built or logged, and its message names the smallest
// page size (Config.PageSize) that fits the vocabulary. Apply's error
// wraps ErrInvalidMutation too.
var ErrVocabularyTooWide = errors.New("stpq: vocabulary too wide for the page size")

// ValidateQuery checks q against the registered feature-set names,
// rejecting non-positive K, negative Radius (or zero Radius for the range
// and influence variants, which divide by it), Lambda outside [0,1],
// out-of-range enumeration values and unknown feature-set names. Every
// error wraps ErrInvalidQuery.
func ValidateQuery(q Query, featureSets []string) error {
	if q.K <= 0 {
		return fmt.Errorf("%w: K must be positive, got %d", ErrInvalidQuery, q.K)
	}
	if q.Variant < Range || q.Variant > NearestNeighbor {
		return fmt.Errorf("%w: unknown variant %d", ErrInvalidQuery, int(q.Variant))
	}
	if q.Algorithm < STPS || q.Algorithm > STDS {
		return fmt.Errorf("%w: unknown algorithm %d", ErrInvalidQuery, int(q.Algorithm))
	}
	if q.Similarity < JaccardSim || q.Similarity > OverlapSim {
		return fmt.Errorf("%w: unknown similarity %d", ErrInvalidQuery, int(q.Similarity))
	}
	// Written so that NaN fails: a NaN λ or radius gives a hang or a wrong answer.
	if !(q.Radius >= 0) {
		return fmt.Errorf("%w: radius must not be negative, got %v", ErrInvalidQuery, q.Radius)
	}
	if q.Variant != NearestNeighbor && q.Radius == 0 {
		return fmt.Errorf("%w: radius must be positive for the %s variant", ErrInvalidQuery, variantName(q.Variant))
	}
	if !(q.Lambda >= 0 && q.Lambda <= 1) {
		return fmt.Errorf("%w: lambda %v outside [0,1]", ErrInvalidQuery, q.Lambda)
	}
	for name := range q.Keywords {
		known := false
		for _, n := range featureSets {
			if n == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("%w %q", ErrUnknownFeatureSet, name)
		}
	}
	return nil
}

// variantName names a variant without relying on a Stringer on the public
// enum (kept minimal on purpose).
func variantName(v Variant) string {
	switch v {
	case Range:
		return "range"
	case Influence:
		return "influence"
	case NearestNeighbor:
		return "nearest-neighbor"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// checkItem rejects an object or feature Build or Apply would index wrongly:
// a NaN or infinite coordinate, or a score outside [0,1] or NaN (written so
// that NaN, false under every comparison, fails). Objects pass score 0.
func checkItem(x, y, score float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("location (%v, %v) is not finite", x, y)
	}
	if !(score >= 0 && score <= 1) {
		return fmt.Errorf("score %v outside [0,1]", score)
	}
	return nil
}

// checkVocabulary returns ErrVocabularyTooWide unless width keywords fit
// pages of pageSize bytes (0 for the default), as rtree.MaxKeywordWidth
// says.
func checkVocabulary(width, pageSize int) error {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	widest := rtree.MaxKeywordWidth(pageSize)
	if width <= widest {
		return nil
	}
	fits := sort.Search(storage.MaxPageSize, func(p int) bool { return rtree.MaxKeywordWidth(p) >= width })
	return fmt.Errorf("%w: %d keywords; pages of %d bytes fit %d, and the smallest page that fits %d is %d bytes",
		ErrVocabularyTooWide, width, pageSize, widest, width, fits)
}
