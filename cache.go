package gupt

// Noisy-answer cache for the embedded platform: a repeat of a previously
// released query is re-served the same already-published answer at zero
// additional ε (differential privacy is closed under post-processing).
// Caching is opt-in for the embedded API — EnableCache — because embedded
// callers often replay identical seeded queries precisely to observe fresh
// draws; the hosted server (cmd/guptd) enables it by default instead.
//
// The fingerprint (internal/pipeline) must be exact: only queries whose
// every distribution-relevant component can be hashed canonically are
// cached. This file writes the one part the pipeline cannot, the program's
// identity: a type switch over the platform's builtin value-struct
// programs. Custom Program implementations, Func closures, Translate
// functions and custom Chambers make a query uncachable — the hash cannot
// see inside a closure, and a wrong "identical" here would re-serve an
// answer from a different distribution. Uncachable queries simply run
// normally every time.

import (
	"time"

	"gupt/internal/analytics"
	"gupt/internal/qcache"
)

// EnableCache turns on the noisy-answer cache with the given capacity:
// repeat queries (and repeat sessions) whose fingerprint matches a
// previously released answer are served that same answer with no budget
// charge. ttl expires entries for memory reclamation (0 keeps them until
// evicted); correctness never depends on it, because the dataset content
// version inside every fingerprint already makes stale answers
// unreachable. maxEntries <= 0 disables caching again.
func (p *Platform) EnableCache(maxEntries int, ttl time.Duration) {
	p.pipe.Cache = qcache.New(qcache.Config{MaxEntries: maxEntries, TTL: ttl})
}

// CacheStats snapshots the cache counters; all zeros when disabled.
func (p *Platform) CacheStats() qcache.Stats { return p.pipe.Cache.Stats() }

// InvalidateCache drops every cached answer for the named dataset,
// returning the count. Mutation paths call this after bumping the
// dataset's content version; the bump alone already guarantees a mutated
// dataset can never serve a stale answer.
func (p *Platform) InvalidateCache(name string) int { return p.pipe.Cache.Invalidate(name) }

// hashProgram writes a program's canonical identity, or reports that the
// program cannot be fingerprinted (closures, custom implementations).
// Every case writes a distinct type tag before its fields so two programs
// of different types can never alias even with identical field bytes.
func hashProgram(h *qcache.Hasher, prog Program) bool {
	switch pr := prog.(type) {
	case analytics.Mean:
		h.Str("mean")
		h.Int(pr.Col)
	case analytics.Median:
		h.Str("median")
		h.Int(pr.Col)
	case analytics.Variance:
		h.Str("variance")
		h.Int(pr.Col)
	case analytics.Percentile:
		h.Str("percentile")
		h.Int(pr.Col)
		h.F64(pr.P)
	case analytics.Covariance:
		h.Str("covariance")
		h.Int(pr.ColA)
		h.Int(pr.ColB)
	case analytics.Histogram:
		h.Str("histogram")
		h.Int(pr.Col)
		h.F64(pr.Lo)
		h.F64(pr.Hi)
		h.Int(pr.Bins)
	case analytics.KMeans:
		h.Str("kmeans")
		h.Int(pr.K)
		h.Int(pr.FeatureDims)
		h.Int(pr.Iters)
		h.I64(pr.Seed)
	case analytics.LogisticRegression:
		h.Str("logreg")
		h.Int(pr.FeatureDims)
		h.Int(pr.LabelCol)
		h.Int(pr.Iters)
		h.F64(pr.LearnRate)
		h.F64(pr.L2)
		h.F64(pr.L1)
	case analytics.LinearRegression:
		h.Str("linreg")
		h.Int(pr.FeatureDims)
		h.Int(pr.TargetCol)
		h.F64(pr.Ridge)
	case analytics.NaiveBayes:
		h.Str("naivebayes")
		h.Int(pr.FeatureDims)
		h.Int(pr.LabelCol)
	case analytics.Pad:
		h.Str("pad")
		h.Int(pr.Dims)
		h.F64(pr.Fill)
		return hashProgram(h, pr.Inner)
	default:
		return false
	}
	return true
}

// identity writes the query's program identity for the pipeline's
// fingerprint. A Translate function or custom Chambers make the query
// uncachable, like a closure program: the hash cannot see inside them.
func (q *Query) identity(h *qcache.Hasher) bool {
	return q.Translate == nil && q.Chambers == nil && hashProgram(h, q.Program)
}
