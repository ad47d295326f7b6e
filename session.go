package gupt

import (
	"context"
	"errors"
	"fmt"

	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/qcache"
)

// Session plans a batch of queries against one dataset under a single
// session budget, distributing ε across them automatically in proportion to
// their noise scales (paper §5.2). This is the executable form of
// Example 4: the platform, not the analyst, decides how much of the budget
// each query needs so that every query suffers comparable noise.
//
// Usage:
//
//	s := platform.NewSession("census", 2.0)
//	s.Add(gupt.Query{Program: gupt.Mean{Col: 0}, OutputRanges: ...})
//	s.Add(gupt.Query{Program: gupt.Variance{Col: 0}, OutputRanges: ...})
//	results, err := s.Run(ctx)
//
// Queries added to a session must use Tight or Loose mode (the noise-scale
// weight ζ is computed from their output ranges) and must not set their own
// Epsilon or Accuracy — the session owns the budget.
type Session struct {
	platform *Platform
	dataset  string
	budget   float64
	queries  []Query
}

// NewSession starts a session holding totalEpsilon for the named dataset.
// The budget is not charged until Run.
func (p *Platform) NewSession(dataset string, totalEpsilon float64) *Session {
	return &Session{platform: p, dataset: dataset, budget: totalEpsilon}
}

// Add appends a query to the session plan. The query's Dataset, Epsilon and
// Accuracy fields must be unset; everything else (mode, ranges, block size,
// resampling, seed) is per-query.
func (s *Session) Add(q Query) error {
	if q.Dataset != "" && q.Dataset != s.dataset {
		return fmt.Errorf("gupt: session is bound to %q, query names %q", s.dataset, q.Dataset)
	}
	if q.Epsilon != 0 || q.Accuracy != nil {
		return errors.New("gupt: session queries must not set Epsilon or Accuracy; the session distributes its own budget")
	}
	if q.Program == nil {
		return errors.New("gupt: session query needs a program")
	}
	if q.Mode != Tight && q.Mode != Loose {
		return errors.New("gupt: session queries need output ranges (Tight or Loose mode)")
	}
	if len(q.OutputRanges) != q.Program.OutputDims() {
		return fmt.Errorf("gupt: query has %d output ranges for %d output dims",
			len(q.OutputRanges), q.Program.OutputDims())
	}
	q.Dataset = s.dataset
	s.queries = append(s.queries, q)
	return nil
}

// Plan returns the per-query ε allocation the session would charge, without
// charging it. Allocations are proportional to each query's noise scale
// ζ = Σ outputWidth · β / n.
func (s *Session) Plan() ([]float64, error) {
	if len(s.queries) == 0 {
		return nil, errors.New("gupt: empty session")
	}
	reg, err := s.platform.reg.Lookup(s.dataset)
	if err != nil {
		return nil, err
	}
	n := reg.Private.NumRows()
	zetas := make([]float64, len(s.queries))
	for i, q := range s.queries {
		beta := q.BlockSize
		if beta == 0 {
			beta = core.DefaultBlockSize(n)
		}
		z, err := budget.Zeta(q.OutputRanges, beta, n)
		if err != nil {
			return nil, fmt.Errorf("gupt: session query %d: %w", i, err)
		}
		zetas[i] = z
	}
	return budget.Distribute(s.budget, zetas)
}

// Run charges the session budget (atomically: all-or-nothing against the
// dataset's lifetime ledger) and executes every query at its allocated ε,
// returning results in Add order.
//
// Failures degrade gracefully: once the charge has settled, a query that
// fails mid-session leaves a nil slot in the results and the remaining
// queries still run — aborting would waste the survivors' budget, and
// refunding any of it would reopen the §6.2 privacy-budget attack. The
// returned error joins every per-query failure (nil when all succeeded);
// the session's full budget is consumed either way.
func (s *Session) Run(ctx context.Context) ([]*Result, error) {
	alloc, err := s.Plan()
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("session:%s:%d-queries", s.dataset, len(s.queries))

	// Noisy-answer cache: the session's ε is charged atomically, so the
	// batch caches (and re-releases) as one unit. A hit re-serves every
	// member's published answer and charges nothing.
	var fp qcache.Fingerprint
	cachable := false
	if reg, err := s.platform.reg.Lookup(s.dataset); err == nil {
		fp, cachable = s.platform.sessionFingerprint(s, reg.ContentVersion())
	}
	if cachable {
		if v, ok := s.platform.cache.Get(fp); ok {
			cached := v.([]Result)
			if err := s.platform.mgr.CacheHit(s.dataset, label); err != nil {
				return nil, fmt.Errorf("gupt: recording cache hit: %w", err)
			}
			out := make([]*Result, len(cached))
			for i := range cached {
				r := cached[i]
				r.CacheHit = true
				out[i] = &r
			}
			return out, nil
		}
	}

	// One atomic charge for the whole session; per-query epsilons then flow
	// from the session's own pot, so a mid-session failure cannot leave the
	// ledger inconsistent with what was released.
	if err := s.platform.mgr.Charge(s.dataset, label, s.budget); err != nil {
		return nil, err
	}

	results := make([]*Result, len(s.queries))
	var errs []error
	for i, q := range s.queries {
		q.Epsilon = alloc[i]
		reg, err := s.platform.reg.Lookup(s.dataset)
		if err != nil {
			errs = append(errs, fmt.Errorf("gupt: session query %d: %w", i, err))
			continue
		}
		spec := core.RangeSpec{Mode: q.Mode, Output: q.OutputRanges}
		res, err := core.RunMatrix(ctx, q.Program, reg.Private.Matrix(), spec, core.Options{
			Epsilon:      q.Epsilon,
			BlockSize:    q.BlockSize,
			Gamma:        q.Gamma,
			Seed:         q.Seed,
			Quantum:      q.Quantum,
			BlockTimeout: q.BlockTimeout,
			MaxFailFrac:  q.MaxFailFrac,
			NewChamber:   q.Chambers,
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("gupt: session query %d (%s): %w", i, q.Program.Name(), err))
			continue
		}
		results[i] = res
	}
	// Fill only when every member released cleanly, same stance as
	// standalone queries: re-serving a partially failed batch would pin its
	// failures.
	if cachable && len(errs) == 0 {
		clean := true
		for _, r := range results {
			if r == nil || r.FailedBlocks > 0 {
				clean = false
				break
			}
		}
		if clean {
			stored := make([]Result, len(results))
			var size int64
			for i, r := range results {
				stored[i] = *r
				size += resultCacheSize(r)
			}
			s.platform.cache.Put(fp, s.dataset, stored, size)
		}
	}
	return results, errors.Join(errs...)
}
