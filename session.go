package gupt

import (
	"context"
	"errors"
	"fmt"

	"gupt/internal/pipeline"
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
// Epsilon, Accuracy or AutoBlockSize — the session owns the budget.
type Session struct {
	platform *Platform
	plan     pipeline.Session
}

// NewSession starts a session holding totalEpsilon for the named dataset.
// The budget is not charged until Run.
func (p *Platform) NewSession(dataset string, totalEpsilon float64) *Session {
	return &Session{platform: p, plan: pipeline.Session{Dataset: dataset, Epsilon: totalEpsilon}}
}

// Add appends a query to the session plan. The query's Dataset, Epsilon,
// Accuracy and AutoBlockSize fields must be unset: the session owns the
// budget, and it splits it by noise scales computed from each query's
// block size before anything runs. Everything else (mode, ranges, block
// size, resampling, seed, privacy unit) is per-query.
func (s *Session) Add(q Query) error {
	if q.Dataset != "" && q.Dataset != s.plan.Dataset {
		return fmt.Errorf("gupt: session is bound to %q, query names %q", s.plan.Dataset, q.Dataset)
	}
	q.Dataset = s.plan.Dataset
	member := q.canonical()
	if err := pipeline.CheckMember(&member); err != nil {
		return err
	}
	s.plan.Members = append(s.plan.Members, member)
	return nil
}

// Plan returns the per-query ε allocation the session would charge, without
// charging it. Allocations are proportional to each query's noise scale
// ζ = Σ outputWidth · β / n.
func (s *Session) Plan() ([]float64, error) {
	return s.platform.pipe.Plan(&s.plan)
}

// Run charges the session budget (atomically: all-or-nothing against the
// dataset's lifetime ledger) and executes every query at its allocated ε,
// returning results in Add order. With EnableCache, an exact repeat of a
// released session is re-served whole at zero ε.
//
// Failures degrade gracefully: once the charge has settled, a query that
// fails mid-session leaves a nil slot in the results and the remaining
// queries still run — aborting would waste the survivors' budget, and
// refunding any of it would reopen the §6.2 privacy-budget attack. The
// returned error joins every per-query failure (nil when all succeeded);
// the session's full budget is consumed either way.
func (s *Session) Run(ctx context.Context) ([]*Result, error) {
	rel, err := s.platform.pipe.RunSession(ctx, "", &s.plan)
	if err != nil {
		return nil, err
	}
	var errs []error
	for i, err := range rel.Errs {
		if err != nil {
			errs = append(errs, fmt.Errorf("gupt: session query %d (%s): %w", i, s.plan.Members[i].Name, err))
		}
	}
	return rel.Results, errors.Join(errs...)
}
