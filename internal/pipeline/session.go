package pipeline

import (
	"context"
	"errors"
	"fmt"

	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
)

// Session is a §5.2 batch over one dataset: Epsilon is split across the
// members in proportion to their noise scales, so every member suffers
// comparable noise, and charged once, atomically, before anything runs.
// Members set neither Epsilon nor Accuracy.
type Session struct {
	Dataset string
	Epsilon float64
	Members []Query
}

// Released is a session's outcome once its charge settled, one slot per
// member in order: Results[i] is nil exactly when Errs[i] is not. Alloc is
// each member's share of the session ε; nil on a cache hit.
type Released struct {
	Results  []*core.Result
	Errs     []error
	Alloc    []float64
	CacheHit bool
}

// CheckMember refuses a query that cannot join a session. The session
// owns the budget, and each member's share is computed from its output
// ranges and block size before anything runs, so a member needs Tight or
// Loose ranges and cannot tune its block size.
func CheckMember(q *Query) error {
	switch {
	case q.Program == nil:
		return errors.New("pipeline: session query needs a program")
	case q.Epsilon != 0 || q.Accuracy != nil:
		return errors.New("pipeline: session queries must not set epsilon or accuracy; the session distributes its own budget")
	case q.Mode != core.ModeTight && q.Mode != core.ModeLoose:
		return errors.New("pipeline: session queries need output ranges (tight or loose mode)")
	case q.AutoBlockSize:
		return errors.New("pipeline: session queries cannot use AutoBlockSize; the plan's noise scales need the block size up front")
	case len(q.OutputRanges) != q.Program.OutputDims():
		return fmt.Errorf("pipeline: %d output ranges for %d output dims", len(q.OutputRanges), q.Program.OutputDims())
	}
	return nil
}

// Plan returns each member's share of s.Epsilon, proportional to its noise
// scale ζ = Σ outputWidth · β / n, without charging anything.
func (p *Pipeline) Plan(s *Session) ([]float64, error) {
	reg, err := p.Reg.Lookup(s.Dataset)
	if err != nil {
		return nil, err
	}
	return plan(reg, s)
}

func plan(reg *dataset.Registered, s *Session) ([]float64, error) {
	if len(s.Members) == 0 {
		return nil, errors.New("pipeline: empty session")
	}
	n := reg.Private.NumRows()
	zetas := make([]float64, len(s.Members))
	for i := range s.Members {
		q := &s.Members[i]
		if err := CheckMember(q); err != nil {
			return nil, fmt.Errorf("session query %d: %w", i, err)
		}
		beta := q.BlockSize
		if beta == 0 {
			beta = core.DefaultBlockSize(n)
		}
		z, err := budget.Zeta(q.OutputRanges, beta, n)
		if err != nil {
			return nil, fmt.Errorf("session query %d: %w", i, err)
		}
		zetas[i] = z
	}
	return budget.Distribute(s.Epsilon, zetas)
}

// RunSession answers a session as tenant. A repeat of a cached session is
// re-served whole at zero ε. Otherwise the plan is validated, the session
// ε charged and journaled, and every member run at its share. Once the
// charge has settled a failing member leaves its slot empty while the rest
// still run: aborting would waste the survivors' budget, and refunding any
// of it would reopen the §6.2 privacy-budget attack. The returned error is
// set only when nothing was charged.
func (p *Pipeline) RunSession(ctx context.Context, tenant string, s *Session) (*Released, error) {
	reg, err := p.Reg.Lookup(s.Dataset)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("session:%s:%d-queries", s.Dataset, len(s.Members))
	fp, cachable := sessionFingerprint(tenant, s, reg.ContentVersion())
	if cachable {
		if v, ok := p.Cache.Get(fp); ok {
			if err := p.rerelease(tenant, s.Dataset, label); err != nil {
				return nil, err
			}
			cached := v.([]core.Result)
			out := &Released{Results: make([]*core.Result, len(cached)), Errs: make([]error, len(cached)), CacheHit: true}
			for i := range cached {
				hit := cached[i]
				hit.CacheHit = true
				out.Results[i] = &hit
			}
			return out, nil
		}
	}

	alloc, err := plan(reg, s)
	if err != nil {
		return nil, err
	}
	data := reg.Private.Matrix()
	specs := make([]core.RangeSpec, len(s.Members))
	opts := make([]core.Options, len(s.Members))
	for i := range s.Members {
		if specs[i], opts[i], err = p.prepare(reg, data, &s.Members[i]); err != nil {
			return nil, fmt.Errorf("session query %d: %w", i, err)
		}
		opts[i].Epsilon = alloc[i]
	}
	if err := p.Mgr.ChargeAs(tenant, s.Dataset, label, s.Epsilon); err != nil {
		return nil, err
	}
	p.journal()

	out := &Released{Results: make([]*core.Result, len(s.Members)), Errs: make([]error, len(s.Members)), Alloc: alloc}
	clean := true
	for i := range s.Members {
		out.Results[i], out.Errs[i] = p.execute(ctx, s.Members[i].Program, data, specs[i], opts[i])
		clean = clean && out.Errs[i] == nil && out.Results[i].FailedBlocks == 0
	}
	// Fill only when every member released cleanly, as for single queries.
	if cachable && clean {
		stored := make([]core.Result, len(out.Results))
		var size int64
		for i, r := range out.Results {
			stored[i] = *r
			size += resultSize(r)
		}
		p.Cache.Put(fp, s.Dataset, stored, size)
	}
	return out, nil
}
