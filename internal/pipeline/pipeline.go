// Package pipeline is the one query path behind both front ends: the
// embedded gupt.Platform and the hosted compman.Server. A front end
// converts its request into a Query (or a Session) and hands it here. The
// pipeline looks the dataset up, fingerprints the query and re-serves a
// cached release, builds the range spec, plans the block size, settles the
// ε or accuracy charge, runs the engine with its retry loop, and fills the
// cache with clean releases. A front end keeps only its surface: public
// types for the embedded API; the wire, tenancy, admission, chamber
// selection and observability for the server.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// Pipeline holds what every query shares. Set its fields before the first
// query; it is then safe for concurrent use.
type Pipeline struct {
	Reg *dataset.Registry
	Mgr *budget.Manager
	// Cache holds released answers for zero-ε repeats; nil disables it.
	Cache *qcache.Cache
	// Journal, when set, runs after every settled charge and before the
	// engine starts (the hosted server's legacy -state file).
	Journal func()
	// Retries re-runs the engine up to this many times when a charged
	// query fails. A retry never re-charges: the ε was spent once, and at
	// most one output is ever released for it. OnRetry, when set, observes
	// each retry before it runs.
	Retries int
	OnRetry func(attempt int, err error)
	// Timeout, when positive, bounds each engine run (a query, or one
	// session member) from the moment its charge has settled; a run that
	// exceeds it aborts with its charge consumed.
	Timeout time.Duration
	// Quantum, BlockTimeout and MaxFailFrac apply to queries that leave
	// their own unset: the hosted server's deployment-wide settings.
	Quantum      time.Duration
	BlockTimeout time.Duration
	MaxFailFrac  float64
	// Metrics receives the engine's block counters; nil disables them.
	Metrics *telemetry.Registry
}

// Query is the canonical form of one query. Dataset and the fields from
// Mode to UserColumn are its skeleton, fingerprinted the same way for both
// front ends; the program's identity, a translate function's included, is
// written by the front end that knows it.
type Query struct {
	Dataset string
	Program analytics.Program
	// Name is the program's name in the ledger label "<dataset>:<Name>".
	Name string
	// Identity writes the program's canonical identity into a fingerprint
	// and reports false when it cannot see inside the program (closures,
	// custom implementations, custom chambers): such a query runs uncached.
	// Nil is uncachable.
	Identity func(*qcache.Hasher) bool
	// Resolve, when set, completes the query after a cache miss and before
	// anything is planned or charged: the hosted server resolves the wire
	// program, its translate function and its chambers here, so a hit
	// costs none of that.
	Resolve func(*Query) error

	Mode                          core.RangeMode
	OutputRanges                  []dp.Range // Tight and Loose
	InputRanges                   []dp.Range // Helper; nil selects the dataset's registered bounds
	Translate                     func([]dp.Range) []dp.Range
	PercentileLow, PercentileHigh float64
	// Exactly one of Epsilon and Accuracy is set, except in a session,
	// which sets neither.
	Epsilon       float64
	Accuracy      *aging.AccuracyGoal
	BlockSize     int
	AutoBlockSize bool
	Gamma         int
	Seed          int64
	Quantum       time.Duration
	UserLevel     bool
	UserColumn    int

	// How the query executes; none of it is fingerprinted.
	BlockTimeout time.Duration
	MaxFailFrac  float64
	Chambers     func(analytics.Program, sandbox.Policy) sandbox.Chamber
	Parallelism  int
}

func (q *Query) label() string { return q.Dataset + ":" + q.Name }

// Run answers one query as tenant ("" when embedded or single-tenant). A
// repeat of a cached release is re-served at zero ε with CacheHit set.
// charged is the ε the query consumed: zero for hits and refusals, the
// full charge for a run that failed after the charge settled (§6.2: an
// abort never refunds). tr, when non-nil, gets the admission, budget and
// release spans; the engine adds its own.
func (p *Pipeline) Run(ctx context.Context, tenant string, q *Query, tr *telemetry.Trace) (res *core.Result, charged float64, err error) {
	// End keeps only its first call, so the deferred error status fires
	// only when an early return skips the explicit ok below.
	admission := tr.StartSpan(telemetry.StageAdmission)
	defer admission.End(telemetry.StatusError)
	reg, err := p.Reg.Lookup(q.Dataset)
	if err != nil {
		return nil, 0, err
	}
	fp, cachable := Fingerprint(tenant, q, reg.ContentVersion())
	if cachable {
		if v, ok := p.Cache.Get(fp); ok {
			if err := p.rerelease(tenant, q.Dataset, q.label()); err != nil {
				return nil, 0, err
			}
			hit := v.(core.Result)
			hit.CacheHit = true
			admission.End(telemetry.StatusOK)
			return &hit, 0, nil
		}
	}
	if q.Resolve != nil {
		if err := q.Resolve(q); err != nil {
			return nil, 0, err
		}
	}
	if q.Program == nil {
		return nil, 0, errors.New("pipeline: query needs a program")
	}
	data := reg.Private.Matrix()
	spec, opts, err := p.prepare(reg, data, q)
	if err != nil {
		return nil, 0, err
	}
	if q.AutoBlockSize && q.BlockSize == 0 {
		if opts.BlockSize, err = planBlockSize(reg, data.NumRows(), q, spec); err != nil {
			return nil, 0, err
		}
	}
	admission.End(telemetry.StatusOK)

	// Settle the charge before anything runs, so an analyst never sees a
	// partial result of a query that would overdraw.
	budgetSpan := tr.StartSpan(telemetry.StageBudget)
	defer budgetSpan.End(telemetry.StatusError)
	if err := p.charge(tenant, q, spec, data.NumRows(), &opts); err != nil {
		return nil, 0, err
	}
	budgetSpan.End(telemetry.StatusOK)

	opts.Trace = tr
	res, err = p.execute(ctx, q.Program, data, spec, opts)
	if err != nil {
		return nil, opts.Epsilon, err
	}
	release := tr.StartSpan(telemetry.StageRelease)
	// Fill with clean releases only: a degraded answer is safe to re-serve
	// but would pin the degradation past the fault that caused it.
	if cachable && res.FailedBlocks == 0 {
		p.Cache.Put(fp, q.Dataset, *res, resultSize(res))
	}
	release.End(telemetry.StatusOK)
	return res, opts.Epsilon, nil
}

// rerelease journals the ε=0 re-release of a cached answer as a cache_hit
// ledger record; the accountant is never touched. A hit is still a
// release, so one the ledger cannot record is refused, never served
// silently.
func (p *Pipeline) rerelease(tenant, datasetName, label string) error {
	if err := p.Mgr.CacheHitAs(tenant, datasetName, label); err != nil {
		return fmt.Errorf("pipeline: cache hit refused, journaling it failed: %w", err)
	}
	return nil
}

// prepare builds q's range spec and engine options, ε still unset, and
// validates them, so a malformed query is refused before it is charged.
func (p *Pipeline) prepare(reg *dataset.Registered, data mathutil.Matrix, q *Query) (core.RangeSpec, core.Options, error) {
	spec := core.RangeSpec{
		Mode:           q.Mode,
		Translate:      q.Translate,
		PercentileLow:  q.PercentileLow,
		PercentileHigh: q.PercentileHigh,
	}
	if q.Mode == core.ModeHelper {
		spec.Input = q.InputRanges
		if spec.Input == nil {
			spec.Input = reg.Private.Ranges() // data-owner-registered bounds
		}
	} else {
		spec.Output = q.OutputRanges
	}
	if err := spec.Validate(data.Width, q.Program.OutputDims()); err != nil {
		return spec, core.Options{}, err
	}
	opts := core.Options{
		BlockSize:    q.BlockSize,
		Gamma:        q.Gamma,
		Seed:         q.Seed,
		Quantum:      orDefault(q.Quantum, p.Quantum),
		BlockTimeout: orDefault(q.BlockTimeout, p.BlockTimeout),
		MaxFailFrac:  orDefault(q.MaxFailFrac, p.MaxFailFrac),
		NewChamber:   q.Chambers,
		Parallelism:  q.Parallelism,
		UserLevel:    q.UserLevel,
		UserColumn:   q.UserColumn,
		Metrics:      p.Metrics,
	}
	return spec, opts, nil
}

func orDefault[T time.Duration | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// planBlockSize tunes the block size from the aged sample (§4.3). The
// plan needs the output ranges the run clamps to, so Helper mode cannot
// use it.
func planBlockSize(reg *dataset.Registered, n int, q *Query, spec core.RangeSpec) (int, error) {
	if !reg.HasAged() {
		return 0, aging.ErrNoAgedData
	}
	if spec.Output == nil {
		return 0, errors.New("pipeline: AutoBlockSize requires output ranges (tight or loose mode)")
	}
	eps := q.Epsilon
	if eps <= 0 {
		eps = 1 // planning default when an accuracy goal resolves ε later
	}
	choice, err := aging.OptimizeBlockSize(q.Program, reg.Aged.Rows(), n, eps, spec.Output)
	return choice.BlockSize, err
}

// charge settles q's ε, or the minimal ε meeting its accuracy goal (§5.1),
// against the dataset's budget and journals it. opts receives the granted
// ε and, for a goal, the block size the estimate assumed.
func (p *Pipeline) charge(tenant string, q *Query, spec core.RangeSpec, n int, opts *core.Options) error {
	switch {
	case q.Epsilon > 0 && q.Accuracy != nil:
		return errors.New("pipeline: set either epsilon or accuracy, not both")
	case q.Epsilon > 0:
		if err := p.Mgr.ChargeAs(tenant, q.Dataset, q.label(), q.Epsilon); err != nil {
			return err
		}
		opts.Epsilon = q.Epsilon
	case q.Accuracy != nil:
		// Helper mode never clamps to output ranges, so a goal stated over
		// them would charge for the wrong ranges.
		if spec.Output == nil {
			return errors.New("pipeline: accuracy goals need output ranges (tight or loose mode)")
		}
		bs := opts.BlockSize
		if bs == 0 {
			bs = core.DefaultBlockSize(n)
		}
		est, err := p.Mgr.ChargeForAccuracyAs(tenant, q.Dataset, q.label(), q.Program, bs, spec.Output, *q.Accuracy)
		if err != nil {
			return err
		}
		opts.Epsilon, opts.BlockSize = est.Epsilon, est.BlockSize
	default:
		return errors.New("pipeline: query needs a positive epsilon or an accuracy goal")
	}
	p.journal()
	return nil
}

func (p *Pipeline) journal() {
	if p.Journal != nil {
		p.Journal()
	}
}

// execute runs the engine for a query whose charge has settled, bounded by
// ctx and p.Timeout and retried up to p.Retries times. A retry perturbs the seed so a
// seed-dependent failure is not replayed verbatim, and never re-charges.
func (p *Pipeline) execute(ctx context.Context, program analytics.Program, data mathutil.Matrix, spec core.RangeSpec, opts core.Options) (*core.Result, error) {
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	var err error
	for attempt := 0; attempt <= max(p.Retries, 0); attempt++ {
		run := opts
		if attempt > 0 {
			run.Seed = opts.Seed + int64(attempt)*0x9E3779B9
			if p.OnRetry != nil {
				p.OnRetry(attempt, err)
			}
		}
		var res *core.Result
		if res, err = core.RunMatrix(ctx, program, data, spec, run); err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			// The deadline expired; further attempts cannot finish.
			return nil, fmt.Errorf("pipeline: query deadline: %w", err)
		}
	}
	return nil, err
}

// resultSize approximates a cached result's footprint for the bytes gauge.
func resultSize(res *core.Result) int64 {
	return 128 + int64(8*len(res.Output)) + int64(16*len(res.EffectiveRanges))
}
