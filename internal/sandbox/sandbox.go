// Package sandbox implements GUPT's isolated execution chambers (paper §6).
// A chamber runs one untrusted analysis program on one data block and
// enforces the platform's side-channel defenses:
//
//   - State attacks: each execution gets fresh copies of its block, and the
//     subprocess chamber gives each run a brand-new OS process with a
//     private scratch directory that is wiped afterwards, so no state can
//     flow between blocks or between queries.
//   - Timing attacks: with a positive Quantum every block consumes exactly
//     the same wall-clock time — early finishers are held until the quantum
//     elapses, and overruns are killed and replaced by a data-independent
//     substitute value inside the expected output range. Block runtime is
//     therefore independent of the data.
//   - Privacy-budget attacks are defended one layer up (the accountant in
//     internal/dp is owned by the platform), but chambers contribute by
//     never exposing the budget to the program.
//
// The paper's deployment uses AppArmor to confine the analysis process; the
// subprocess chamber reproduces the properties GUPT's privacy argument
// needs (fresh process, empty environment, private wiped scratch space,
// hard kill on deadline) with portable os/exec machinery. See DESIGN.md §3.
package sandbox

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
	"gupt/internal/telemetry"
)

// Chamber executes an untrusted computation on one block of records.
type Chamber interface {
	// Execute runs the computation on block and returns its output vector.
	// Implementations must not allow the computation to retain access to
	// block after returning.
	Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error)
}

// BlockChamber is an optional Chamber extension for implementations that
// want the block's index within its query — the hook distributed chambers
// use for consistent block→worker assignment. The engine calls
// ExecuteBlock when a chamber implements it and falls back to Execute
// otherwise. The index must not influence the computation's result: it is
// routing metadata only.
type BlockChamber interface {
	Chamber
	ExecuteBlock(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error)
}

// ReadOnlyChamber is an optional Chamber extension declaring that Execute
// never mutates the rows of the block it is handed (and does not retain
// them after returning). HandOff gives such chambers, unless they are
// IndexedChambers, row headers aliasing the dataset instead of private
// copies — the block rows flow straight into the wire encoder or the
// chamber's own private copy. The rows alias the registered table itself,
// so the promise is what keeps the dataset intact across queries.
// Chambers that cannot make this promise simply don't implement it.
type ReadOnlyChamber interface {
	// ReadOnlyBlocks returns true when the chamber treats block rows as
	// immutable. A false return disables the zero-copy path (useful for
	// wrappers that forward to an unknown inner chamber).
	ReadOnlyBlocks() bool
}

// IndexedChamber is an optional Chamber extension for implementations that
// take a block as row indices into the dataset's shared matrix, so the
// engine builds no per-block row headers for them. ExecuteIndexed runs the
// computation on the rows of m listed in block, in that order; idx is the
// block's index within its query, as for BlockChamber. The contract:
// ExecuteIndexed never writes m — it is the registered table itself — and
// the program only ever sees a fresh, never-pooled private copy of its
// rows, exactly as Execute would have given it.
type IndexedChamber interface {
	Chamber
	ExecuteIndexed(ctx context.Context, idx int, m mathutil.Matrix, block []int) (mathutil.Vec, error)
}

// HandOff runs block idx — the rows of m listed in block — on ch through
// the cheapest hand-off ch supports: an IndexedChamber gets the indices;
// a ReadOnlyChamber gets row headers aliasing m; any other chamber gets a
// private copy of the rows, which it may mutate freely. The two row paths
// then go through ExecuteBlock when ch implements BlockChamber, and
// Execute otherwise. Wrappers that forward to an unknown inner chamber use
// HandOff too, so the fallback is decided in one place.
func HandOff(ctx context.Context, ch Chamber, idx int, m mathutil.Matrix, block []int) (mathutil.Vec, error) {
	if ic, ok := ch.(IndexedChamber); ok {
		return ic.ExecuteIndexed(ctx, idx, m, block)
	}
	var rows []mathutil.Vec
	if ro, ok := ch.(ReadOnlyChamber); ok && ro.ReadOnlyBlocks() {
		rows = m.View(block)
	} else {
		rows = m.Gather(block)
	}
	if bc, ok := ch.(BlockChamber); ok {
		return bc.ExecuteBlock(ctx, idx, rows)
	}
	return ch.Execute(ctx, rows)
}

// ErrKilled is returned (wrapped) when a computation exceeded its quantum
// and no substitute output was configured.
var ErrKilled = errors.New("sandbox: computation exceeded its time quantum")

// ErrPanicked is returned (wrapped) when an in-process computation panicked
// and no substitute output was configured.
var ErrPanicked = errors.New("sandbox: computation panicked")

// Policy is the per-block execution policy shared by all chamber types.
type Policy struct {
	// Quantum is the fixed wall-clock time every block execution consumes.
	// Zero disables timing normalization: blocks run to completion with no
	// deadline. (The experiment harness uses zero for throughput runs; the
	// hosted-platform configuration sets it.)
	Quantum time.Duration
	// Substitute is the data-independent output released when a block is
	// killed or fails (paper §6.2: "a constant value within the expected
	// output range"). If nil, failures surface as errors instead — useful
	// in development, but a production deployment should always set it,
	// since propagating failure timing can itself leak.
	Substitute mathutil.Vec
	// Metrics, when non-nil, receives chamber lifecycle counters
	// (sandbox.*.spawns / kills). Counts only — a chamber never reports
	// block contents or per-execution timings through this.
	Metrics *telemetry.Registry
}

// failureOutput resolves a failed block to the substitute output, or to an
// error when no substitute is configured.
func (p Policy) failureOutput(base error, detail string) (mathutil.Vec, error) {
	if p.Substitute != nil {
		return p.Substitute.Clone(), nil
	}
	if detail != "" {
		return nil, fmt.Errorf("%w: %s", base, detail)
	}
	return nil, base
}

// holdRemaining sleeps until the quantum has fully elapsed since start, so
// completion time does not depend on the data. A nil-deadline context can
// cut the wait short (caller cancellation is not data-dependent).
func (p Policy) holdRemaining(ctx context.Context, start time.Time) {
	if p.Quantum <= 0 {
		return
	}
	remaining := p.Quantum - time.Since(start)
	if remaining <= 0 {
		return
	}
	t := time.NewTimer(remaining)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// InProcess is a chamber that runs a Program inside the current process.
// It provides data isolation (the program sees a private copy of the
// block), panic isolation, and timing normalization — but a malicious
// program sharing our address space could still keep global state, so the
// hosted platform uses Subprocess chambers for analyst-supplied code.
// InProcess is intended for platform-trusted programs and for benchmarking
// the isolation overhead (paper §6.1).
type InProcess struct {
	Program analytics.Program
	Policy  Policy
}

// ReadOnlyBlocks implements ReadOnlyChamber: Execute gathers the block into
// a private slab before the program runs, so the caller's rows are never
// touched and the engine may hand over views of the dataset itself.
func (c *InProcess) ReadOnlyBlocks() bool { return true }

// Execute implements Chamber.
func (c *InProcess) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.run(ctx, func() []mathutil.Vec { return mathutil.Gather(block) })
}

// ExecuteIndexed implements IndexedChamber: the block's rows are gathered
// straight from m into the program's private slab, in one pass.
func (c *InProcess) ExecuteIndexed(ctx context.Context, _ int, m mathutil.Matrix, block []int) (mathutil.Vec, error) {
	return c.run(ctx, func() []mathutil.Vec { return m.Gather(block) })
}

// run executes the program on the private copy gather returns.
func (c *InProcess) run(ctx context.Context, gather func() []mathutil.Vec) (mathutil.Vec, error) {
	if c.Program == nil {
		return nil, errors.New("sandbox: InProcess chamber has no program")
	}
	c.Policy.Metrics.Counter("sandbox.inprocess.spawns").Inc()
	start := time.Now()

	// The program gets its own copy, gathered into a fresh slab: it can
	// never mutate the caller's data. The slab is never pooled — a program
	// abandoned at its deadline may still hold it, and a recycled slab
	// would carry this block's rows into the next execution.
	private := gather()

	type result struct {
		out mathutil.Vec
		err error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{err: fmt.Errorf("%w: %v", ErrPanicked, r)}
			}
		}()
		out, err := c.Program.Run(private)
		done <- result{out: out, err: err}
	}()

	var deadline <-chan time.Time
	if c.Policy.Quantum > 0 {
		t := time.NewTimer(c.Policy.Quantum)
		defer t.Stop()
		deadline = t.C
	}

	select {
	case r := <-done:
		if r.err != nil {
			out, err := c.Policy.failureOutput(r.err, "")
			c.Policy.holdRemaining(ctx, start)
			return out, err
		}
		c.Policy.holdRemaining(ctx, start)
		return r.out, nil
	case <-deadline:
		// The goroutine is abandoned; it holds only its private copy.
		c.Policy.Metrics.Counter("sandbox.inprocess.kills").Inc()
		return c.Policy.failureOutput(ErrKilled, c.Program.Name())
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
