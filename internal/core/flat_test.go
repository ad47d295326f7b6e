package core_test

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/compman"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// readOnlyChamber forwards to a chamber but shows the engine only Execute
// and ReadOnlyChamber, so blocks reach it as row headers aliasing the
// table — the hand-off of wrappers that predate IndexedChamber.
type readOnlyChamber struct{ inner sandbox.Chamber }

func (c readOnlyChamber) ReadOnlyBlocks() bool { return true }

func (c readOnlyChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.inner.Execute(ctx, block)
}

// mutableChamber forwards to a chamber but declares none of the optional
// extensions, so the engine materializes a private copy of every block.
type mutableChamber struct{ inner sandbox.Chamber }

func (c mutableChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.inner.Execute(ctx, block)
}

// startWorkers serves n in-process worker daemons on loopback until the
// test ends and returns their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		w := compman.NewWorker(compman.WorkerConfig{})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(l)
		}()
		t.Cleanup(func() {
			w.Close()
			wg.Wait()
		})
		addrs = append(addrs, l.Addr().String())
	}
	return addrs
}

// TestRunFlatViewMatchesPerRowRows is the differential check for the block
// hand-off: core.Run over the records held as one heap object per row
// releases exactly the bits core.RunMatrix releases over a registered
// table's matrix, in every range mode, with resampling and user-level
// grouping, through each of the three hand-offs — row indices
// (IndexedChamber), row headers aliasing the table (ReadOnlyChamber) and
// private copies (neither) — for local chambers and a 2-worker pool alike.
// Ragged rows are refused.
func TestRunFlatViewMatchesPerRowRows(t *testing.T) {
	rng := mathutil.NewRNG(11)
	perRow := make([]mathutil.Vec, 3000)
	for i := range perRow {
		perRow[i] = mathutil.Vec{
			mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150),
			float64(rng.Intn(300)),
			rng.Float64(),
		}
	}
	tbl, err := dataset.FromRows(nil, perRow)
	if err != nil {
		t.Fatal(err)
	}
	m := tbl.Matrix()
	pool, err := compman.NewWorkerPoolConfig(compman.PoolConfig{Addrs: startWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	tight := core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	cases := []struct {
		name string
		prog analytics.Program
		wire compman.ProgramSpec // the same program, as the pool's workers resolve it
		spec core.RangeSpec
		opts core.Options
	}{
		{"tight-mean", analytics.Mean{Col: 0}, compman.ProgramSpec{Type: "mean"}, tight, core.Options{}},
		{"tight-median-gamma3", analytics.Median{Col: 0}, compman.ProgramSpec{Type: "median"},
			tight, core.Options{Gamma: 3, BlockSize: 100}},
		{"loose-variance", analytics.Variance{Col: 0}, compman.ProgramSpec{Type: "variance"},
			core.RangeSpec{Mode: core.ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 5000}}}, core.Options{}},
		{"helper-mean", analytics.Mean{Col: 2}, compman.ProgramSpec{Type: "mean", Col: 2},
			core.RangeSpec{Mode: core.ModeHelper, Input: []dp.Range{{Lo: 0, Hi: 150}, {Lo: 0, Hi: 300}, {Lo: 0, Hi: 1}},
				Translate: func(in []dp.Range) []dp.Range { return in[2:3] }}, core.Options{}},
		{"user-level-mean", analytics.Mean{Col: 0}, compman.ProgramSpec{Type: "mean"},
			tight, core.Options{UserLevel: true, UserColumn: 1}},
		{"kmeans", analytics.KMeans{K: 2, FeatureDims: 1, Iters: 5, Seed: 3},
			compman.ProgramSpec{Type: "kmeans", K: 2, FeatureDims: 1, Iters: 5, Seed: 3},
			core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}, {Lo: 0, Hi: 150}}}, core.Options{}},
	}
	routes := []struct {
		name string
		wrap func(sandbox.Chamber) sandbox.Chamber
	}{
		{"indexed", func(c sandbox.Chamber) sandbox.Chamber { return c }},
		{"read-only", func(c sandbox.Chamber) sandbox.Chamber { return readOnlyChamber{c} }},
		{"copies", func(c sandbox.Chamber) sandbox.Chamber { return mutableChamber{c} }},
	}
	for _, c := range cases {
		ref := c.opts
		ref.Epsilon, ref.Seed = 1, 5
		want, err := core.Run(context.Background(), c.prog, perRow, c.spec, ref)
		if err != nil {
			t.Fatalf("%s per-row: %v", c.name, err)
		}
		bases := []struct {
			name        string
			parallelism int
			chamber     func(analytics.Program, sandbox.Policy) sandbox.Chamber
		}{
			{"local", 0, func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber {
				return &sandbox.InProcess{Program: p, Policy: pol}
			}},
			{"pool-2", pool.Parallelism(), func(analytics.Program, sandbox.Policy) sandbox.Chamber {
				return pool.Chamber(compman.WorkSpec{Program: c.wire}, nil)
			}},
		}
		for _, base := range bases {
			for _, route := range routes {
				name := c.name + "/" + base.name + "/" + route.name
				opts := ref
				opts.Parallelism = base.parallelism
				newBase, wrap := base.chamber, route.wrap
				opts.NewChamber = func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber {
					return wrap(newBase(p, pol))
				}
				got, err := core.RunMatrix(context.Background(), c.prog, m, c.spec, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for d := range want.Output {
					if math.Float64bits(got.Output[d]) != math.Float64bits(want.Output[d]) {
						t.Errorf("%s: output[%d] = %v over the matrix, %v over per-row rows",
							name, d, got.Output[d], want.Output[d])
					}
				}
				if got.NumBlocks != want.NumBlocks || got.FailedBlocks != want.FailedBlocks ||
					got.EffectiveRanges[0] != want.EffectiveRanges[0] {
					t.Errorf("%s: result metadata differs: %+v vs %+v", name, got, want)
				}
			}
		}
	}
	for i := range perRow {
		if !m.Row(i).Equal(perRow[i], 0) {
			t.Fatalf("a run modified table row %d", i)
		}
	}

	// Run packs its rows into one matrix: rows of unequal width are an
	// error, never a panic or a misaligned read.
	ragged := []mathutil.Vec{{1, 2}, {3, 4}, {5}, {6, 7}}
	if _, err := core.Run(context.Background(), analytics.Mean{Col: 1}, ragged,
		core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 10}}},
		core.Options{Epsilon: 1, BlockSize: 1}); err == nil {
		t.Fatal("core.Run accepted ragged rows")
	}
}

// With γ = 1 every block is a capped window of the one shuffled
// permutation: appending to a block cannot overwrite its neighbour.
func TestPartitionBlocksCapped(t *testing.T) {
	p, err := core.MakePartition(mathutil.NewRNG(3), 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := p.Blocks[1][0]
	for i, b := range p.Blocks {
		if len(b) != cap(b) {
			t.Fatalf("block %d len/cap = %d/%d", i, len(b), cap(b))
		}
	}
	_ = append(p.Blocks[0], -1)
	if p.Blocks[1][0] != next {
		t.Fatal("appending to block 0 overwrote block 1")
	}
}
