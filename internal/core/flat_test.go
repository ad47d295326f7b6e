package core

import (
	"context"
	"math"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// mutableChamber is an in-process chamber that does not declare
// sandbox.ReadOnlyChamber, so the engine materializes private block copies
// for it instead of handing over views.
type mutableChamber struct{ inner sandbox.Chamber }

func (c mutableChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.inner.Execute(ctx, block)
}

// TestRunFlatViewMatchesPerRowRows is the differential check for the flat
// row layout: core.Run over a table's shared slab view releases exactly
// the bits it releases over the same records held as one heap object per
// row, in every range mode, with resampling and user-level grouping, and
// for chambers that get views as well as ones that get copies.
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
	view := tbl.View()

	tight := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	cases := []struct {
		name string
		prog analytics.Program
		spec RangeSpec
		opts Options
	}{
		{"tight-mean", analytics.Mean{Col: 0}, tight, Options{}},
		{"tight-median-gamma3", analytics.Median{Col: 0}, tight, Options{Gamma: 3, BlockSize: 100}},
		{"loose-variance", analytics.Variance{Col: 0},
			RangeSpec{Mode: ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 5000}}}, Options{}},
		{"helper-mean", analytics.Mean{Col: 2},
			RangeSpec{Mode: ModeHelper, Input: []dp.Range{{Lo: 0, Hi: 150}, {Lo: 0, Hi: 300}, {Lo: 0, Hi: 1}},
				Translate: func(in []dp.Range) []dp.Range { return in[2:3] }}, Options{}},
		{"user-level-mean", analytics.Mean{Col: 0}, tight, Options{UserLevel: true, UserColumn: 1}},
		{"kmeans", analytics.KMeans{K: 2, FeatureDims: 1, Iters: 5, Seed: 3},
			RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}, {Lo: 0, Hi: 150}}}, Options{}},
	}
	chambers := map[string]func(analytics.Program, sandbox.Policy) sandbox.Chamber{
		"views": nil,
		"copies": func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return mutableChamber{&sandbox.InProcess{Program: p, Policy: pol}}
		},
	}
	for _, c := range cases {
		for chName, newChamber := range chambers {
			opts := c.opts
			opts.Epsilon, opts.Seed, opts.NewChamber = 1, 5, newChamber
			want, err := Run(context.Background(), c.prog, perRow, c.spec, opts)
			if err != nil {
				t.Fatalf("%s/%s per-row: %v", c.name, chName, err)
			}
			got, err := Run(context.Background(), c.prog, view, c.spec, opts)
			if err != nil {
				t.Fatalf("%s/%s view: %v", c.name, chName, err)
			}
			for d := range want.Output {
				if math.Float64bits(got.Output[d]) != math.Float64bits(want.Output[d]) {
					t.Errorf("%s/%s: output[%d] = %v over the view, %v over per-row rows",
						c.name, chName, d, got.Output[d], want.Output[d])
				}
			}
			if got.NumBlocks != want.NumBlocks || got.FailedBlocks != want.FailedBlocks ||
				got.EffectiveRanges[0] != want.EffectiveRanges[0] {
				t.Errorf("%s/%s: result metadata differs: %+v vs %+v", c.name, chName, got, want)
			}
		}
	}
	for i, r := range view {
		if !r.Equal(perRow[i], 0) {
			t.Fatalf("a run modified view row %d", i)
		}
	}
}

// With γ = 1 every block is a capped window of the one shuffled
// permutation: appending to a block cannot overwrite its neighbour.
func TestPartitionBlocksCapped(t *testing.T) {
	p, err := MakePartition(mathutil.NewRNG(3), 100, 10, 1)
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
