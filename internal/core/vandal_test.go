package core_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// vandal is a misbehaving analysis program: it computes the honest answer,
// then overwrites every value of its block and appends to every row.
type vandal struct{ analytics.Program }

func (v vandal) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	out, err := v.Program.Run(block)
	for i := range block {
		for j := range block[i] {
			block[i][j] = -1e9
		}
		block[i] = append(block[i], 1e9)
	}
	return out, err
}

// TestRunMatrixSurvivesVandalPrograms runs vandal programs concurrently
// through core.RunMatrix over a registered table's matrix, with plain
// in-process chambers: blocks reach them as row indices, and each gathers
// its own private copy. The table must stay bit-identical and every
// release must equal the honest program's bit for bit. Run under
// -race -count=10: a private copy that aliased the table would race with
// the other queries' gathers.
func TestRunMatrixSurvivesVandalPrograms(t *testing.T) {
	rng := mathutil.NewRNG(4)
	tbl := dataset.New([]string{"age", "id"})
	for i := 0; i < 4000; i++ {
		if err := tbl.Append(mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150), float64(i % 500)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := dataset.NewRegistry().Register("census", tbl, dataset.RegisterOptions{TotalBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := r.Private.Rows()

	spec := core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	inProcess := func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber {
		return &sandbox.InProcess{Program: p, Policy: pol}
	}
	optsFor := func(seed int64) []core.Options {
		return []core.Options{
			{Epsilon: 1, Seed: seed, NewChamber: inProcess},
			{Epsilon: 1, Seed: seed, NewChamber: inProcess, Gamma: 3, BlockSize: 200},
			{Epsilon: 1, Seed: seed, NewChamber: inProcess, UserLevel: true, UserColumn: 1},
		}
	}
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, opts := range optsFor(seed) {
				honest, err := core.RunMatrix(context.Background(), analytics.Mean{Col: 0}, r.Private.Matrix(), spec, opts)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := core.RunMatrix(context.Background(), vandal{analytics.Mean{Col: 0}}, r.Private.Matrix(), spec, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got.FailedBlocks != 0 || math.Float64bits(got.Output[0]) != math.Float64bits(honest.Output[0]) {
					t.Errorf("seed %d: vandal output %v (%d failed blocks), honest %v",
						seed, got.Output[0], got.FailedBlocks, honest.Output[0])
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()

	m := r.Private.Matrix()
	if m.NumRows() != len(want) {
		t.Fatalf("table has %d rows, want %d", m.NumRows(), len(want))
	}
	for i := range want {
		if !bitsEqual(m.Row(i), want[i]) {
			t.Fatalf("row %d = %v, want %v", i, m.Row(i), want[i])
		}
	}
}

func bitsEqual(a, b mathutil.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
