package sandbox

import (
	"context"
	"os"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
)

func benchBlock(n int) []mathutil.Vec {
	out := make([]mathutil.Vec, n)
	for i := range out {
		out[i] = mathutil.Vec{float64(i % 150)}
	}
	return out
}

func BenchmarkInProcessExecute(b *testing.B) {
	ch := &InProcess{Program: analytics.Mean{Col: 0}}
	block := benchBlock(500)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Execute(ctx, block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubprocessExecute measures the full isolation cost per block:
// process spawn, scratch setup/teardown, and protocol serialization.
func BenchmarkSubprocessExecute(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	ch := &Subprocess{
		Path:        exe,
		ScratchRoot: b.TempDir(),
		ExtraEnv:    []string{"GUPT_TEST_APP=mean"},
	}
	block := benchBlock(500)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Execute(ctx, block); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInProcessExecuteAllocations pins the block hand-off cost: Execute
// and ExecuteIndexed gather the block into one private slab plus one
// header slice, so their allocation counts do not depend on the number of
// rows. A per-row copy would make the 10,000-row block cost ~9,900 more
// allocations.
func TestInProcessExecuteAllocations(t *testing.T) {
	ch := &InProcess{Program: analytics.Func{ProgName: "first", Dims: 1,
		F: func(block []mathutil.Vec) (mathutil.Vec, error) { return mathutil.Vec{block[0][0]}, nil }}}
	ctx := context.Background()
	allocs := func(n int) (rows, indexed float64) {
		block := benchBlock(n)
		m, err := mathutil.PackRows(block)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = n - 1 - i
		}
		rows = testing.AllocsPerRun(50, func() {
			if _, err := ch.Execute(ctx, block); err != nil {
				t.Fatal(err)
			}
		})
		indexed = testing.AllocsPerRun(50, func() {
			if _, err := ch.ExecuteIndexed(ctx, 0, m, idx); err != nil {
				t.Fatal(err)
			}
		})
		return rows, indexed
	}
	small, smallIdx := allocs(100)
	large, largeIdx := allocs(10000)
	if small != large {
		t.Fatalf("Execute allocates %.0f times for 100 rows but %.0f for 10,000", small, large)
	}
	if smallIdx != largeIdx {
		t.Fatalf("ExecuteIndexed allocates %.0f times for 100 rows but %.0f for 10,000", smallIdx, largeIdx)
	}
}
