package core

import (
	"context"
	"runtime"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/workload"
)

func benchRows(n int) []mathutil.Vec {
	rng := mathutil.NewRNG(1)
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}
	}
	return rows
}

func BenchmarkMakePartition(b *testing.B) {
	rng := mathutil.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := MakePartition(rng, 30000, 450, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakePartitionResampled(b *testing.B) {
	rng := mathutil.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := MakePartition(rng, 30000, 450, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// runMeanQuery is one BenchmarkRunMeanQuery iteration: a tight-mode mean
// over rows with in-process chambers.
func runMeanQuery(rows []mathutil.Vec, seed int64) error {
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	_, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
		Options{Epsilon: 1, Seed: seed})
	return err
}

func BenchmarkRunMeanQuery(b *testing.B) {
	rows := benchRows(30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runMeanQuery(rows, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunMeanQueryAllocations pins BenchmarkRunMeanQuery's allocations: a
// query over 30,000 rows in ≈66 blocks costs O(ℓ) allocations — a handful
// per block for the view, the chamber's private slab and the goroutines —
// not O(n). Copying each row on its own would cost over 30,000.
func TestRunMeanQueryAllocations(t *testing.T) {
	rows := benchRows(30000)
	seed := int64(0)
	allocs := testing.AllocsPerRun(3, func() {
		seed++
		if err := runMeanQuery(rows, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("BenchmarkRunMeanQuery body allocates %.0f times per query, want <= 1000", allocs)
	}
}

// runTableQuery is one BenchmarkRunTableQuery iteration: the hosted
// path's tight-mode mean over a registered table's matrix, with in-process
// chambers taking each block as row indices.
func runTableQuery(m mathutil.Matrix, seed int64) error {
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	_, err := RunMatrix(context.Background(), analytics.Mean{Col: 0}, m, spec,
		Options{Epsilon: 1, Seed: seed})
	return err
}

// BenchmarkRunTableQuery is the hosted query path below the server: a
// mean over a 200,000-row Census table (the scan-local workload's), run
// with -cpuprofile to see where a query's time goes layer by layer.
func BenchmarkRunTableQuery(b *testing.B) {
	m := workload.CensusIncome(1, 200000).Matrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runTableQuery(m, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunTableQueryAllocations pins BenchmarkRunTableQuery's per-query
// cost on a 30,000-row table in ≈61 blocks: O(ℓ) allocations, and at most
// 56 bytes per row — the permutation (8 B) and each block's private copy
// (8 B of values plus a 24 B row header), with nothing per row on the way
// from table to chamber. A per-row header built by the engine would add 24.
func TestRunTableQueryAllocations(t *testing.T) {
	const n = 30000
	tbl, err := dataset.FromRows(nil, benchRows(n))
	if err != nil {
		t.Fatal(err)
	}
	m := tbl.Matrix()
	seed := int64(0)
	query := func() {
		seed++
		if err := runTableQuery(m, seed); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(3, query); allocs > 1000 {
		t.Fatalf("a table query allocates %.0f times, want <= 1000", allocs)
	}
	// The least of a few measurements: the runtime's own allocations only
	// ever add to a query's.
	perRow := -1.0
	for rep := 0; rep < 5; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		query()
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / n; perRow < 0 || b < perRow {
			perRow = b
		}
	}
	if perRow > 56 {
		t.Fatalf("a table query allocates %.1f bytes per row, want <= 56", perRow)
	}
	t.Logf("%.1f bytes per row", perRow)
}

// TestViewAllocations pins the zero-copy hand-off contract: View performs
// exactly one allocation (the header slice aliasing the dataset's rows),
// regardless of block size. Materialize gathers the block into a fresh
// slab, one more copy the worker wire path avoids: its encoder reads the
// row floats directly.
func TestViewAllocations(t *testing.T) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(10000)
	part, err := MakePartition(rng, len(rows), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sink []mathutil.Vec
	allocs := testing.AllocsPerRun(100, func() {
		sink = part.View(rows, 0)
	})
	if allocs != 1 {
		t.Fatalf("View allocates %.0f times per call, want exactly 1", allocs)
	}
	_ = sink

	// The views must alias, not copy: mutating a row through the dataset
	// must be visible through the view (this is why only chambers that
	// declare ReadOnlyBlocks get views).
	v := part.View(rows, 0)
	if &v[0][0] != &rows[part.Blocks[0][0]][0] {
		t.Fatal("View copied row storage instead of aliasing it")
	}
}

func BenchmarkPartitionView(b *testing.B) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(30000)
	part, err := MakePartition(rng, len(rows), 450, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < part.NumBlocks(); j++ {
			_ = part.View(rows, j)
		}
	}
}

func BenchmarkPartitionMaterialize(b *testing.B) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(30000)
	part, err := MakePartition(rng, len(rows), 450, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < part.NumBlocks(); j++ {
			_ = part.Materialize(rows, j)
		}
	}
}

func BenchmarkRunLooseMode(b *testing.B) {
	rows := benchRows(30000)
	spec := RangeSpec{Mode: ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 300}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
			Options{Epsilon: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
