package gupt

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"gupt/internal/dataset"
	"gupt/internal/mathutil"
)

// vandal is a misbehaving analysis program: it computes the honest answer,
// then overwrites every value of its block and appends to every row.
type vandal struct{ Program }

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

// viewBuilt reports whether tbl's shared row view has been built: the
// first View call allocates a header per row, later ones nothing.
func viewBuilt(tbl *dataset.Table) bool {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = tbl.View()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc-before.TotalAlloc < uint64(12*tbl.NumRows())
}

// TestPlatformSurvivesVandalPrograms runs vandal programs through
// Platform.Run and Session.Run, concurrently, with the default in-process
// chambers, which take blocks as row indices into the registered table.
// Each chamber's private copy is all that stands between the program and
// the table: the table must stay bit-identical, every release must equal
// the honest program's bit for bit, and no query may build the table's
// per-row view. Run under -race -count=10.
func TestPlatformSurvivesVandalPrograms(t *testing.T) {
	honest, vandalized := newCensusPlatform(t, 100, 0), newCensusPlatform(t, 100, 0)
	reg, err := vandalized.reg.Lookup("census")
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Private.Rows()

	queries := []Query{
		{Program: Mean{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 150}}},
		{Program: Median{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 150}}, Gamma: 2},
		{Program: Variance{Col: 0}, Mode: Loose, OutputRanges: []Range{{Lo: 0, Hi: 5000}}},
	}
	run := func(p *Platform, prog func(Program) Program, seed int64) ([]*Result, error) {
		var out []*Result
		for _, q := range queries {
			q.Dataset, q.Program, q.Epsilon, q.Seed = "census", prog(q.Program), 1, seed
			res, err := p.Run(context.Background(), q)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		s := p.NewSession("census", 2)
		for _, q := range queries[:2] {
			q.Program, q.Seed = prog(q.Program), seed
			if err := s.Add(q); err != nil {
				return nil, err
			}
		}
		res, err := s.Run(context.Background())
		return append(out, res...), err
	}
	same := func(p Program) Program { return p }
	spoil := func(p Program) Program { return vandal{p} }

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			got, err := run(vandalized, spoil, seed)
			if err != nil {
				t.Error(err)
				return
			}
			ref, err := run(honest, same, seed)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range ref {
				if got[i].FailedBlocks != 0 || math.Float64bits(got[i].Output[0]) != math.Float64bits(ref[i].Output[0]) {
					t.Errorf("seed %d release %d: vandal output %v (%d failed blocks), honest %v",
						seed, i, got[i].Output[0], got[i].FailedBlocks, ref[i].Output[0])
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()

	if viewBuilt(reg.Private) {
		t.Error("a query built the table's per-row view")
	}
	got := reg.Private.Rows()
	if len(got) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || math.Float64bits(got[i][0]) != math.Float64bits(want[i][0]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}
