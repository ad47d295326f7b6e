package compman

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/dataset"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// vandal is a misbehaving analysis program: it computes the honest answer,
// then overwrites every value of its block and appends to every row.
type vandal struct {
	analytics.Program
	runs *atomic.Int64
}

func (v vandal) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	out, err := v.Program.Run(block)
	for i := range block {
		for j := range block[i] {
			block[i][j] = -1e9
		}
		block[i] = append(block[i], 1e9)
	}
	v.runs.Add(1)
	return out, err
}

// vandalize swaps the program of every in-process chamber for a vandal.
func vandalize(t *testing.T, runs *atomic.Int64) func(sandbox.Chamber) sandbox.Chamber {
	return func(c sandbox.Chamber) sandbox.Chamber {
		ip, ok := c.(*sandbox.InProcess)
		if !ok {
			t.Errorf("vandalize: chamber is %T, want *sandbox.InProcess", c)
			return c
		}
		return &sandbox.InProcess{Program: vandal{ip.Program, runs}, Policy: ip.Policy}
	}
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

// TestRegisteredTableSurvivesVandalPrograms is the dataset-integrity guard:
// queries hand the chambers the registered table itself, so the chambers'
// private block copies are all that stands between a misbehaving program
// and the data. After queries and a session whose every block is vandalized
// — locally and through a 2-worker pool — the table must be bit-identical
// to the original, and every answer must still be computed from it. No
// query may build the table's per-row view.
func TestRegisteredTableSurvivesVandalPrograms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"local", 0}, {"pool-2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var runs atomic.Int64
			reg := censusRegistry(t, 1000)
			r, err := reg.Lookup("census")
			if err != nil {
				t.Fatal(err)
			}
			want := r.Private.Rows()
			cfg := ServerConfig{}
			if tc.workers == 0 {
				cfg.ChamberWrapper = vandalize(t, &runs)
			}
			for i := 0; i < tc.workers; i++ {
				cfg.WorkerAddrs = append(cfg.WorkerAddrs, startWorkerCfg(t, WorkerConfig{ChamberWrapper: vandalize(t, &runs)}))
			}
			client, _ := startCachedServer(t, reg, cfg)

			for seed := int64(1); seed <= 4; seed++ {
				req := meanQuery(20, 250)
				req.Seed = seed
				resp, err := client.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.FailedBlocks != 0 || math.Abs(resp.Output[0]-40) > 5 {
					t.Fatalf("query %d: mean = %v with %d failed blocks, want ~40 with none",
						seed, resp.Output[0], resp.FailedBlocks)
				}
			}
			if _, err := client.Session("census", &SessionSpec{TotalEpsilon: 20, Queries: []SessionQuery{
				{Program: ProgramSpec{Type: "mean", Col: 0}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}}, Seed: 9},
			}}); err != nil {
				t.Fatal(err)
			}
			if runs.Load() == 0 {
				t.Fatal("the vandal program never ran")
			}

			if viewBuilt(r.Private) {
				t.Error("a hosted query built the table's per-row view")
			}
			got, view := r.Private.Rows(), r.Private.View()
			if len(got) != len(want) || len(view) != len(want) {
				t.Fatalf("table has %d rows (view %d), want %d", len(got), len(view), len(want))
			}
			for i := range want {
				if len(view[i]) != len(want[i]) || !bitsEqual(got[i], want[i]) {
					t.Fatalf("row %d = %v (view len %d), want %v", i, got[i], len(view[i]), want[i])
				}
			}
		})
	}
}

// Concurrent first queries against a freshly registered table all race to
// seal it and take its shared matrix. Run under -race.
func TestConcurrentFirstQueriesShareView(t *testing.T) {
	reg := censusRegistry(t, 1000)
	_, srv := startCachedServer(t, reg, ServerConfig{})
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			req := meanQuery(10, 0)
			req.Seed = seed
			resp, err := cl.Query(req)
			if err == nil && math.Abs(resp.Output[0]-40) > 5 {
				t.Errorf("client %d: mean = %v, want ~40", seed, resp.Output[0])
			}
			errs <- err
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
