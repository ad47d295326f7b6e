package main

import (
	"fmt"
	"math"
	"sync"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/workload"
)

// workloadSpec is one traffic mix driven against the hosted query path.
// Why each one exists is recorded in BENCHMARK.json and README.md.
type workloadSpec struct {
	name    string
	dataset string
	rows    int
	clients int // closed-loop clients
	// workers is the number of in-process compman.Workers the server fans
	// blocks out to; 0 keeps execution in local chambers.
	workers       int
	tenants       int
	maxConcurrent int // scheduler slots; 0 leaves the scheduler off
	makeTable     func(seed int64) *dataset.Table
	newStream     func(seed int64) stream
}

// datasetBudget is each dataset's lifetime ε. It covers every charge a run
// makes many times over, and is small enough that float rounding in the
// books check stays far below the smallest charge.
const datasetBudget = 1e5

var workloads = []*workloadSpec{
	{
		name:      "scan-local",
		dataset:   "census",
		rows:      200000,
		clients:   1,
		tenants:   1,
		makeTable: func(seed int64) *dataset.Table { return workload.CensusIncome(seed, 200000) },
		newStream: func(seed int64) stream { return newDistinctStream(seed, meanQuery("census", 0, 150)) },
	},
	{
		name:      "fanout-wide",
		dataset:   "lifesci",
		rows:      workload.LifeSciRows,
		clients:   1,
		workers:   2,
		tenants:   1,
		makeTable: func(seed int64) *dataset.Table { return workload.LifeSci(seed, workload.LifeSciRows) },
		newStream: func(seed int64) stream { return newDistinctStream(seed, meanQuery("lifesci", -10, 10)) },
	},
	{
		name:          "dashboard-mix",
		dataset:       "census",
		rows:          5000,
		clients:       2,
		tenants:       4,
		maxConcurrent: 2,
		makeTable:     func(seed int64) *dataset.Table { return workload.CensusIncome(seed, 5000) },
		newStream:     func(seed int64) stream { return newMixStream(seed, "census", 4) },
	},
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query is one request of a stream. key identifies the distinct query:
// two queries with the same key are byte-identical requests from the same
// tenant, so the second may be served from the answer cache.
type query struct {
	key    int
	tenant int
	prog   string // program type: mean, median or variance
	loose  bool
	req    compman.Request // APIKey is filled in by the client
}

// stream hands out the workload's queries in order; safe for concurrent
// use by the closed-loop clients. query(k) builds distinct query k, the
// same for every seed in shape; its ε may depend on the seed.
type stream interface {
	next() *query
	query(key int) *query
}

// golden is the fractional part of the golden ratio. Rotating by it gives
// a low-discrepancy sequence in [0,1), so ε values built from it are
// distinct per query yet average to the same value over any long run.
const golden = 0.6180339887498949

func rotation(u0 float64, k int) float64 {
	_, f := math.Modf(u0 + golden*float64(k))
	return f
}

// seedOffset maps the workload seed to a start point of the rotation.
func seedOffset(seed int64) float64 {
	return rotation(0, int(uint64(seed)%1000003)+1)
}

// meanQuery is the template of the single-shape workloads: mean of
// column 0 under a tight output range.
func meanQuery(ds string, lo, hi float64) compman.Request {
	return compman.Request{
		Dataset:      ds,
		Program:      &compman.ProgramSpec{Type: "mean", Col: 0},
		Mode:         "tight",
		OutputRanges: []compman.RangeSpec{{Lo: lo, Hi: hi}},
	}
}

// distinctStream never repeats a query: query k runs with
// ε = 1 + 0.01·rotation(k), so every request fingerprints apart and the
// answer cache is bypassed.
type distinctStream struct {
	mu   sync.Mutex
	tmpl compman.Request
	u0   float64
	k    int
}

func newDistinctStream(seed int64, tmpl compman.Request) *distinctStream {
	return &distinctStream{tmpl: tmpl, u0: seedOffset(seed)}
}

func (s *distinctStream) next() *query {
	s.mu.Lock()
	k := s.k
	s.k++
	s.mu.Unlock()
	return s.query(k)
}

func (s *distinctStream) query(key int) *query {
	req := s.tmpl
	req.Epsilon = 1 + 0.01*rotation(s.u0, key)
	return &query{key: key, prog: req.Program.Type, req: req}
}

// Dashboard schedule geometry: the stream is cut into epochs of mixEpoch
// queries over mixEpoch/5 fresh distinct queries, each epoch a
// workload.RepeatMix Zipf schedule. Distinct queries are 1/5 of the total
// at any run length, so the hit ratio does not drift with throughput.
const (
	mixEpoch    = 500
	mixDistinct = mixEpoch / 5
)

// mixShape is one dashboard request shape: program × mode × ε level.
type mixShape struct {
	prog  string
	loose bool
	eps   float64
}

var mixShapes = func() []mixShape {
	var out []mixShape
	for _, eps := range []float64{0.5, 1} {
		for _, loose := range []bool{false, true} {
			for _, prog := range []string{"mean", "median", "variance"} {
				out = append(out, mixShape{prog, loose, eps})
			}
		}
	}
	return out
}()

// mixRange is the output range an analyst states for each program: tight
// ranges bound the answer, loose ones only bound where it could lie.
func mixRange(prog string, loose bool) compman.RangeSpec {
	switch {
	case prog == "variance" && loose:
		return compman.RangeSpec{Lo: 0, Hi: 150 * 150 / 4}
	case prog == "variance":
		return compman.RangeSpec{Lo: 0, Hi: 1000}
	default:
		return compman.RangeSpec{Lo: 0, Hi: 150}
	}
}

type mixStream struct {
	mu      sync.Mutex
	seed    int64
	ds      string
	tenants int
	u0      float64
	epoch   int
	sched   []int
	pos     int
}

func newMixStream(seed int64, ds string, tenants int) *mixStream {
	return &mixStream{seed: seed, ds: ds, tenants: tenants, u0: seedOffset(seed), epoch: -1}
}

func (s *mixStream) next() *query {
	s.mu.Lock()
	if s.sched == nil || s.pos == len(s.sched) {
		s.epoch++
		s.sched = workload.RepeatMix(s.seed*7919+int64(s.epoch), mixEpoch, mixDistinct)
		s.pos = 0
	}
	key := s.epoch*mixDistinct + s.sched[s.pos]
	s.pos++
	s.mu.Unlock()
	return s.query(key)
}

// query builds distinct query key: its shape, tenant and ε all derive from
// the key, so repeats of a key are identical requests.
func (s *mixStream) query(key int) *query {
	shape := mixShapes[key%len(mixShapes)]
	mode := "tight"
	if shape.loose {
		mode = "loose"
	}
	req := compman.Request{
		Dataset:      s.ds,
		Program:      &compman.ProgramSpec{Type: shape.prog, Col: 0},
		Mode:         mode,
		OutputRanges: []compman.RangeSpec{mixRange(shape.prog, shape.loose)},
		Epsilon:      shape.eps * (1 + 1e-3*rotation(s.u0, key)),
	}
	return &query{
		key:    key,
		tenant: (key / len(mixShapes)) % s.tenants,
		prog:   shape.prog,
		loose:  shape.loose,
		req:    req,
	}
}
