package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gupt"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/compman"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/ledger"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/ratelimit"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// Span names: the module, then the call.
const (
	spanQuery          = "compman.query"           // client-observed query
	spanSandboxExecute = "sandbox.execute"         // server-side wrapper around a local chamber
	spanBlockRoundtrip = "compman.block_roundtrip" // server-side wrapper around the worker-pool chamber
	spanWorkerExecute  = "compman.worker_execute"  // worker-side wrapper around its chamber
	spanCoreRun        = "core.run"
)

// Replay budgets: each replay loops over the run's own inputs until it has
// made replayMinIters calls and spent replayTime.
const (
	replayMinIters = 5
	replayTime     = 300 * time.Millisecond
)

// layerUnits maps each per-layer metric to its unit.
var layerUnits = map[string]string{
	"compman.codec_us_per_query":         "us",
	"compman.request_frame_bytes":        "bytes",
	"compman.work_codec_us_per_block":    "us",
	"compman.work_frame_bytes_per_block": "bytes",
	"compman.block_roundtrip_us_p50":     "us",
	"compman.worker_execute_us_p50":      "us",
	"compman.dispatch_overhead_us_p50":   "us",
	"compman.unattributed_ms_p50":        "ms",
	"compman.sched_refusals":             "count",
	"tenant.authenticate_us":             "us",
	"ratelimit.acquire_us":               "us",
	"qcache.hit_ratio":                   "ratio",
	"qcache.duplicate_misses":            "count",
	"qcache.hit_latency_p50_ms":          "ms",
	"qcache.miss_latency_p50_ms":         "ms",
	"qcache.get_us":                      "us",
	"qcache.put_us":                      "us",
	"budget.charge_us_p50":               "us",
	"budget.cache_hit_record_us_p50":     "us",
	"ledger.fsyncs_per_record":           "ratio",
	"ledger.wal_bytes_per_query":         "bytes",
	"core.run_ms_p50":                    "ms",
	"core.self_ms_p50":                   "ms",
	"core.partition_us":                  "us",
	"core.run_allocs":                    "count",
	"core.blocks_per_query":              "count",
	"sandbox.execute_us_p50":             "us",
	"sandbox.execute_allocs_per_block":   "count",
	"analytics.program_us_per_block":     "us",
	"sandbox.overhead_us_per_block":      "us",
	"dp.laplace_us":                      "us",
	"dp.percentile_range_us":             "us",
	"dataset.load_csv_s":                 "s",
	"dataset.register_ms":                "ms",
	"dataset.heap_bytes_per_value":       "bytes",
	"telemetry.trace_us_per_query":       "us",
	"gupt.platform_run_ms_p50":           "ms",
	"bench.trace_overhead_frac":          "ratio",
}

// countMetrics must repeat exactly across runs of the same code.
var countMetrics = []string{
	"core.run_allocs",
	"sandbox.execute_allocs_per_block",
	"compman.request_frame_bytes",
	"compman.work_frame_bytes_per_block",
	"core.blocks_per_query",
}

// layers accumulates per-layer values; a layer that does not run on the
// workload's path reports 0.
type layers map[string]float64

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perLayer runs an untraced and a traced window of half the run each, then
// replays the traced window's inputs through each layer's exported API.
func (b *bench) perLayer() (metrics, error) {
	half := time.Duration(b.o.seconds) * time.Second / 2
	L := layers{}
	// First, while nothing else lives on the heap.
	if err := b.heapPerValue(L); err != nil {
		return nil, err
	}

	d, err := b.deploy(nil)
	if err != nil {
		return nil, err
	}
	loads, registers := []float64{d.loadCSV.Seconds()}, []float64{ms(d.register)}
	plain, err := b.measure(d, half, 1, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	b.gate.checkBooks(d, charged(d, plain))
	d.close()

	tr := newTracer()
	d, err = b.deploy(tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	loads, registers = append(loads, d.loadCSV.Seconds()), append(registers, ms(d.register))
	L["dataset.load_csv_s"] = median(loads)
	L["dataset.register_ms"] = median(registers)

	traced, err := b.measure(d, half, 1, tr)
	if err != nil {
		return nil, err
	}
	hosted := tr.since(traced.start)
	b.hostedLayers(L, plain, traced, hosted)

	rp := newReplay(b, d, tr, traced)
	if err := rp.all(L); err != nil {
		return nil, err
	}
	b.gate.checkBooks(d, charged(d, traced))
	if err := d.close(); err != nil {
		return nil, err
	}
	// Allocation counts run last, with the deployment gone, so no server
	// goroutine allocates inside the measured window.
	if err := rp.allocCounts(L); err != nil {
		return nil, err
	}
	b.unattributed(L, traced)
	b.assertCounts(L)

	traceDir := filepath.Join(buildDir(b.o.root), "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(traceFile(traceDir, b.wl.name, b.o.seed)); err != nil {
		return nil, err
	}

	m := metrics{}
	for name, unit := range layerUnits {
		m.set(name, unit, L[name])
	}
	return m, nil
}

// hostedLayers derives the metrics read off the hosted run itself: the
// chamber-wrapper spans, the cache and ledger counters, client latencies.
func (b *bench) hostedLayers(L layers, plain, traced *phase, hosted []span) {
	byName := map[string][]span{}
	for _, s := range hosted {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if b.wl.workers > 0 {
		rt := median(durationsUS(byName[spanBlockRoundtrip]))
		we := median(durationsUS(byName[spanWorkerExecute]))
		L["compman.block_roundtrip_us_p50"] = rt
		L["compman.worker_execute_us_p50"] = we
		L["compman.dispatch_overhead_us_p50"] = rt - we
		L["sandbox.execute_us_p50"] = we
	} else {
		L["sandbox.execute_us_p50"] = median(durationsUS(byName[spanSandboxExecute]))
	}

	plainP50 := percentile(latenciesMS(plain.answers, func(*answer) bool { return true }), 0.5)
	tracedP50 := percentile(latenciesMS(traced.answers, func(*answer) bool { return true }), 0.5)
	L["bench.trace_overhead_frac"] = (tracedP50 - plainP50) / plainP50

	hits := traced.cache[1].Hits - traced.cache[0].Hits
	misses := traced.cache[1].Misses - traced.cache[0].Misses
	if hits+misses > 0 {
		L["qcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	distinct := map[int]bool{}
	clientMisses, refusals := 0, 0
	for i := range traced.answers {
		a := &traced.answers[i]
		if a.refused {
			refusals++
		}
		if a.ok() && !a.cacheHit {
			clientMisses++
			distinct[a.q.key] = true
		}
	}
	L["qcache.duplicate_misses"] = float64(clientMisses - len(distinct))
	L["qcache.hit_latency_p50_ms"] = percentile(latenciesMS(traced.answers, func(a *answer) bool { return a.cacheHit }), 0.5)
	L["qcache.miss_latency_p50_ms"] = percentile(latenciesMS(traced.answers, func(a *answer) bool { return !a.cacheHit }), 0.5)
	L["compman.sched_refusals"] = float64(traced.schedRefused[1]-traced.schedRefused[0]) + float64(refusals)

	if dr := traced.synced[1] - traced.synced[0]; dr > 0 {
		L["ledger.fsyncs_per_record"] = float64(traced.fsyncs[1]-traced.fsyncs[0]) / float64(dr)
	}
	L["ledger.wal_bytes_per_query"] = walBytes(traced.ledger[0], traced.ledger[1]) / float64(max(answered(traced), 1))

	for i := range traced.answers {
		if a := &traced.answers[i]; a.ok() {
			L["core.blocks_per_query"] = float64(a.numBlocks)
			break
		}
	}
}

// walBytes is the WAL growth between two ledger statuses. A compaction in
// between moves old records into a snapshot; the growth is then estimated
// from the bytes per record of the records still in the log.
func walBytes(a, b ledger.Status) float64 {
	if b.SnapshotSeq == a.SnapshotSeq {
		return float64(b.WALBytes - a.WALBytes)
	}
	inLog := b.Records - b.SnapshotSeq
	if inLog == 0 {
		return 0
	}
	return float64(b.WALBytes) / float64(inLog) * float64(b.Records-a.Records)
}

// replay feeds the traced window's own inputs through each layer's
// exported API, recording every call as a span.
type replay struct {
	b      *bench
	d      *deployment
	tr     *tracer
	ph     *phase
	rows   []mathutil.Vec
	canon  *query // the workload's first query shape, the same for every seed
	rng    *mathutil.RNG
	blocks [][]mathutil.Vec // one partition's block views
}

func newReplay(b *bench, d *deployment, tr *tracer, ph *phase) *replay {
	return &replay{
		b: b, d: d, tr: tr, ph: ph,
		rows:  d.tbl.Rows(),
		canon: b.wl.newStream(b.o.seed).query(0),
		rng:   mathutil.NewRNG(b.o.seed),
	}
}

func (r *replay) all(L layers) error {
	steps := []func(layers) error{
		r.corePartition, // first: the later steps use its block views
		r.coreRun,
		r.sandboxBlocks,
		r.workCodec,
		r.codec,
		r.frontDoor,
		r.qcacheOps,
		r.budgetOps,
		r.dpOps,
		r.telemetryTrace,
		r.platform,
	}
	for _, step := range steps {
		if err := step(L); err != nil {
			return err
		}
	}
	return nil
}

// loop calls fn until it has run at least replayMinIters times and for
// replayTime, and returns each call's duration.
func loop(fn func(i int)) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for i := 0; i < replayMinIters || time.Since(start) < replayTime; i++ {
		t := time.Now()
		fn(i)
		out = append(out, time.Since(t))
	}
	return out
}

// perCall runs fn in batches of n calls under one span each and returns
// the median per-call time in microseconds.
func (r *replay) perCall(name string, n int, fn func(i int)) float64 {
	var samples []float64
	k := 0
	for _, d := range loop(func(int) {
		r.tr.timeCall(name, -1, 0, func() {
			for j := 0; j < n; j++ {
				fn(k)
				k++
			}
		})
	}) {
		samples = append(samples, us(d)/float64(n))
	}
	return median(samples)
}

func durationsMed(ds []time.Duration, unit func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return median(xs)
}

// program resolves a query's program the way the server does.
func program(q *query) analytics.Program {
	switch q.prog {
	case "median":
		return analytics.Median{Col: 0}
	case "variance":
		return analytics.Variance{Col: 0}
	}
	return analytics.Mean{Col: 0}
}

func rangeSpec(q *query) core.RangeSpec {
	mode := core.ModeTight
	if q.loose {
		mode = core.ModeLoose
	}
	or := q.req.OutputRanges[0]
	return core.RangeSpec{Mode: mode, Output: []dp.Range{{Lo: or.Lo, Hi: or.Hi}}}
}

// misses returns the traced window's charged answers, in order; replays
// of their queries carry their query ids.
func (r *replay) misses() []*answer {
	var out []*answer
	for i := range r.ph.answers {
		if a := &r.ph.answers[i]; a.ok() && !a.cacheHit {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = append(out, &answer{q: r.canon, qid: -1})
	}
	return out
}

func (r *replay) corePartition(L layers) error {
	n := len(r.rows)
	beta := core.DefaultBlockSize(n)
	var part *core.Partition
	var err error
	L["core.partition_us"] = durationsMed(loop(func(int) {
		r.tr.timeCall("core.partition", -1, 0, func() {
			part, err = core.MakePartition(r.rng, n, beta, 1)
			if err != nil {
				return
			}
			for i := range part.Blocks {
				_ = part.View(r.rows, i)
			}
		})
	}), us)
	if err != nil {
		return err
	}
	r.blocks = make([][]mathutil.Vec, part.NumBlocks())
	for i := range r.blocks {
		r.blocks[i] = part.View(r.rows, i)
	}
	return nil
}

// coreRun replays the window's charged queries through core.Run, with the
// chambers the hosted path uses: in-process, or the worker pool over the
// deployment's own workers.
func (r *replay) coreRun(L layers) error {
	newChamber := func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
		return &sandbox.InProcess{Program: prog, Policy: pol}
	}
	child := spanSandboxExecute
	parallelism := 0
	if len(r.d.workerAddrs) > 0 {
		pool, err := compman.NewWorkerPoolConfig(compman.PoolConfig{Addrs: r.d.workerAddrs, ConnsPerWorker: 1})
		if err != nil {
			return err
		}
		defer pool.Close()
		spec := *r.canon.req.Program
		newChamber = func(analytics.Program, sandbox.Policy) sandbox.Chamber {
			return pool.Chamber(compman.WorkSpec{Program: spec}, nil)
		}
		child = spanBlockRoundtrip
		parallelism = pool.Parallelism()
	}
	wrap := r.tr.wrapper(child)
	as := r.misses()
	var runs, selfs []float64
	var runErr error
	loop(func(i int) {
		a := as[i%len(as)]
		q := a.q
		id := r.tr.beginQuery(a.qid, true)
		opts := core.Options{
			Epsilon:     q.req.Epsilon,
			Parallelism: parallelism,
			NewChamber: func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber {
				return wrap(newChamber(p, pol))
			},
		}
		start := time.Now()
		_, err := core.Run(context.Background(), program(q), r.rows, rangeSpec(q), opts)
		end := time.Now()
		if err != nil {
			runErr = err
		}
		r.tr.record(id, 0, spanCoreRun, a.qid, start, end)
		var children []span
		for _, s := range r.tr.since(start) {
			if s.Parent == id {
				children = append(children, s)
			}
		}
		s0, s1 := int64(start.Sub(r.tr.t0)), int64(end.Sub(r.tr.t0))
		runs = append(runs, ms(end.Sub(start)))
		selfs = append(selfs, ms(end.Sub(start)-covered(s0, s1, children)))
	})
	r.tr.curQID.Store(-1)
	r.tr.curSpan.Store(0)
	if runErr != nil {
		return fmt.Errorf("core.Run replay: %w", runErr)
	}
	L["core.run_ms_p50"] = median(runs)
	L["core.self_ms_p50"] = median(selfs)
	return nil
}

// sandboxBlocks times the program and the in-process chamber on the same
// block views, one block at a time.
func (r *replay) sandboxBlocks(L layers) error {
	prog := program(r.canon)
	chamber := &sandbox.InProcess{Program: prog}
	ctx := context.Background()
	var runErr error
	perBlock := func(name string, fn func(block []mathutil.Vec) error) float64 {
		return durationsMed(loop(func(int) {
			r.tr.timeCall(name, -1, 0, func() {
				for _, blk := range r.blocks {
					if err := fn(blk); err != nil {
						runErr = err
					}
				}
			})
		}), us) / float64(len(r.blocks))
	}
	progUS := perBlock("analytics.program", func(blk []mathutil.Vec) error {
		_, err := prog.Run(blk)
		return err
	})
	execUS := perBlock("sandbox.execute_direct", func(blk []mathutil.Vec) error {
		_, err := chamber.Execute(ctx, blk)
		return err
	})
	if runErr != nil {
		return runErr
	}
	L["analytics.program_us_per_block"] = progUS
	L["sandbox.overhead_us_per_block"] = execUS - progUS
	return nil
}

// replayTraceID stands in for the server's 128-bit hex trace id.
const replayTraceID = "00000000000000000000000000000000"

// workCodec puts the run's blocks through the worker wire codec: the
// frames a fan-out query ships, request and response.
func (r *replay) workCodec(L layers) error {
	if r.b.wl.workers == 0 {
		return nil
	}
	spec := compman.WorkSpec{Program: *r.canon.req.Program, TraceID: replayTraceID}
	spans := []telemetry.RemoteSpan{
		{Stage: telemetry.StageWorkerSetup, Status: telemetry.StatusOK, Millis: 0.01},
		{Stage: telemetry.StageWorkerExecute, Status: telemetry.StatusOK, Millis: 0.1},
	}
	var buf []byte
	var bytes int
	var codecErr error
	codec := func(blk []mathutil.Vec) int {
		req := compman.WorkRequest{Spec: spec, Block: make([][]float64, len(blk))}
		for i, row := range blk {
			req.Block[i] = row
		}
		frame, err := compman.AppendWorkRequestFrame(buf[:0], &req)
		if err != nil {
			codecErr = err
			return 0
		}
		n := len(frame)
		if _, _, err := compman.DecodeWorkRequestFrame(frame); err != nil {
			codecErr = err
		}
		resp := compman.WorkResponse{Output: []float64{1}, TraceID: replayTraceID, Spans: spans}
		frame, err = compman.AppendWorkResponseFrame(frame[:0], &resp)
		if err != nil {
			codecErr = err
			return 0
		}
		n += len(frame)
		if _, _, err := compman.DecodeWorkResponseFrame(frame); err != nil {
			codecErr = err
		}
		buf = frame
		return n
	}
	perBlock := durationsMed(loop(func(int) {
		r.tr.timeCall("compman.work_codec", -1, 0, func() {
			bytes = 0
			for _, blk := range r.blocks {
				bytes += codec(blk)
			}
		})
	}), us) / float64(len(r.blocks))
	if codecErr != nil {
		return codecErr
	}
	L["compman.work_codec_us_per_block"] = perBlock
	L["compman.work_frame_bytes_per_block"] = float64(bytes) / float64(len(r.blocks))
	return nil
}

// codec puts the window's real request and response messages through the
// analyst wire codec, and sizes every request the window sent.
func (r *replay) codec(L layers) error {
	largest := 0
	seen := map[int]bool{}
	for i := range r.ph.answers {
		q := r.ph.answers[i].q
		if seen[q.key] {
			continue
		}
		seen[q.key] = true
		req := q.req
		req.APIKey = r.d.keys[q.tenant]
		frame, err := compman.AppendRequestFrame(nil, &req)
		if err != nil {
			return err
		}
		largest = max(largest, len(frame))
	}
	L["compman.request_frame_bytes"] = float64(largest)

	ex := r.ph.captured
	if len(ex) == 0 {
		return nil
	}
	var buf []byte
	var codecErr error
	L["compman.codec_us_per_query"] = r.perCall("compman.codec", len(ex), func(i int) {
		e := ex[i%len(ex)]
		frame, err := compman.AppendRequestFrame(buf[:0], e.req)
		if err == nil {
			_, _, err = compman.DecodeRequestFrame(frame)
		}
		if err == nil {
			frame, err = compman.AppendResponseFrame(frame[:0], e.resp)
		}
		if err == nil {
			_, _, err = compman.DecodeResponseFrame(frame)
		}
		if err != nil {
			codecErr = err
		}
		buf = frame
	})
	return codecErr
}

// frontDoor replays authentication and rate-limit admission with the
// workload's own tenants and keys.
func (r *replay) frontDoor(L layers) error {
	keys := r.d.keys
	var authErr error
	L["tenant.authenticate_us"] = r.perCall("tenant.authenticate", 1000, func(i int) {
		if _, err := r.d.tenants.Authenticate(keys[i%len(keys)]); err != nil {
			authErr = err
		}
	})
	info, _ := r.d.tenants.Get("t0")
	lim := ratelimit.Limits{QPS: info.RateQPS, Burst: info.RateBurst, MaxInflight: info.MaxInflight}
	limiter := ratelimit.New()
	ids := make([]string, len(keys))
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
	}
	L["ratelimit.acquire_us"] = r.perCall("ratelimit.acquire", 1000, func(i int) {
		release, _, ok := limiter.Acquire(ids[i%len(ids)], lim)
		if !ok {
			authErr = fmt.Errorf("rate limiter refused a replayed admission")
		}
		release()
	})
	return authErr
}

// qcacheOps replays the window's distinct queries and real responses
// through an answer cache sized as the server's.
func (r *replay) qcacheOps(L layers) error {
	var fps []qcache.Fingerprint
	seen := map[int]bool{}
	for i := range r.ph.answers {
		q := r.ph.answers[i].q
		if seen[q.key] {
			continue
		}
		seen[q.key] = true
		h := qcache.NewHasher()
		h.Int(q.tenant)
		h.Str(q.req.Dataset)
		h.Str(q.prog)
		h.Str(q.req.Mode)
		h.F64(q.req.Epsilon)
		fps = append(fps, h.Sum())
	}
	ex := r.ph.captured
	if len(fps) == 0 || len(ex) == 0 {
		return nil
	}
	c := qcache.New(qcache.Config{MaxEntries: cacheEntries, TTL: cacheTTL})
	L["qcache.put_us"] = r.perCall("qcache.put", len(fps), func(i int) {
		resp := *ex[i%len(ex)].resp
		c.Put(fps[i%len(fps)], r.b.wl.dataset, resp, 256)
	})
	L["qcache.get_us"] = r.perCall("qcache.get", len(fps), func(i int) {
		c.Get(fps[i%len(fps)])
	})
	return nil
}

// budgetOps replays charges and cache-hit records against a registry with
// its own durable ledger (batched group commit, as served), from as many
// goroutines as the workload has clients.
func (r *replay) budgetOps(L layers) error {
	dir, err := os.MkdirTemp(r.b.runDir, "budget-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := dataset.NewRegistry()
	if _, err := reg.Register(r.b.wl.dataset, r.d.tbl, dataset.RegisterOptions{TotalBudget: datasetBudget * 100}); err != nil {
		return err
	}
	led, err := ledger.Open(dir, ledger.Options{Sync: ledger.SyncBatched, FlushInterval: ledgerFlush})
	if err != nil {
		return err
	}
	defer led.Close() // a second Close is a no-op; the success path checks it below
	if err := ledger.Attach(led, reg); err != nil {
		return err
	}
	tenants, err := newTenants(r.b.wl, r.d.keys)
	if err != nil {
		return err
	}
	mgr := budget.NewManager(reg)
	mgr.SetQuotas(tenants)

	as := r.misses()
	ds := r.b.wl.dataset
	concurrent := func(name string, op func(q *query) error) (float64, error) {
		var mu sync.Mutex
		var samples []float64
		var firstErr error
		var wg sync.WaitGroup
		for c := 0; c < r.b.wl.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var local []float64
				var err error
				start := time.Now()
				for i := 0; i < replayMinIters || time.Since(start) < replayTime; i++ {
					a := as[(i*r.b.wl.clients+c)%len(as)]
					d := r.tr.timeCall(name, a.qid, 0, func() {
						if e := op(a.q); e != nil {
							err = e
						}
					})
					local = append(local, us(d))
				}
				mu.Lock()
				samples = append(samples, local...)
				if err != nil {
					firstErr = err
				}
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		return median(samples), firstErr
	}
	label := func(q *query) string { return ds + ":" + q.prog }
	charge, err := concurrent("budget.charge", func(q *query) error {
		return mgr.ChargeAs(fmt.Sprintf("t%d", q.tenant), ds, label(q), q.req.Epsilon)
	})
	if err != nil {
		return err
	}
	hit, err := concurrent("budget.cache_hit", func(q *query) error {
		return mgr.CacheHitAs(fmt.Sprintf("t%d", q.tenant), ds, label(q))
	})
	if err != nil {
		return err
	}
	L["budget.charge_us_p50"] = charge
	L["budget.cache_hit_record_us_p50"] = hit
	return led.Close()
}

func (r *replay) dpOps(L layers) error {
	q := r.canon
	or := q.req.OutputRanges[0]
	sens := []float64{(or.Hi - or.Lo) / float64(len(r.blocks))}
	value := mathutil.Vec{(or.Lo + or.Hi) / 2}
	var dpErr error
	L["dp.laplace_us"] = r.perCall("dp.laplace", 1000, func(int) {
		if _, err := dp.LaplaceVec(r.rng, value, sens, q.req.Epsilon); err != nil {
			dpErr = err
		}
	})
	var loose *query
	for _, a := range r.misses() {
		if a.q.loose {
			loose = a.q
			break
		}
	}
	if loose == nil {
		return dpErr
	}
	// The block outputs a loose-mode query's range is estimated from.
	prog := program(loose)
	outs := make([]float64, len(r.blocks))
	for i, blk := range r.blocks {
		o, err := prog.Run(blk)
		if err != nil {
			return err
		}
		outs[i] = o[0]
	}
	lr := loose.req.OutputRanges[0]
	L["dp.percentile_range_us"] = r.perCall("dp.percentile_range", 10, func(int) {
		if _, err := dp.PercentileRange(r.rng, outs, 0.25, 0.75, dp.Range{Lo: lr.Lo, Hi: lr.Hi}, loose.req.Epsilon/2); err != nil {
			dpErr = err
		}
	})
	return dpErr
}

// serverStages are the stage names the server traces one query under.
var serverStages = []string{
	telemetry.StageSchedQueue, telemetry.StageSchedDecision, telemetry.StageAdmission,
	telemetry.StageBudget, telemetry.StagePartition, telemetry.StageBlocks,
	telemetry.StageAggregation, telemetry.StageNoising, telemetry.StageRelease,
}

func (r *replay) telemetryTrace(L layers) error {
	tel := telemetry.NewRegistry()
	L["telemetry.trace_us_per_query"] = r.perCall("telemetry.trace", 100, func(int) {
		t := telemetry.NewTrace(tel, telemetry.NewTraceID(), r.b.wl.dataset)
		for _, st := range serverStages {
			t.StartSpan(st).End(telemetry.StatusOK)
		}
	})
	return nil
}

// platform replays scan-local's queries through the embedded entry point,
// gupt.Platform.Run, the second query pipeline.
func (r *replay) platform(L layers) error {
	if r.b.wl.name != "scan-local" {
		return nil
	}
	p := gupt.New()
	rows := make([][]float64, len(r.rows))
	for i, row := range r.rows {
		rows[i] = row
	}
	if err := p.Register(r.b.wl.dataset, rows, r.d.tbl.Columns(), gupt.DatasetOptions{TotalBudget: datasetBudget}); err != nil {
		return err
	}
	as := r.misses()
	var runErr error
	L["gupt.platform_run_ms_p50"] = durationsMed(loop(func(i int) {
		a := as[i%len(as)]
		q := a.q
		or := q.req.OutputRanges[0]
		r.tr.timeCall("gupt.platform_run", a.qid, 0, func() {
			_, err := p.Run(context.Background(), gupt.Query{
				Dataset:      r.b.wl.dataset,
				Program:      program(q),
				Mode:         gupt.Tight,
				OutputRanges: []gupt.Range{{Lo: or.Lo, Hi: or.Hi}},
				Epsilon:      q.req.Epsilon,
			})
			if err != nil {
				runErr = err
			}
		})
	}), ms)
	return runErr
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// allocRepeats is how many times each allocation count is taken. The
// runtime occasionally adds an allocation of its own (a fresh goroutine
// descriptor), never removes one, so the minimum is the code's count.
const allocRepeats = 5

// allocCounts counts allocations of core.Run and of the in-process chamber
// on one goroutine (GOMAXPROCS 1, one block at a time).
func (r *replay) allocCounts(L layers) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	q := r.canon
	prog := program(q)
	spec := rangeSpec(q)
	opts := core.Options{Epsilon: q.req.Epsilon, Parallelism: 1}
	ctx := context.Background()
	var runErr error
	runOnce := func() {
		if _, err := core.Run(ctx, prog, r.rows, spec, opts); err != nil {
			runErr = err
		}
	}
	chamber := &sandbox.InProcess{Program: prog}
	blocksOnce := func() {
		for _, blk := range r.blocks {
			if _, err := chamber.Execute(ctx, blk); err != nil {
				runErr = err
			}
		}
	}
	runOnce()
	blocksOnce()
	runs, blocks := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < allocRepeats; i++ {
		runtime.GC()
		runs = min(runs, mallocs(runOnce))
		runtime.GC()
		blocks = min(blocks, mallocs(blocksOnce))
	}
	if runErr != nil {
		return runErr
	}
	L["core.run_allocs"] = float64(runs)
	L["sandbox.execute_allocs_per_block"] = float64(blocks) / float64(len(r.blocks))
	return nil
}

// liveHeap returns the heap still in use after garbage collection. Two
// cycles: the first moves sync.Pool contents to the victim cache, the
// second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerValue measures the live heap a loaded, registered dataset holds,
// per stored value.
func (b *bench) heapPerValue(L layers) error {
	before := liveHeap()
	tbl, err := dataset.LoadCSVFile(b.csv, true)
	if err != nil {
		return err
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register(b.wl.dataset, tbl, dataset.RegisterOptions{TotalBudget: datasetBudget}); err != nil {
		return err
	}
	after := liveHeap()
	runtime.KeepAlive(reg)
	values := float64(tbl.NumRows() * tbl.Dims())
	L["dataset.heap_bytes_per_value"] = (float64(after) - float64(before)) / values
	return nil
}

// unattributed is client latency less what the benchmark can attribute to
// a layer: the per-call replay costs of the layers a query crosses (wire
// codec, authentication, admission, cache lookup and, on a miss, core.Run,
// the charge and the cache fill; on a hit, the cache-hit record) and the
// server's trace. What is left is server glue seen only from outside.
func (b *bench) unattributed(L layers, traced *phase) {
	common := L["compman.codec_us_per_query"] + L["tenant.authenticate_us"] +
		L["ratelimit.acquire_us"] + L["qcache.get_us"] + L["telemetry.trace_us_per_query"]
	hit := common + L["budget.cache_hit_record_us_p50"]
	miss := common + L["qcache.put_us"] + L["budget.charge_us_p50"] + 1000*L["core.run_ms_p50"]
	var rest []float64
	for i := range traced.answers {
		a := &traced.answers[i]
		if !a.ok() {
			continue
		}
		attributed := miss
		if a.cacheHit {
			attributed = hit
		}
		rest = append(rest, ms(a.lat)-attributed/1000)
	}
	L["compman.unattributed_ms_p50"] = median(rest)
}

// assertCounts checks the count metrics against the previous run of the
// same code on this workload, recorded under .bench_build/counts/.
func (b *bench) assertCounts(L layers) {
	h, err := sourceDigest(b.o.root)
	if err != nil {
		b.gate.fail("hashing sources for the count check: %v", err)
		return
	}
	path := filepath.Join(buildDir(b.o.root), "counts", b.wl.name+"-"+h+".json")
	cur := map[string]float64{}
	for _, n := range countMetrics {
		cur[n] = L[n]
	}
	if prev, err := readCounts(path); err == nil {
		for _, n := range countMetrics {
			if p, ok := prev[n]; ok && p != cur[n] && !(math.IsNaN(p) && math.IsNaN(cur[n])) {
				b.gate.fail("count %s = %v, but an earlier run of the same code measured %v", n, cur[n], p)
			}
		}
		return
	}
	if err := writeCounts(path, cur); err != nil {
		b.gate.fail("recording counts: %v", err)
	}
}
