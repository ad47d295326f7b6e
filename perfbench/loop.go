package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gupt/internal/compman"
	"gupt/internal/ledger"
	"gupt/internal/qcache"
)

// answer is what the benchmark keeps of one query: the parts of the
// response the correctness gate and the metrics read.
type answer struct {
	q         *query
	qid       int64
	done      time.Duration // completion, since the window started
	lat       time.Duration
	err       error
	refused   bool // a zero-ε refusal with a retry hint
	output    []float64
	charged   float64
	cacheHit  bool
	failed    int // substituted blocks
	numBlocks int
	effRange  compman.RangeSpec
	hasRange  bool
}

// exchange is one real request and the response it got.
type exchange struct {
	req  *compman.Request
	resp *compman.Response
}

// phase is one closed-loop measurement window and the process and server
// counters read around it.
type phase struct {
	start        time.Time // when the window opened
	answers      []answer
	warmup       []answer // answers to the untimed load before the window
	elapsed      time.Duration
	cpu          time.Duration   // process user+sys over the window
	sliceCPU     []time.Duration // process user+sys in each sliceLen of the window
	alloc        uint64          // TotalAlloc delta over the window
	cache        [2]qcache.Stats
	ledger       [2]ledger.Status
	fsyncs       [2]int64
	synced       [2]int64
	schedRefused [2]int64
	captured     []exchange // first answered exchanges, for the codec replay
}

// sliceLen cuts an end-to-end window into slices; the window's timing
// metrics are taken over its slices (see quartile), so a few seconds of
// interference from outside the process move them little.
const sliceLen = time.Second

// keepResponses is how many real request/response pairs a phase keeps for
// replaying through the wire codec.
const keepResponses = 64

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (d *deployment) readCounters(p *phase, i int) {
	p.cache[i] = d.srv.CacheStats()
	p.ledger[i] = d.led.Status()
	p.fsyncs[i] = d.counter("ledger.fsyncs")
	p.synced[i] = d.counter("ledger.synced_records")
	p.schedRefused[i] = d.counter("compman.sched.rejected_busy") + d.counter("compman.sched.rejected_expired")
}

// drive runs the workload's closed loop for dur: each client sends its
// next query only when the previous answer has arrived. Connections are
// opened before the window starts. If fewer than minAnswered queries were
// answered by then, the window runs on until they are, up to 4·dur.
func drive(d *deployment, st stream, dur time.Duration, minAnswered int, tr *tracer) (*phase, error) {
	n := d.wl.clients
	clients := make([]*compman.Client, 0, n)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}

	p := &phase{}
	var qids, nAnswered atomic.Int64
	perClient := make([][]answer, n)
	var capMu sync.Mutex
	d.readCounters(p, 0)
	alloc0, cpu0 := totalAlloc(), cpuTime()
	start := time.Now()
	p.start = start
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		prev := cpu0
		for j := 1; time.Duration(j)*sliceLen <= dur; j++ {
			time.Sleep(time.Until(start.Add(time.Duration(j) * sliceLen)))
			now := cpuTime()
			p.sliceCPU = append(p.sliceCPU, now-prev)
			prev = now
		}
	}()
	stop, limit := start.Add(dur), start.Add(4*dur)
	more := func() bool {
		now := time.Now()
		return now.Before(stop) || (nAnswered.Load() < int64(minAnswered) && now.Before(limit))
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *compman.Client) {
			defer wg.Done()
			for more() {
				q := st.next()
				qid := qids.Add(1)
				req := q.req
				req.APIKey = d.keys[q.tenant]
				span := tr.beginQuery(qid, n == 1)
				t0 := time.Now()
				resp, err := c.Query(&req)
				t1 := time.Now()
				tr.record(span, 0, spanQuery, qid, t0, t1)
				if err == nil {
					nAnswered.Add(1)
					capMu.Lock()
					if len(p.captured) < keepResponses {
						p.captured = append(p.captured, exchange{&req, resp})
					}
					capMu.Unlock()
				}
				a := newAnswer(q, qid, t1.Sub(t0), resp, err)
				a.done = t1.Sub(start)
				perClient[i] = append(perClient[i], a)
			}
		}(i, c)
	}
	wg.Wait()
	<-sampled
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.alloc = totalAlloc() - alloc0
	d.readCounters(p, 1)
	for _, a := range perClient {
		p.answers = append(p.answers, a...)
	}
	return p, nil
}

func newAnswer(q *query, qid int64, lat time.Duration, resp *compman.Response, err error) answer {
	a := answer{q: q, qid: qid, lat: lat, err: err}
	var qe *compman.QueryError
	if errors.As(err, &qe) {
		a.charged = qe.EpsilonCharged
		a.refused = qe.RetryAfterMillis > 0
	}
	if resp == nil {
		return a
	}
	a.output = resp.Output
	a.charged = resp.EpsilonCharged
	a.cacheHit = resp.CacheHit
	a.failed = resp.FailedBlocks
	a.numBlocks = resp.NumBlocks
	if len(resp.EffectiveRanges) > 0 {
		a.effRange, a.hasRange = resp.EffectiveRanges[0], true
	}
	return a
}

// ok reports whether the query was answered at all.
func (a *answer) ok() bool { return a.err == nil }
