package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// span is one timed call into a module, recorded from the benchmark's own
// files. Spans of one query share qid; parent is the id of the span that
// caused it (0 for a root). qid -1 marks a span the benchmark could not tie
// to one query (several clients in flight).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	QID    int64  `json:"qid"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span

	// The in-flight query, for tying chamber spans to it. Set only when a
	// single client is driving load (see beginQuery).
	curQID  atomic.Int64
	curSpan atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.curQID.Store(-1)
	return t
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(id, parent int64, name string, qid int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, QID: qid,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timeCall records fn as one span and returns its duration.
func (t *tracer) timeCall(name string, qid, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.record(t.newID(), parent, name, qid, start, end)
	}
	return end.Sub(start)
}

// beginQuery marks qid as the query in flight so chamber spans attach to
// it; exclusive says whether this client is the only one issuing queries.
func (t *tracer) beginQuery(qid int64, exclusive bool) (id int64) {
	if t == nil {
		return 0
	}
	id = t.newID()
	if exclusive {
		t.curSpan.Store(id)
		t.curQID.Store(qid)
	}
	return id
}

func (t *tracer) current() (qid, parent int64) {
	return t.curQID.Load(), t.curSpan.Load()
}

// since returns the spans that started at or after mark.
func (t *tracer) since(mark time.Time) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := int64(mark.Sub(t.t0))
	var out []span
	for _, s := range t.spans {
		if s.Start >= cut {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// Synced here, so the dump is not flushed during the next run's window.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapper returns a chamber wrapper for ServerConfig.ChamberWrapper or
// WorkerConfig.ChamberWrapper that records each block execution as a span
// named name. Nil for an untraced run, so the server runs unwrapped.
func (t *tracer) wrapper(name string) func(sandbox.Chamber) sandbox.Chamber {
	if t == nil {
		return nil
	}
	return func(inner sandbox.Chamber) sandbox.Chamber {
		return &timedChamber{inner: inner, t: t, name: name}
	}
}

// timedChamber forwards to the chamber it wraps and keeps its optional
// interfaces, so the engine's block routing (BlockChamber) and zero-copy
// hand-off (ReadOnlyChamber) are the same as without the wrapper.
type timedChamber struct {
	inner sandbox.Chamber
	t     *tracer
	name  string
}

func (c *timedChamber) ReadOnlyBlocks() bool {
	ro, ok := c.inner.(sandbox.ReadOnlyChamber)
	return ok && ro.ReadOnlyBlocks()
}

func (c *timedChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.ExecuteBlock(ctx, -1, block)
}

func (c *timedChamber) ExecuteBlock(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error) {
	qid, parent := c.t.current()
	start := time.Now()
	var out mathutil.Vec
	var err error
	if bc, ok := c.inner.(sandbox.BlockChamber); ok && idx >= 0 {
		out, err = bc.ExecuteBlock(ctx, idx, block)
	} else {
		out, err = c.inner.Execute(ctx, block)
	}
	c.t.record(c.t.newID(), parent, c.name, qid, start, time.Now())
	return out, err
}

// durations returns the spans' durations in microseconds.
func durationsUS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(time.Microsecond)
	}
	return out
}

// covered returns how much of [start, end) the given spans cover: a
// layer's self time is its own duration minus this.
func covered(start, end int64, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

func traceFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/%s-seed%d.spans.jsonl", dir, workload, seed)
}
