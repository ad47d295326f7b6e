package gupt

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// userRows is a census-like table with a user id column: n rows of (age,
// user), rows spread round-robin over users.
func userRows(seed int64, n, users int) [][]float64 {
	rng := mathutil.NewRNG(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150), float64(i % users)}
	}
	return rows
}

var userRanges = []Range{{Lo: 0, Hi: 150}, {Lo: 0, Hi: 50}}

func newUserPlatform(t *testing.T, rows [][]float64) *Platform {
	t.Helper()
	p := New()
	err := p.Register("census", rows, []string{"age", "user"}, DatasetOptions{
		TotalBudget: 1000, Ranges: userRanges, AgedFraction: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameBits(a, b []float64) bool {
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

// TestSessionMemberMatchesRun holds a session member to the same release
// as the identical query run alone at the member's allocated ε: the
// session must honour the privacy unit and the range-estimation window,
// not silently drop them.
func TestSessionMemberMatchesRun(t *testing.T) {
	p := newUserPlatform(t, userRows(7, 2000, 50))
	members := []Query{
		{Program: Mean{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 150}}, UserLevel: true, UserColumn: 1, Seed: 7},
		{Program: Mean{Col: 0}, Mode: Loose, OutputRanges: []Range{{Lo: 0, Hi: 300}}, PercentileLow: 0.1, PercentileHigh: 0.9, Seed: 8},
		{Program: Median{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 150}}, Gamma: 2, Seed: 9},
	}
	s := p.NewSession("census", 3)
	for _, q := range members {
		if err := s.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	alloc, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range members {
		q.Dataset, q.Epsilon = "census", alloc[i]
		want, err := p.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got[i].Output, want.Output) || got[i].EpsilonSpent != want.EpsilonSpent {
			t.Errorf("member %d released %v at ε %v; the same query alone released %v at ε %v",
				i, got[i].Output, got[i].EpsilonSpent, want.Output, want.EpsilonSpent)
		}
	}

	// A member's share is computed from its block size before anything
	// runs, so a member cannot ask for the block size to be tuned.
	auto := Query{Program: Mean{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 150}}, AutoBlockSize: true}
	if err := s.Add(auto); err == nil {
		t.Error("session accepted an AutoBlockSize member")
	}
}

// TestAccuracyRefusedInHelperMode: Helper mode never clamps to output
// ranges, so an accuracy goal stated over them would charge ε for ranges
// the run does not use. The query is refused before any charge.
func TestAccuracyRefusedInHelperMode(t *testing.T) {
	p := newCensusPlatform(t, 100, 0.1)
	_, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		Mode:         Helper,
		Translate:    func(in []Range) []Range { return in[:1] },
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Accuracy:     &AccuracyGoal{Rho: 0.9, Confidence: 0.9},
		Seed:         1,
	})
	if err == nil {
		t.Fatal("accuracy goal accepted in Helper mode")
	}
	if rem, _ := p.RemainingBudget("census"); rem != 100 {
		t.Errorf("refused query charged the budget: remaining %v", rem)
	}
}

// unjournaled charges through the dataset's accountant but cannot journal
// a cache hit, like a ledger whose disk failed after the charge.
type unjournaled struct{ acct *dp.Accountant }

func (u unjournaled) Spend(label string, eps float64) error { return u.acct.Spend(label, eps) }
func (u unjournaled) RecordCacheHit(string) error           { return errors.New("disk full") }

// TestCacheHitRefusedWhenNotJournaled: a hit is still a release, so one
// the ledger cannot record is refused at zero ε, never served silently.
func TestCacheHitRefusedWhenNotJournaled(t *testing.T) {
	p := newCensusPlatform(t, 10, 0)
	p.EnableCache(16, 0)
	reg, err := p.reg.Lookup("census")
	if err != nil {
		t.Fatal(err)
	}
	reg.BindCharger(unjournaled{reg.Accountant})
	q := Query{Dataset: "census", Program: Mean{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 150}}, Epsilon: 1, Seed: 3}
	if _, err := p.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), q)
	if err == nil || !strings.Contains(err.Error(), "journal") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("unjournaled hit: res %+v, err %v; want a refusal naming the journaling failure", res, err)
	}
	if rem, _ := p.RemainingBudget("census"); rem != 9 {
		t.Errorf("remaining = %v, want 9 (the refused hit costs nothing)", rem)
	}
}

// hostedShell serves a registry identical to newUserPlatform's through a
// compman server with local chambers and the answer cache on.
func hostedShell(t *testing.T, rows [][]float64) (*compman.Client, *compman.Server) {
	t.Helper()
	reg := dataset.NewRegistry()
	tbl := dataset.New([]string{"age", "user"})
	for _, r := range rows {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	_, err := reg.Register("census", tbl, dataset.RegisterOptions{
		TotalBudget: 1000, Ranges: userRanges, AgedFraction: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := compman.NewServer(reg, compman.ServerConfig{CacheEntries: 64})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	client, err := compman.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv
}

// TestPipelineParity runs one seeded query set through both front ends,
// the embedded Platform and a compman server over a real client, and
// requires the same releases: bit-identical outputs, identical ε spent and
// charged, the same charges on both ledgers, and a cache hit on the repeat.
// Ledger labels name the program the way each front end does (the Go
// program's Name, the wire spec's type); sessions are labeled identically.
func TestPipelineParity(t *testing.T) {
	rows := userRows(11, 3000, 50)
	p := newUserPlatform(t, rows)
	p.EnableCache(64, 0)
	client, srv := hostedShell(t, rows)

	r150, w150 := []Range{{Lo: 0, Hi: 150}}, []compman.RangeSpec{{Lo: 0, Hi: 150}}
	mean := &compman.ProgramSpec{Type: "mean"}
	cases := []struct {
		name       string
		q          Query
		req        compman.Request
		uncachable bool // embedded only: a closure the fingerprint cannot see
	}{
		{name: "tight",
			q:   Query{Program: Mean{Col: 0}, OutputRanges: r150, Epsilon: 0.5, Seed: 1},
			req: compman.Request{Program: mean, OutputRanges: w150, Epsilon: 0.5, Seed: 1}},
		{name: "loose-window",
			q: Query{Program: Median{Col: 0}, Mode: Loose, OutputRanges: []Range{{Lo: 0, Hi: 300}},
				PercentileLow: 0.1, PercentileHigh: 0.9, Epsilon: 1, Seed: 2},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "median"}, Mode: "loose",
				OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 300}}, PercentileLow: 0.1, PercentileHigh: 0.9, Epsilon: 1, Seed: 2}},
		{name: "helper", uncachable: true,
			q: Query{Program: Mean{Col: 0}, Mode: Helper, Epsilon: 1, Seed: 3, Translate: func(in []Range) []Range {
				r := in[0].Scale(1.2)
				return []Range{{Lo: r.Lo + 5, Hi: r.Hi + 5}}
			}},
			req: compman.Request{Program: mean, Mode: "helper", Epsilon: 1, Seed: 3,
				Translate: &compman.TranslateSpec{InputDim: []int{0}, Scale: []float64{1.2}, Offset: []float64{5}}}},
		{name: "accuracy",
			q:   Query{Program: Mean{Col: 0}, OutputRanges: r150, Accuracy: &AccuracyGoal{Rho: 0.9, Confidence: 0.9}, Seed: 4},
			req: compman.Request{Program: mean, OutputRanges: w150, Accuracy: &compman.AccuracySpec{Rho: 0.9, Confidence: 0.9}, Seed: 4}},
		{name: "auto-block",
			q:   Query{Program: Mean{Col: 0}, OutputRanges: r150, AutoBlockSize: true, Epsilon: 1, Seed: 5},
			req: compman.Request{Program: mean, OutputRanges: w150, AutoBlockSize: true, Epsilon: 1, Seed: 5}},
		{name: "user-level",
			q:   Query{Program: Mean{Col: 0}, OutputRanges: r150, UserLevel: true, UserColumn: 1, Epsilon: 1, Seed: 6},
			req: compman.Request{Program: mean, OutputRanges: w150, UserLevel: true, UserColumn: 1, Epsilon: 1, Seed: 6}},
		{name: "gamma-3",
			q: Query{Program: Variance{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 5000}}, Gamma: 3, Epsilon: 1, Seed: 7},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "variance"},
				OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 5000}}, Gamma: 3, Epsilon: 1, Seed: 7}},
		{name: "kmeans",
			q: Query{Program: KMeans{K: 2, FeatureDims: 1, Iters: 5, Seed: 9}, OutputRanges: []Range{r150[0], r150[0]}, Epsilon: 1, Seed: 8},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "kmeans", K: 2, FeatureDims: 1, Iters: 5, Seed: 9},
				OutputRanges: []compman.RangeSpec{w150[0], w150[0]}, Epsilon: 1, Seed: 8}},
	}

	type member struct {
		prog  Program
		spec  compman.ProgramSpec
		hi    float64
		block int
		gamma int
	}
	members := []member{
		{Mean{Col: 0}, compman.ProgramSpec{Type: "mean"}, 150, 0, 0},
		{Median{Col: 0}, compman.ProgramSpec{Type: "median"}, 150, 0, 2},
		{Variance{Col: 0}, compman.ProgramSpec{Type: "variance"}, 5000, 100, 0},
	}
	embeddedSession := func() ([]*Result, error) {
		s := p.NewSession("census", 3)
		for i, m := range members {
			err := s.Add(Query{Program: m.prog, OutputRanges: []Range{{Lo: 0, Hi: m.hi}}, BlockSize: m.block, Gamma: m.gamma, Seed: int64(20 + i)})
			if err != nil {
				return nil, err
			}
		}
		return s.Run(context.Background())
	}
	hostedSession := func() ([]compman.SessionResult, error) {
		spec := &compman.SessionSpec{TotalEpsilon: 3}
		for i, m := range members {
			spec.Queries = append(spec.Queries, compman.SessionQuery{Program: m.spec,
				OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: m.hi}}, BlockSize: m.block, Gamma: m.gamma, Seed: int64(20 + i)})
		}
		return client.Session("census", spec)
	}

	remaining := func() (embedded, hosted float64) {
		embedded, err := p.RemainingBudget("census")
		if err != nil {
			t.Fatal(err)
		}
		if hosted, err = client.RemainingBudget("census"); err != nil {
			t.Fatal(err)
		}
		return embedded, hosted
	}

	for round := 0; round < 2; round++ {
		repeat := round == 1
		for _, c := range cases {
			q, req := c.q, c.req
			q.Dataset, req.Dataset = "census", "census"
			before, hostedBefore := remaining()
			res, err := p.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: embedded: %v", c.name, err)
			}
			resp, err := client.Query(&req)
			if err != nil {
				t.Fatalf("%s: hosted: %v", c.name, err)
			}
			after, hostedAfter := remaining()
			if !sameBits(res.Output, resp.Output) || res.EpsilonSpent != resp.EpsilonSpent {
				t.Errorf("%s (round %d): embedded released %v at ε %v, hosted %v at ε %v",
					c.name, round, res.Output, res.EpsilonSpent, resp.Output, resp.EpsilonSpent)
			}
			if wantHit := repeat && !c.uncachable; res.CacheHit != wantHit || resp.CacheHit != repeat {
				t.Errorf("%s (round %d): cache hit embedded %v, hosted %v", c.name, round, res.CacheHit, resp.CacheHit)
			}
			// A first run charges what it spent, the same in both shells; a
			// repeat charges nothing, except the uncachable embedded closure.
			charged := resp.EpsilonCharged != res.EpsilonSpent || after != hostedAfter
			if repeat {
				charged = resp.EpsilonCharged != 0 || hostedAfter != hostedBefore || (after != before) != c.uncachable
			}
			if charged {
				t.Errorf("%s (round %d): hosted charged %v, remaining %v → %v; embedded spent %v, remaining %v → %v",
					c.name, round, resp.EpsilonCharged, hostedBefore, hostedAfter, res.EpsilonSpent, before, after)
			}
		}

		hitsBefore := srv.CacheStats().Hits
		_, hostedBefore := remaining()
		got, err := embeddedSession()
		if err != nil {
			t.Fatalf("embedded session: %v", err)
		}
		wire, err := hostedSession()
		if err != nil {
			t.Fatalf("hosted session: %v", err)
		}
		for i := range members {
			if !sameBits(got[i].Output, wire[i].Output) || got[i].EpsilonSpent != wire[i].EpsilonSpent {
				t.Errorf("session member %d (round %d): embedded %v at ε %v, hosted %v at ε %v",
					i, round, got[i].Output, got[i].EpsilonSpent, wire[i].Output, wire[i].EpsilonSpent)
			}
			if got[i].CacheHit != repeat {
				t.Errorf("session member %d (round %d): embedded cache hit %v", i, round, got[i].CacheHit)
			}
		}
		if _, hostedAfter := remaining(); repeat && (srv.CacheStats().Hits != hitsBefore+1 || hostedAfter != hostedBefore) {
			t.Errorf("repeated hosted session was not a zero-ε hit (remaining %v → %v)", hostedBefore, hostedAfter)
		}
	}

	// Both ledgers hold the same charges in the same order; the repeat
	// round adds only the embedded helper query, whose closure is
	// uncachable.
	embedded, _ := p.reg.Lookup("census")
	hosted, _ := srv.Registry().Lookup("census")
	eh, hh := embedded.Accountant.History(), hosted.Accountant.History()
	if len(eh) != len(cases)+2 || len(hh) != len(cases)+1 {
		t.Fatalf("ledgers hold %d embedded and %d hosted charges, want %d and %d", len(eh), len(hh), len(cases)+2, len(cases)+1)
	}
	for i, c := range cases {
		wantE, wantH := "census:"+c.q.Program.Name(), "census:"+c.req.Program.Type
		if eh[i].Label != wantE || hh[i].Label != wantH || eh[i].Epsilon != hh[i].Epsilon {
			t.Errorf("charge %d: embedded %q ε %v, hosted %q ε %v; want labels %q and %q",
				i, eh[i].Label, eh[i].Epsilon, hh[i].Label, hh[i].Epsilon, wantE, wantH)
		}
	}
	if s := len(cases); eh[s] != (dp.Charge{Label: "session:census:3-queries", Epsilon: 3, At: eh[s].At}) ||
		hh[s].Label != eh[s].Label || hh[s].Epsilon != eh[s].Epsilon {
		t.Errorf("session charges: embedded %+v, hosted %+v", eh[s], hh[s])
	}
}
