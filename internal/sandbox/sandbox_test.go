package sandbox

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
)

// TestMain doubles as the sandboxed analysis app: when GUPT_TEST_APP is
// set, the test binary acts as a subprocess-chamber app instead of running
// tests. This exercises the real exec path without building a separate
// binary.
func TestMain(m *testing.M) {
	mode := os.Getenv("GUPT_TEST_APP")
	if mode == "" {
		os.Exit(m.Run())
	}
	err := ServeApp(os.Stdin, os.Stdout, func(block []mathutil.Vec) (mathutil.Vec, error) {
		switch mode {
		case "mean":
			return analytics.Mean{Col: 0}.Run(block)
		case "sleep":
			time.Sleep(5 * time.Second)
			return analytics.Mean{Col: 0}.Run(block)
		case "crash":
			os.Exit(3)
			return nil, nil
		case "apperr":
			return nil, errors.New("deliberate app failure")
		case "state":
			// State attack: leave a marker in scratch; report whether a
			// marker from a previous run survived.
			scratch := os.Getenv(ScratchEnv)
			marker := filepath.Join(scratch, "marker")
			found := 0.0
			if _, err := os.Stat(marker); err == nil {
				found = 1
			}
			if err := os.WriteFile(marker, []byte("leak"), 0o600); err != nil {
				return nil, err
			}
			return mathutil.Vec{found}, nil
		case "cwdstate":
			// Same attack via the working directory instead of the env var.
			found := 0.0
			if _, err := os.Stat("cwd-marker"); err == nil {
				found = 1
			}
			if err := os.WriteFile("cwd-marker", []byte("leak"), 0o600); err != nil {
				return nil, err
			}
			return mathutil.Vec{found}, nil
		case "env":
			// Report how many environment variables we can see beyond the
			// sanctioned scratch variable.
			extra := 0.0
			for _, kv := range os.Environ() {
				if !strings.HasPrefix(kv, ScratchEnv+"=") {
					extra++
				}
			}
			return mathutil.Vec{extra}, nil
		default:
			return nil, fmt.Errorf("unknown test app %q", mode)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func testBlock(n int) []mathutil.Vec {
	out := make([]mathutil.Vec, n)
	for i := range out {
		out[i] = mathutil.Vec{float64(i)}
	}
	return out
}

func subprocessChamber(t *testing.T, mode string, policy Policy) *Subprocess {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &Subprocess{
		Path:        exe,
		Policy:      policy,
		ScratchRoot: t.TempDir(),
		ExtraEnv:    []string{"GUPT_TEST_APP=" + mode},
	}
}

func TestInProcessBasic(t *testing.T) {
	ch := &InProcess{Program: analytics.Mean{Col: 0}}
	out, err := ch.Execute(context.Background(), testBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("mean = %v, want 2", out[0])
	}
}

func TestInProcessDataIsolation(t *testing.T) {
	evil := analytics.Func{ProgName: "mutator", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		for i := range block {
			block[i][0] = -999 // try to corrupt the platform's data
		}
		return mathutil.Vec{0}, nil
	}}
	block := testBlock(3)
	if _, err := (&InProcess{Program: evil}).Execute(context.Background(), block); err != nil {
		t.Fatal(err)
	}
	for i, r := range block {
		if r[0] != float64(i) {
			t.Fatalf("chamber leaked mutable data: row %d = %v", i, r[0])
		}
	}
}

// The private copy is one slab, so rows are neighbours in memory. Each row
// is capped at its own width: a program that appends to row i gets a fresh
// array and cannot overwrite row i+1 of its own copy, nor the caller's.
func TestInProcessRowsCapped(t *testing.T) {
	grower := analytics.Func{ProgName: "grower", Dims: 2, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		for i := range block {
			block[i] = append(block[i], -999)
		}
		return mathutil.Vec{block[1][0], float64(len(block[1]))}, nil
	}}
	block := testBlock(3)
	out, err := (&InProcess{Program: grower}).Execute(context.Background(), block)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Errorf("row 1 after appends = %v (len %v), want value 1 and len 2", out[0], out[1])
	}
	for i, r := range block {
		if len(r) != 1 || r[0] != float64(i) {
			t.Fatalf("caller's row %d = %v", i, r)
		}
	}
}

// ExecuteIndexed hands the program a private copy of the indexed rows, in
// index order: the program may overwrite and grow every row, and the
// shared matrix stays as it was.
func TestInProcessExecuteIndexedPrivateCopy(t *testing.T) {
	m := mathutil.Matrix{Data: []float64{0, 10, 1, 11, 2, 12, 3, 13}, Width: 2}
	vandal := analytics.Func{ProgName: "vandal", Dims: 2, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		first := block[0][1]
		for i := range block {
			for j := range block[i] {
				block[i][j] = -1
			}
			block[i] = append(block[i], -999)
		}
		return mathutil.Vec{first, float64(len(block))}, nil
	}}
	out, err := (&InProcess{Program: vandal}).ExecuteIndexed(context.Background(), 0, m, []int{3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 13 || out[1] != 3 {
		t.Errorf("program saw first row value %v in a block of %v, want 13 in 3", out[0], out[1])
	}
	for i, v := range []float64{0, 10, 1, 11, 2, 12, 3, 13} {
		if m.Data[i] != v {
			t.Fatalf("matrix value %d = %v after the run, want %v", i, m.Data[i], v)
		}
	}
}

// recordingChamber logs which hand-off the engine used and writes through
// the rows it is handed, like a program that mutates its input would.
type recordingChamber struct {
	readOnly, block bool
	got             string
	idx             int
}

func (c *recordingChamber) Execute(_ context.Context, rows []mathutil.Vec) (mathutil.Vec, error) {
	c.got = "execute"
	return c.touch(rows), nil
}

func (c *recordingChamber) touch(rows []mathutil.Vec) mathutil.Vec {
	first := rows[0][0]
	if !c.readOnly {
		rows[0][0] = -1
	}
	return mathutil.Vec{first}
}

type readOnlyRecorder struct{ *recordingChamber }

func (readOnlyRecorder) ReadOnlyBlocks() bool { return true }

type blockRecorder struct{ *recordingChamber }

func (c blockRecorder) ExecuteBlock(_ context.Context, idx int, rows []mathutil.Vec) (mathutil.Vec, error) {
	c.got, c.idx = "block", idx
	return c.touch(rows), nil
}

// HandOff picks the cheapest hand-off a chamber supports: indices for an
// IndexedChamber, aliasing headers for a ReadOnlyChamber, a private copy
// otherwise; row hand-offs carry the block index to a BlockChamber. A
// chamber that may write its rows never writes the matrix.
func TestHandOffRoutes(t *testing.T) {
	ctx := context.Background()
	m := mathutil.Matrix{Data: []float64{5, 6, 7}, Width: 1}
	block := []int{2, 0}

	ip := &InProcess{Program: analytics.Func{ProgName: "first", Dims: 1,
		F: func(rows []mathutil.Vec) (mathutil.Vec, error) { return mathutil.Vec{rows[0][0]}, nil }}}
	if out, err := HandOff(ctx, ip, 4, m, block); err != nil || out[0] != 7 {
		t.Fatalf("indexed hand-off = %v, %v; want [7]", out, err)
	}

	ro := &recordingChamber{readOnly: true}
	if out, _ := HandOff(ctx, readOnlyRecorder{ro}, 4, m, block); out[0] != 7 || ro.got != "execute" {
		t.Fatalf("read-only hand-off = %v via %q", out, ro.got)
	}

	mut := &recordingChamber{}
	if out, _ := HandOff(ctx, mut, 4, m, block); out[0] != 7 || mut.got != "execute" || m.Data[2] != 7 {
		t.Fatalf("copy hand-off = %v via %q; matrix now %v", out, mut.got, m.Data)
	}

	blk := &recordingChamber{}
	if out, _ := HandOff(ctx, blockRecorder{blk}, 4, m, block); out[0] != 7 || blk.got != "block" || blk.idx != 4 || m.Data[2] != 7 {
		t.Fatalf("block hand-off = %v via %q idx %d; matrix now %v", out, blk.got, blk.idx, m.Data)
	}
}

func TestInProcessPanicIsolation(t *testing.T) {
	bomb := analytics.Func{ProgName: "bomb", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		panic("boom")
	}}
	// Without a substitute, the panic surfaces as an error.
	_, err := (&InProcess{Program: bomb}).Execute(context.Background(), testBlock(1))
	if !errors.Is(err, ErrPanicked) {
		t.Errorf("err = %v, want ErrPanicked", err)
	}
	// With a substitute, the platform releases the constant instead.
	ch := &InProcess{Program: bomb, Policy: Policy{Substitute: mathutil.Vec{7}}}
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil || out[0] != 7 {
		t.Errorf("substituted output = %v, %v; want 7", out, err)
	}
}

func TestInProcessKillOnQuantum(t *testing.T) {
	slow := analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		time.Sleep(5 * time.Second)
		return mathutil.Vec{1}, nil
	}}
	ch := &InProcess{Program: slow, Policy: Policy{Quantum: 50 * time.Millisecond, Substitute: mathutil.Vec{42}}}
	start := time.Now()
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Errorf("killed block output = %v, want substitute 42", out[0])
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("kill took %v, quantum was 50ms", elapsed)
	}
	// Without a substitute the kill is an error.
	ch2 := &InProcess{Program: slow, Policy: Policy{Quantum: 50 * time.Millisecond}}
	if _, err := ch2.Execute(context.Background(), testBlock(1)); !errors.Is(err, ErrKilled) {
		t.Errorf("err = %v, want ErrKilled", err)
	}
}

// Timing-attack defense: with a quantum, a fast block takes just as long as
// the quantum — completion time is data-independent.
func TestInProcessTimingNormalization(t *testing.T) {
	const quantum = 150 * time.Millisecond
	ch := &InProcess{Program: analytics.Mean{Col: 0}, Policy: Policy{Quantum: quantum, Substitute: mathutil.Vec{0}}}
	start := time.Now()
	if _, err := ch.Execute(context.Background(), testBlock(3)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < quantum {
		t.Errorf("fast block finished in %v, must be held to the %v quantum", elapsed, quantum)
	}
}

func TestInProcessContextCancel(t *testing.T) {
	slow := analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		time.Sleep(5 * time.Second)
		return mathutil.Vec{1}, nil
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := (&InProcess{Program: slow}).Execute(ctx, testBlock(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context deadline", err)
	}
}

func TestInProcessNilProgram(t *testing.T) {
	if _, err := (&InProcess{}).Execute(context.Background(), testBlock(1)); err == nil {
		t.Error("nil program accepted")
	}
}

func TestSubprocessBasic(t *testing.T) {
	ch := subprocessChamber(t, "mean", Policy{})
	out, err := ch.Execute(context.Background(), testBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("subprocess mean = %v, want 2", out[0])
	}
	m, err := mathutil.PackRows(testBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ch.ExecuteIndexed(context.Background(), 0, m, []int{4, 1}); err != nil || out[0] != 2.5 {
		t.Errorf("indexed subprocess mean = %v, %v; want 2.5", out, err)
	}
}

func TestSubprocessKillOnQuantum(t *testing.T) {
	ch := subprocessChamber(t, "sleep", Policy{Quantum: 200 * time.Millisecond, Substitute: mathutil.Vec{9}})
	start := time.Now()
	out, err := ch.Execute(context.Background(), testBlock(3))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 {
		t.Errorf("killed subprocess output = %v, want substitute 9", out[0])
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("kill took %v", elapsed)
	}
}

func TestSubprocessCrashSubstitute(t *testing.T) {
	ch := subprocessChamber(t, "crash", Policy{Substitute: mathutil.Vec{5}})
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil || out[0] != 5 {
		t.Errorf("crash substitute = %v, %v; want 5", out, err)
	}
	// Without a substitute the crash is an error.
	ch2 := subprocessChamber(t, "crash", Policy{})
	if _, err := ch2.Execute(context.Background(), testBlock(1)); err == nil {
		t.Error("crash with no substitute must error")
	}
}

func TestSubprocessAppError(t *testing.T) {
	ch := subprocessChamber(t, "apperr", Policy{})
	if _, err := ch.Execute(context.Background(), testBlock(1)); err == nil || !strings.Contains(err.Error(), "deliberate app failure") {
		t.Errorf("app error not propagated: %v", err)
	}
}

// State-attack defense: a program that leaves a marker in its scratch space
// must never find it again on a later execution.
func TestSubprocessStateAttackDefeated(t *testing.T) {
	for _, mode := range []string{"state", "cwdstate"} {
		ch := subprocessChamber(t, mode, Policy{})
		for run := 0; run < 3; run++ {
			out, err := ch.Execute(context.Background(), testBlock(1))
			if err != nil {
				t.Fatalf("%s run %d: %v", mode, run, err)
			}
			if out[0] != 0 {
				t.Fatalf("%s run %d: marker from a previous execution leaked through", mode, run)
			}
		}
	}
}

// The sandboxed process sees an empty environment apart from its scratch
// path and explicitly whitelisted variables.
func TestSubprocessEnvironmentCleared(t *testing.T) {
	t.Setenv("GUPT_SECRET_FOR_TEST", "should-not-leak")
	ch := subprocessChamber(t, "env", Policy{})
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	// The only extra variable is the GUPT_TEST_APP mode selector we
	// whitelisted ourselves.
	if out[0] != 1 {
		t.Errorf("subprocess saw %v extra env vars, want exactly the 1 whitelisted", out[0])
	}
}

func TestSubprocessScratchWiped(t *testing.T) {
	root := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ch := &Subprocess{Path: exe, ScratchRoot: root, ExtraEnv: []string{"GUPT_TEST_APP=state"}}
	if _, err := ch.Execute(context.Background(), testBlock(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("scratch root not wiped: %d entries remain", len(entries))
	}
}

func TestSubprocessTimingNormalization(t *testing.T) {
	const quantum = 300 * time.Millisecond
	ch := subprocessChamber(t, "mean", Policy{Quantum: quantum, Substitute: mathutil.Vec{0}})
	start := time.Now()
	if _, err := ch.Execute(context.Background(), testBlock(2)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < quantum {
		t.Errorf("fast subprocess finished in %v, must be held to %v", elapsed, quantum)
	}
}

func TestSubprocessMissingExecutable(t *testing.T) {
	ch := &Subprocess{Path: ""}
	if _, err := ch.Execute(context.Background(), testBlock(1)); err == nil {
		t.Error("empty path accepted")
	}
	ch2 := &Subprocess{Path: "/nonexistent/gupt-app", Policy: Policy{Substitute: mathutil.Vec{1}}}
	// Even a missing binary resolves to the substitute when configured: the
	// platform never exposes failure modes to the output channel.
	out, err := ch2.Execute(context.Background(), testBlock(1))
	if err != nil || out[0] != 1 {
		t.Errorf("missing exe substitute = %v, %v", out, err)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf strings.Builder
	block := testBlock(3)
	if err := WriteRequest(&buf, block); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2][0] != 2 {
		t.Errorf("request round trip = %v", got)
	}

	var rbuf strings.Builder
	if err := WriteResponse(&rbuf, mathutil.Vec{1.5}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(strings.NewReader(rbuf.String()))
	if err != nil || out[0] != 1.5 {
		t.Errorf("response round trip = %v, %v", out, err)
	}

	var ebuf strings.Builder
	if err := WriteResponse(&ebuf, nil, errors.New("bad")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(strings.NewReader(ebuf.String())); err == nil {
		t.Error("error response round trip lost the error")
	}

	if _, err := ReadRequest(strings.NewReader("not json")); err == nil {
		t.Error("garbage request accepted")
	}
	if _, err := ReadResponse(strings.NewReader("not json")); err == nil {
		t.Error("garbage response accepted")
	}
}
