// Command perfbench is the benchmark of GUPT's hosted query path. It boots
// the real compman.Server in-process as guptd would (tenancy on, a durable
// ledger with 2 ms group commit, the answer cache at 1024 entries, the
// timing quantum off), drives it from closed-loop compman.Clients on
// loopback, checks every answer, and prints one JSON result line.
//
//	perfbench --workload scan-local --seed 1 --seconds 10 --trace 0
//	perfbench --compare A.json B.json
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from a traced run plus replays of the
// workload's inputs through each layer's exported API. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the full record of a run: the result plus the host block and
// the gate's findings. It is printed before the result line and written
// under .bench_build/results/.
type report struct {
	Host     host     `json:"host"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Result   result   `json:"result"`
	Failures []string `json:"failures,omitempty"`
	// Slices are the end-to-end window's per-slice figures the timing
	// metrics are taken from.
	Slices *sliced `json:"slices,omitempty"`
}

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	compare := flag.Bool("compare", false, "compare two report files given as arguments instead of running")
	flag.StringVar(&o.root, "root", ".", "root of the gupt checkout")
	flag.StringVar(&o.workload, "workload", "", "workload name: scan-local, fanout-wide or dashboard-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; inputs are a function of it")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two report files")
			os.Exit(2)
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(3)
		}
		return
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	full, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(o, full); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
		os.Exit(1)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: gate:", f)
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(full))
	fmt.Println(string(last))
}

func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

func writeReport(o options, data []byte) error {
	dir := filepath.Join(buildDir(o.root), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// run prepares the workload's inputs from the seed and runs the requested
// kind of measurement.
func run(o options) (*report, error) {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	tmpRoot := filepath.Join(buildDir(o.root), "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(tmpRoot, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	csvPath := filepath.Join(runDir, wl.dataset+".csv")
	if err := wl.makeTable(o.seed).SaveCSVFile(csvPath); err != nil {
		return nil, err
	}
	h, err := hostBlock(o.root, runDir)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, wl: wl, csv: csvPath, runDir: runDir, keys: tenantKeys(o.seed, wl.tenants)}
	var m metrics
	if o.trace == 0 {
		m, err = b.endToEnd()
	} else {
		m, err = b.perLayer()
	}
	if err != nil {
		return nil, err
	}
	return &report{
		Host:     h,
		Workload: wl.name,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		Result: result{
			Correct:   b.gate.nFailed == 0,
			Attempted: b.attempted,
			Failed:    b.gate.nFailed,
			Metrics:   m,
		},
		Failures: b.gate.failures,
		Slices:   b.slices,
	}, nil
}

// bench carries one run's inputs and its correctness verdict.
type bench struct {
	o         options
	wl        *workloadSpec
	csv       string
	runDir    string
	keys      []string
	gate      gate
	attempted int
	slices    *sliced
}

// setupRounds is how many times an end-to-end run boots the deployment;
// setup_s is the median.
const setupRounds = 5

// minAnswered95 is the fewest answered queries an end-to-end window needs,
// so at least ten latency samples lie beyond the 95th percentile.
const minAnswered95 = 200

func (b *bench) deploy(tr *tracer) (*deployment, error) {
	runtime.GC()
	return deploy(b.wl, b.csv, b.runDir, b.keys, tr)
}

// warmLoad is the closed-loop load driven before each measured window,
// untimed, so connection buffers, the allocator and the GC pacer have
// settled when timing starts.
const warmLoad = 2 * time.Second

// measure drives the warm-up load and then one measured window on d, and
// checks every answer of both. minAnswered is the fewest answers the
// window's metrics need.
func (b *bench) measure(d *deployment, dur time.Duration, minAnswered int, tr *tracer) (*phase, error) {
	if b.gate.col.n == 0 {
		b.gate.col = newColumn(d.tbl)
	}
	st := b.wl.newStream(b.o.seed)
	warm, err := drive(d, st, warmLoad, 0, nil)
	if err != nil {
		return nil, err
	}
	ph, err := drive(d, st, dur, minAnswered, tr)
	if err != nil {
		return nil, err
	}
	ph.warmup = warm.answers
	all := append(append([]answer(nil), warm.answers...), ph.answers...)
	b.attempted += len(all)
	b.gate.checkAnswers(all)
	if n := answered(ph); n < minAnswered {
		b.gate.fail("only %d answered queries in %v; the metrics need %d", n, ph.elapsed, minAnswered)
	}
	return ph, nil
}

func (b *bench) endToEnd() (metrics, error) {
	var setups []float64
	var d *deployment
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = b.deploy(nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.total.Seconds())
	}
	defer d.close()
	heap := liveHeap()

	ph, err := b.measure(d, time.Duration(b.o.seconds)*time.Second, minAnswered95, nil)
	if err != nil {
		return nil, err
	}
	b.gate.checkBooks(d, charged(d, ph))

	n := float64(answered(ph))
	sl := slices(ph)
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	b.slices = &sl
	m.set("throughput_qps", "1/s", quartile(sl.QPS, 3))
	m.set("latency_p50_ms", "ms", quartile(sl.P50, 1))
	m.set("latency_p95_ms", "ms", quartile(sl.P95, 1))
	m.set("answered_frac", "ratio", 1-float64(b.gate.nFailed)/float64(max(b.attempted, 1)))
	m.set("eps_per_answer", "eps", epsCharged(ph)/n)
	m.set("cpu_ms_per_query", "ms", quartile(sl.CPU, 1))
	m.set("alloc_kb_per_query", "KiB", float64(ph.alloc)/1024/n)
	m.set("live_heap_mb", "MiB", float64(heap)/(1<<20))
	return m, nil
}

// sliced holds per-slice figures of one window: throughput, median and
// 95th-percentile latency, and process CPU per answer.
type sliced struct {
	QPS []float64 `json:"qps"`
	P50 []float64 `json:"p50_ms"`
	P95 []float64 `json:"p95_ms"`
	CPU []float64 `json:"cpu_ms"`
}

// quartile returns the q-th quartile of xs (q = 1 or 3), interpolating
// between order statistics. Interference from outside the process only
// ever slows a slice down, so the timing metrics take the quartile on the
// fast side: it follows the code through a burst that slows up to three
// quarters of the window, and a change that slows every slice still moves
// it in full.
func quartile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q) / 4 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// slices cuts the window into its sliceLen slices by completion time; the
// answers still in flight when the window closed fall in no slice. A
// window shorter than two slices is one slice.
func slices(ph *phase) sliced {
	k := len(ph.sliceCPU)
	if k < 2 {
		lat := latenciesMS(ph.answers, func(*answer) bool { return true })
		n := float64(len(lat))
		return sliced{
			QPS: []float64{n / ph.elapsed.Seconds()},
			P50: []float64{percentile(lat, 0.5)},
			P95: []float64{percentile(lat, 0.95)},
			CPU: []float64{ms(ph.cpu) / n},
		}
	}
	lats := make([][]float64, k)
	for i := range ph.answers {
		a := &ph.answers[i]
		if j := int(a.done / sliceLen); a.ok() && j < k {
			lats[j] = append(lats[j], ms(a.lat))
		}
	}
	var s sliced
	for j, lat := range lats {
		n := float64(len(lat))
		s.QPS = append(s.QPS, n/sliceLen.Seconds())
		s.P50 = append(s.P50, percentile(lat, 0.5))
		s.P95 = append(s.P95, percentile(lat, 0.95))
		s.CPU = append(s.CPU, ms(ph.sliceCPU[j])/max(n, 1))
	}
	return s
}

func epsCharged(ph *phase) float64 {
	eps := 0.0
	for i := range ph.answers {
		eps += ph.answers[i].charged
	}
	return eps
}

// answered counts the queries that got an answer.
func answered(ph *phase) int {
	n := 0
	for i := range ph.answers {
		if ph.answers[i].ok() {
			n++
		}
	}
	return n
}

// latenciesMS returns the answered queries' latencies that keep selects,
// in milliseconds.
func latenciesMS(as []answer, keep func(*answer) bool) []float64 {
	var out []float64
	for i := range as {
		if as[i].ok() && keep(&as[i]) {
			out = append(out, float64(as[i].lat)/float64(time.Millisecond))
		}
	}
	return out
}

// percentile is the nearest-rank percentile; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
