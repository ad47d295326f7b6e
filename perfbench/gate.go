package main

import (
	"fmt"
	"math"
	"sort"

	"gupt/internal/dataset"
	"gupt/internal/ledger"
	"gupt/internal/mathutil"
)

// The correctness gate's per-query false-alarm probability is at most
// 1e-9, split evenly between the sampling bound on the block outputs and
// the Laplace tail. Both tolerances below are derived from public
// parameters and the data; neither is tuned.
const (
	pSampling = 5e-10
	pNoise    = 5e-10
)

// booksTolerance bounds float summation-order differences between the
// client's sum of charges and the server's accountant: far below the
// smallest charge any stream makes (0.5).
const booksTolerance = 1e-6

// column holds what the gate needs to know about the queried column.
type column struct {
	n              int
	sorted         []float64
	mean, variance float64
	min, max       float64
	maxSqDev       float64 // max (x-mean)²
}

func newColumn(tbl *dataset.Table) column {
	xs := tbl.Column(0)
	c := column{n: len(xs), sorted: append([]float64(nil), xs...)}
	sort.Float64s(c.sorted)
	c.min, c.max = c.sorted[0], c.sorted[c.n-1]
	c.mean = mathutil.Mean(xs)
	c.variance = mathutil.Variance(xs)
	for _, x := range xs {
		c.maxSqDev = math.Max(c.maxSqDev, (x-c.mean)*(x-c.mean))
	}
	return c
}

// hoeffding returns h with exp(-2·m·h²) = p/(sides·blocks). By Hoeffding's
// inequality, which holds for sampling without replacement, the mean of m
// values drawn from a population of range w passes the population mean by
// more than w·h on one side with probability at most p/(sides·blocks).
// Each block of a γ=1 partition is such a sample, so a union bound over the
// blocks and the caller's sides one-sided events gives at most p.
func hoeffding(m, blocks int, p float64, sides float64) float64 {
	return math.Sqrt(math.Log(sides*float64(blocks)/p) / (2 * float64(m)))
}

// quantile returns the smallest value with at least frac of the data at or
// below it.
func (c column) quantile(frac float64) float64 {
	k := int(math.Ceil(frac * float64(c.n)))
	k = max(1, min(k, c.n))
	return c.sorted[k-1]
}

// blockInterval bounds every block output of prog over blocks of at least
// m rows (ℓ blocks), with probability at least 1 - pSampling.
// wholeRange says the clamp range covers every data value, which lets the
// mean use an exact bound instead.
func (c column) blockInterval(prog string, m, blocks int, wholeRange bool) (lo, hi float64) {
	w := c.max - c.min
	switch prog {
	case "mean":
		if wholeRange {
			// Nothing is clamped, and blocks differ in size by at most
			// one row, so the average of block means is within
			// (ℓ/n)·(w/2) of the mean, whatever the partition.
			dev := float64(blocks)/float64(c.n)*w/2 + 1e-9*w
			return c.mean - dev, c.mean + dev
		}
		dev := w * hoeffding(m, blocks, pSampling, 2)
		return c.mean - dev, c.mean + dev
	case "median":
		// A block median above the (1/2+δ) quantile needs half the block
		// drawn from the top (1/2-δ) of the data.
		delta := hoeffding(m, blocks, pSampling, 2)
		return c.quantile(0.5 - delta), c.quantile(0.5 + delta)
	case "variance":
		// var_B = mean_B((x-μ)²) - (mean_B(x)-μ)²; bound both terms.
		h := hoeffding(m, blocks, pSampling, 4)
		sq := c.maxSqDev * h
		dm := w * h
		return c.variance - sq - dm*dm, c.variance + sq
	}
	return math.Inf(-1), math.Inf(1)
}

// gate checks every answer and the books at the end of a phase.
type gate struct {
	col      column
	failures []string
	nFailed  int
}

func (g *gate) fail(format string, args ...any) {
	g.nFailed++
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// checkAnswers applies the per-answer checks; an error or a refusal fails
// too.
func (g *gate) checkAnswers(answers []answer) {
	releases := map[int][][]float64{}
	for i := range answers {
		a := &answers[i]
		if a.ok() && !a.cacheHit {
			releases[a.q.key] = append(releases[a.q.key], a.output)
		}
	}
	for i := range answers {
		if msg := g.checkAnswer(&answers[i], releases); msg != "" {
			g.fail("query %d (key %d): %s", answers[i].qid, answers[i].q.key, msg)
		}
	}
}

func (g *gate) checkAnswer(a *answer, releases map[int][][]float64) string {
	switch {
	case a.refused:
		return fmt.Sprintf("refused: %v", a.err)
	case !a.ok():
		return fmt.Sprintf("error: %v", a.err)
	case a.failed != 0:
		return fmt.Sprintf("%d substituted blocks", a.failed)
	case len(a.output) != 1 || !a.hasRange || a.numBlocks < 1:
		return fmt.Sprintf("malformed answer: %d outputs, %d blocks", len(a.output), a.numBlocks)
	case a.cacheHit && a.charged != 0:
		return fmt.Sprintf("cache hit charged ε=%v", a.charged)
	case !a.cacheHit && a.charged != a.q.req.Epsilon:
		return fmt.Sprintf("charged ε=%v for a request of ε=%v", a.charged, a.q.req.Epsilon)
	}
	if a.cacheHit && !sameRelease(a.output, releases[a.q.key]) {
		return "cache hit is not bit-identical to a charged release of the same query"
	}
	lo, hi, tol := g.bounds(a)
	out := a.output[0]
	if !(out >= lo-tol && out <= hi+tol) {
		return fmt.Sprintf("output %v outside [%v, %v] ± %v", out, lo, hi, tol)
	}
	return ""
}

func sameRelease(out []float64, releases [][]float64) bool {
	for _, r := range releases {
		if len(r) == len(out) && math.Float64bits(r[0]) == math.Float64bits(out[0]) {
			return true
		}
	}
	return false
}

// bounds returns the interval the noiseless aggregate must lie in and the
// Laplace tolerance around it. The aggregate averages block outputs
// clamped to the effective range, so it lies within the clamped block
// interval. The noise is Laplace with the public scale
// b = width/(ℓ·ε_agg) (γ = 1; ε_agg = ε tight, ε/2 loose, one output
// dimension), and P(|Lap(b)| > t) = exp(-t/b).
func (g *gate) bounds(a *answer) (lo, hi, tol float64) {
	r := a.effRange
	blocks := a.numBlocks
	m := g.col.n / blocks
	whole := r.Lo <= g.col.min && r.Hi >= g.col.max
	L, U := g.col.blockInterval(a.q.prog, m, blocks, whole)
	lo, hi = mathutil.Clamp(L, r.Lo, r.Hi), mathutil.Clamp(U, r.Lo, r.Hi)
	epsAgg := a.q.req.Epsilon
	if a.q.req.Mode == "loose" {
		epsAgg /= 2
	}
	b := (r.Hi - r.Lo) / (float64(blocks) * epsAgg)
	return lo, hi, b * math.Log(1/pNoise)
}

// checkBooks runs the end-of-phase checks: the remaining budget equals the
// total less every charge the clients saw, and recovering the closed
// ledger reports the same spent ε. It shuts the deployment down.
func (g *gate) checkBooks(d *deployment, charged float64) {
	remaining, err := d.remaining()
	if err != nil {
		g.fail("reading remaining budget: %v", err)
	} else if want := datasetBudget - charged; math.Abs(remaining-want) > booksTolerance {
		g.fail("remaining budget %v, want total %v - charged %v = %v", remaining, datasetBudget, charged, want)
	}
	if err := d.shutdown(); err != nil {
		g.fail("closing the ledger: %v", err)
		return
	}
	rec, err := ledger.Recover(d.ledgerDir(), nil)
	if err != nil {
		g.fail("recovering the ledger: %v", err)
		return
	}
	if spent := rec.Datasets[d.wl.dataset].Spent; math.Abs(spent-charged) > booksTolerance {
		g.fail("recovered ledger spent %v, clients were charged %v", spent, charged)
	}
}

// charged sums the ε the clients were charged over a phase, the set-up
// query and the warm-up load included.
func charged(d *deployment, ph *phase) float64 {
	sum := d.warmCharged
	for _, as := range [][]answer{ph.warmup, ph.answers} {
		for i := range as {
			sum += as[i].charged
		}
	}
	return sum
}
