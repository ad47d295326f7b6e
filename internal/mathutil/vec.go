// Package mathutil provides the small numeric substrate shared by the rest
// of GUPT: dense vector arithmetic, summary statistics, quantiles and a
// deterministic, splittable random number source.
//
// Everything here is ordinary floating-point math; nothing in this package
// is privacy-aware. The differential-privacy mechanisms built on top of it
// live in internal/dp.
package mathutil

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64 values.
type Vec []float64

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Gather deep-copies rows into one fresh contiguous slab and returns a row
// header over it for each input row. Each returned row is capped at its own
// length, so appending to row i reallocates instead of overwriting row i+1.
// It allocates twice (slab and headers) however many rows there are.
func Gather(rows []Vec) []Vec {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	slab := make([]float64, total)
	out := make([]Vec, len(rows))
	off := 0
	for i, r := range rows {
		end := off + copy(slab[off:], r)
		out[i] = slab[off:end:end]
		off = end
	}
	return out
}

// Matrix is a row-major table of records in one contiguous slab: row i is
// Data[i*Width:(i+1)*Width]. Blocks are handed around as row indices into
// it, so a block costs no per-row header until a consumer asks for one.
type Matrix struct {
	Data  []float64
	Width int
}

// PackRows copies rows into one fresh Matrix. Every row must have the
// width of the first; a ragged input is an error, not a panic.
func PackRows(rows []Vec) (Matrix, error) {
	if len(rows) == 0 {
		return Matrix{}, nil
	}
	w := len(rows[0])
	data := make([]float64, 0, len(rows)*w)
	for i, r := range rows {
		if len(r) != w {
			return Matrix{}, fmt.Errorf("mathutil: row %d has %d values, row 0 has %d", i, len(r), w)
		}
		data = append(data, r...)
	}
	return Matrix{Data: data, Width: w}, nil
}

// NumRows returns the number of records; a zero-width matrix has none.
func (m Matrix) NumRows() int {
	if m.Width == 0 {
		return 0
	}
	return len(m.Data) / m.Width
}

// Row returns record i aliasing the slab, capped at its own width so an
// append to it reallocates instead of overwriting record i+1.
func (m Matrix) Row(i int) Vec {
	lo, hi := i*m.Width, (i+1)*m.Width
	return m.Data[lo:hi:hi]
}

// View returns capped row headers aliasing the records at idx, in order.
// Nothing may write through them: they are the matrix's own storage.
func (m Matrix) View(idx []int) []Vec {
	out := make([]Vec, len(idx))
	for j, r := range idx {
		out[j] = m.Row(r)
	}
	return out
}

// Gather copies the records at idx, in order, into one fresh slab and
// returns capped row headers over it, like the package-level Gather. It
// reads the indices and writes the slab sequentially, one element at a
// time: rows are a few values wide, too short for a per-row copy call to
// pay for itself. It allocates twice however many rows there are.
func (m Matrix) Gather(idx []int) []Vec {
	w := m.Width
	slab := make([]float64, len(idx)*w)
	off := 0
	for _, r := range idx {
		for _, v := range m.Data[r*w : r*w+w] {
			slab[off] = v
			off++
		}
	}
	out := make([]Vec, len(idx))
	for j := range out {
		lo, hi := j*w, j*w+w
		out[j] = slab[lo:hi:hi]
	}
	return out
}

// Add returns v + w. It panics if the lengths differ; mismatched dimensions
// are a programming error, not a data error.
func (v Vec) Add(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// AddInPlace adds w into v element-wise.
func (v Vec) AddInPlace(w Vec) {
	mustSameLen(len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	mustSameLen(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns v multiplied by the scalar c.
func (v Vec) Scale(c float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] * c
	}
	return out
}

// ScaleInPlace multiplies v by the scalar c.
func (v Vec) ScaleInPlace(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	return math.Sqrt(v.Dot(v))
}

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 {
	return math.Sqrt(v.Dist2(w))
}

// Equal reports whether v and w have the same length and every component
// differs by at most tol.
func (v Vec) Equal(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Clamp returns a copy of v with every component restricted to [lo, hi].
func (v Vec) Clamp(lo, hi float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = Clamp(v[i], lo, hi)
	}
	return out
}

// SumClamped returns the sum of Clamp(x, lo, hi) over xs, accumulating in
// index order so the result is bit-identical to the scalar clamp-then-add
// loop it replaces. One pass over a contiguous slice with no allocation:
// this is the engine's hot clamp+accumulate over a block-output column.
func SumClamped(xs []float64, lo, hi float64) float64 {
	var sum float64
	for _, x := range xs {
		// Inlined Clamp, branch order identical to Clamp below.
		switch {
		case math.IsNaN(x):
			x = lo
		case x < lo:
			x = lo
		case x > hi:
			x = hi
		}
		sum += x
	}
	return sum
}

// Clamp restricts x to the closed interval [lo, hi]. NaN inputs are mapped
// to lo so that a misbehaving computation can never smuggle NaN through an
// aggregation.
func Clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MeanVecs returns the element-wise mean of the given vectors, which must
// all share one length. It panics on an empty input.
func MeanVecs(vs []Vec) Vec {
	if len(vs) == 0 {
		panic("mathutil: MeanVecs of empty slice")
	}
	out := make(Vec, len(vs[0]))
	for _, v := range vs {
		out.AddInPlace(v)
	}
	out.ScaleInPlace(1 / float64(len(vs)))
	return out
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mathutil: dimension mismatch %d != %d", a, b))
	}
}
