// Package dataset implements GUPT's dataset manager: an in-memory table
// model for multi-dimensional real-valued records, CSV import/export, a
// concurrency-safe registry that owns each dataset's cumulative privacy
// budget, and the aging-of-sensitivity model (paper §3.3) that exposes an
// aged, no-longer-sensitive sample of each dataset for parameter tuning.
package dataset

import (
	"errors"
	"fmt"
	"sync"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// ErrDimensionMismatch is returned when a row's width differs from the
// table's.
var ErrDimensionMismatch = errors.New("dataset: row dimension mismatch")

// errSealed is returned by Append once the table's slab has been shared.
var errSealed = errors.New("dataset: append to a table whose rows have been shared")

// Table is an immutable-after-build collection of k-dimensional real-valued
// records, the unit of data that GUPT computations run against. A table may
// carry optional column names and per-column attribute ranges supplied by
// the data owner.
//
// The records live in one row-major slab: row i is data[i*dims:(i+1)*dims].
// There is no per-row heap object: a table of any size is a constant
// number of them.
type Table struct {
	cols   []string
	dims   int        // row width: len(cols) until the first row fixes it
	n      int        // number of rows
	data   []float64  // n*dims values, row-major
	ranges []dp.Range // nil if the owner supplied no attribute ranges

	sealOnce sync.Once
	sealed   bool // set by seal: the slab is shared and Append refuses
	viewOnce sync.Once
	view     []mathutil.Vec // built by View; set once, then only read
}

// New creates a table with the given column names. Rows are added with
// Append. A nil or empty cols is allowed for anonymous columns once the
// first row fixes the dimensionality.
func New(cols []string) *Table {
	return &Table{cols: append([]string(nil), cols...), dims: len(cols)}
}

// FromRows builds a table directly from rows, which must be non-empty and
// rectangular. The rows are copied.
func FromRows(cols []string, rows []mathutil.Vec) (*Table, error) {
	t := New(cols)
	if len(rows) > 0 {
		t.data = make([]float64, 0, len(rows)*len(rows[0]))
	}
	for i, r := range rows {
		if err := t.Append(r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return t, nil
}

// Append adds a copy of row to the table. All rows must share one width,
// and if column names were supplied the width must match them. A table
// whose Matrix or View has been taken is sealed and refuses further rows.
func (t *Table) Append(row mathutil.Vec) error {
	if err := t.checkWidth(len(row)); err != nil {
		return err
	}
	t.data = append(t.data, row...)
	t.n++
	return nil
}

// checkWidth validates the width of the next row and, for the first row of
// an anonymous table, fixes the table's width.
func (t *Table) checkWidth(w int) error {
	if t.sealed {
		return errSealed
	}
	if len(t.cols) > 0 && w != len(t.cols) {
		return fmt.Errorf("%w: row has %d values, table has %d columns", ErrDimensionMismatch, w, len(t.cols))
	}
	if t.n > 0 && w != t.dims {
		return fmt.Errorf("%w: row has %d values, table rows have %d", ErrDimensionMismatch, w, t.dims)
	}
	t.dims = w
	return nil
}

// fit drops any append slack from the slab, so a built table holds exactly
// n*dims values. A no-op on an exactly sized slab.
func (t *Table) fit() {
	if cap(t.data) != len(t.data) {
		exact := make([]float64, len(t.data))
		copy(exact, t.data)
		t.data = exact
	}
}

// seal fits the slab and makes Append refuse from then on, so the slab a
// Matrix or View shares never changes. It runs once.
func (t *Table) seal() {
	t.sealOnce.Do(func() {
		t.fit()
		t.sealed = true
	})
}

// row returns record i aliasing the slab, capped at its own width so an
// append to it reallocates instead of overwriting record i+1.
func (t *Table) row(i int) mathutil.Vec {
	lo, hi := i*t.dims, (i+1)*t.dims
	return t.data[lo:hi:hi]
}

// rowsOver returns n capped row headers over a row-major slab of width
// dims.
func rowsOver(data []float64, n, dims int) []mathutil.Vec {
	out := make([]mathutil.Vec, n)
	for i := range out {
		lo, hi := i*dims, (i+1)*dims
		out[i] = data[lo:hi:hi]
	}
	return out
}

// NumRows returns the number of records.
func (t *Table) NumRows() int { return t.n }

// Dims returns the record dimensionality, or 0 for an empty table with no
// declared columns.
func (t *Table) Dims() int {
	if t.n > 0 {
		return t.dims
	}
	return len(t.cols)
}

// Columns returns a copy of the column names (possibly empty).
func (t *Table) Columns() []string { return append([]string(nil), t.cols...) }

// Row returns a copy of record i.
func (t *Table) Row(i int) mathutil.Vec { return t.row(i).Clone() }

// Rows returns a deep copy of all records: one fresh slab with capped row
// headers over it. The caller may mutate the copy freely.
func (t *Table) Rows() []mathutil.Vec {
	return rowsOver(append([]float64(nil), t.data...), t.n, t.dims)
}

// Matrix returns the table's records as a shared, read-only matrix over
// the table's own slab. It allocates nothing and builds no row headers;
// the query paths hand it to the engine, which passes blocks on as row
// indices. It seals the table: Append fails afterwards.
//
// Nothing may write through the matrix. Chambers read it only to gather a
// private copy of each block before an untrusted program sees it.
func (t *Table) Matrix() mathutil.Matrix {
	t.seal()
	return mathutil.Matrix{Data: t.data, Width: t.dims}
}

// View returns the table's records as a shared, read-only view: row i
// aliases the table's slab, capped at its own width. The view is built on
// the first call and returned as-is by every later one. It seals the
// table: Append fails afterwards. The query paths use Matrix instead,
// which costs no header per row.
//
// Nothing may write through the view.
func (t *Table) View() []mathutil.Vec {
	t.viewOnce.Do(func() {
		t.seal()
		t.view = rowsOver(t.data, t.n, t.dims)
	})
	return t.view
}

// Column returns a copy of column j across all records.
func (t *Table) Column(j int) []float64 {
	out := make([]float64, t.n)
	for i := range out {
		out[i] = t.data[i*t.dims+j]
	}
	return out
}

// Subset returns a new table containing copies of the records at the given
// indices, in order. Indices must be valid.
func (t *Table) Subset(indices []int) *Table {
	sub := New(t.cols)
	sub.ranges = append([]dp.Range(nil), t.ranges...)
	sub.dims, sub.n = t.dims, len(indices)
	sub.data = make([]float64, len(indices)*t.dims)
	for k, i := range indices {
		copy(sub.data[k*t.dims:], t.row(i))
	}
	return sub
}

// SetRanges attaches per-column attribute ranges (the data owner's public
// input bounds). The slice length must equal the table dimensionality.
func (t *Table) SetRanges(ranges []dp.Range) error {
	if len(ranges) != t.Dims() {
		return fmt.Errorf("dataset: %d ranges for %d columns", len(ranges), t.Dims())
	}
	for i, r := range ranges {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
	}
	t.ranges = append([]dp.Range(nil), ranges...)
	return nil
}

// Ranges returns a copy of the attribute ranges, or nil if none were set.
func (t *Table) Ranges() []dp.Range {
	if t.ranges == nil {
		return nil
	}
	return append([]dp.Range(nil), t.ranges...)
}

// Split deterministically partitions the table's records into two new
// tables: the first receives frac of the rows (rounded down), chosen
// uniformly at random from rng, and the second receives the rest. GUPT uses
// this for the aging model: the first part plays the aged, non-private
// sample.
func (t *Table) Split(rng *mathutil.RNG, frac float64) (*Table, *Table) {
	frac = mathutil.Clamp(frac, 0, 1)
	n := t.n
	cut := int(frac * float64(n))
	perm := rng.Perm(n)
	return t.Subset(perm[:cut]), t.Subset(perm[cut:])
}
