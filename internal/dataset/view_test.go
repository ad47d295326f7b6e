package dataset

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gupt/internal/mathutil"
)

func seqTable(t *testing.T, n, dims int) *Table {
	t.Helper()
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = make(mathutil.Vec, dims)
		for j := range rows[i] {
			rows[i][j] = float64(i*dims + j)
		}
	}
	return mkTable(t, rows...)
}

// The view aliases the slab: rows are consecutive windows of one array,
// each capped at the row width so an append reallocates instead of
// spilling into the next row.
func TestViewSharesCappedRows(t *testing.T) {
	tbl := seqTable(t, 4, 3)
	v := tbl.View()
	if len(v) != 4 {
		t.Fatalf("view has %d rows, want 4", len(v))
	}
	for i, r := range v {
		if len(r) != 3 || cap(r) != 3 {
			t.Fatalf("row %d len/cap = %d/%d, want 3/3", i, len(r), cap(r))
		}
		if !r.Equal(tbl.Row(i), 0) {
			t.Fatalf("row %d = %v, want %v", i, r, tbl.Row(i))
		}
	}
	for i, r := range v {
		if &r[0] != &tbl.data[3*i] {
			t.Fatalf("view row %d is not a window of the slab", i)
		}
	}
	grown := append(v[0], -1)
	if v[1][0] != 3 || &grown[0] == &v[0][0] {
		t.Fatal("appending to a view row wrote into the slab")
	}
	if &tbl.View()[0][0] != &v[0][0] {
		t.Fatal("second View call rebuilt the view")
	}
}

// TestViewAllocationsAfterFirst pins View's per-query cost: after the first
// call builds it, taking the view allocates nothing.
func TestViewAllocationsAfterFirst(t *testing.T) {
	tbl := seqTable(t, 10000, 2)
	_ = tbl.View()
	var sink []mathutil.Vec
	if allocs := testing.AllocsPerRun(100, func() { sink = tbl.View() }); allocs != 0 {
		t.Fatalf("View allocates %.0f times after its first call, want 0", allocs)
	}
	_ = sink
}

// Taking the view seals the table: a later Append would reallocate the slab
// under the rows already handed out.
func TestAppendAfterViewRefused(t *testing.T) {
	tbl := seqTable(t, 2, 1)
	_ = tbl.View()
	if err := tbl.Append(mathutil.Vec{9}); !errors.Is(err, errSealed) {
		t.Fatalf("Append after View: err = %v, want errSealed", err)
	}
	if tbl.NumRows() != 2 || len(tbl.View()) != 2 {
		t.Fatal("refused Append changed the table")
	}
}

// Many goroutines racing to take the first view or matrix all get the
// same slab. Run under -race: the table is sealed and the view built
// lazily, then both are read concurrently.
func TestViewConcurrentFirstUse(t *testing.T) {
	tbl := seqTable(t, 1000, 2)
	views := make([][]mathutil.Vec, 8)
	mats := make([]mathutil.Matrix, 8)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(2)
		go func() {
			defer wg.Done()
			views[g] = tbl.View()
		}()
		go func() {
			defer wg.Done()
			mats[g] = tbl.Matrix()
		}()
	}
	wg.Wait()
	for g, v := range views {
		if len(v) != 1000 || &v[0][0] != &views[0][0][0] || v[999][1] != 1999 {
			t.Fatalf("goroutine %d got a different or wrong view", g)
		}
		if m := mats[g]; m.NumRows() != 1000 || &m.Data[0] != &v[0][0] || m.Row(999)[1] != 1999 {
			t.Fatalf("goroutine %d got a different or wrong matrix", g)
		}
	}
}

// The matrix is the table's own slab: no copy, no row headers, no
// allocation at all. Taking it seals the table like View does.
func TestMatrixSharesSlab(t *testing.T) {
	tbl := seqTable(t, 4, 3)
	var m mathutil.Matrix
	if allocs := testing.AllocsPerRun(10, func() { m = tbl.Matrix() }); allocs != 0 {
		t.Fatalf("Matrix allocates %.0f times, want 0", allocs)
	}
	if m.Width != 3 || m.NumRows() != 4 || &m.Data[0] != &tbl.data[0] || len(m.Data) != cap(m.Data) {
		t.Fatalf("matrix %d×%d (cap %d) is not the table's exact slab", m.NumRows(), m.Width, cap(m.Data))
	}
	if err := tbl.Append(mathutil.Vec{9, 9, 9}); !errors.Is(err, errSealed) {
		t.Fatalf("Append after Matrix: err = %v, want errSealed", err)
	}
}

// Built tables hold exactly rows×dims values: no append slack survives
// ReadCSV, Register or View.
func TestSlabExactSize(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, -i)
	}
	parsed, err := ReadCSV(strings.NewReader(sb.String()), true)
	if err != nil {
		t.Fatal(err)
	}
	appended := New([]string{"a", "b"})
	for i := 0; i < 1000; i++ {
		if err := appended.Append(mathutil.Vec{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	viewed := New(nil)
	for i := 0; i < 1000; i++ {
		if err := viewed.Append(mathutil.Vec{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewRegistry().Register("d", appended, RegisterOptions{TotalBudget: 1}); err != nil {
		t.Fatal(err)
	}
	_ = viewed.View()
	for name, tbl := range map[string]*Table{"ReadCSV": parsed, "Register": appended, "View": viewed} {
		if want := tbl.NumRows() * tbl.Dims(); len(tbl.data) != want || cap(tbl.data) != want {
			t.Errorf("%s: slab len/cap = %d/%d, want %d", name, len(tbl.data), cap(tbl.data), want)
		}
	}
	if parsed.Row(999)[1] != -999 {
		t.Errorf("parsed row 999 = %v", parsed.Row(999))
	}
}

// TestReadCSVAllocations pins ReadCSV's per-row cost. encoding/csv builds
// one string per record (its fields are substrings of it); ReadCSV adds
// nothing per row on top — the record is reused and values go straight
// into the slab — so 9,900 extra rows cost at most 9,900 extra
// allocations, plus the slab's logarithmic regrowth.
func TestReadCSVAllocations(t *testing.T) {
	csvOf := func(n int) string {
		var sb strings.Builder
		sb.WriteString("x,y,z\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%d.5,%d,-%d\n", i, i%7, i)
		}
		return sb.String()
	}
	allocs := func(n int) float64 {
		in := csvOf(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadCSV(strings.NewReader(in), true); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if perRow := (large - small) / 9900; perRow > 1.01 {
		t.Fatalf("ReadCSV allocates %.2f times per row, want at most the reader's 1 record string", perRow)
	}
}
