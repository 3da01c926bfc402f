package grid

import (
	"fmt"
	"math"
)

// DefaultPageSize is the number of float64 elements per ownership page.
// 512 elements × 8 bytes = 4 KiB, the usual OS page size.
const DefaultPageSize = 512

// Grid is an N-dimensional double-buffered field of float64 values stored in
// flat row-major order: the last dimension is unit-stride, matching the
// paper's convention that the unit-stride dimension is never cut by the
// domain decomposition.
//
// The two buffers implement Jacobi-style two-copy updates: a stencil at
// timestep t reads buffer t%2 and writes buffer (t+1)%2.
type Grid struct {
	dims    []int
	strides []int
	n       int
	buf     [2][]float64

	pageSize  int
	pageOwner []int32 // NUMA node that "first touched" each page; -1 unknown
}

// New allocates a grid with the given dimension sizes and the default
// ownership page size. All elements start at zero and all pages unowned.
func New(dims []int) *Grid {
	return NewWithPageSize(dims, DefaultPageSize)
}

// NewWithPageSize allocates a grid with an explicit ownership page size in
// elements. pageSize must be positive.
func NewWithPageSize(dims []int, pageSize int) *Grid {
	if len(dims) == 0 {
		panic("grid: New needs at least one dimension")
	}
	if pageSize <= 0 {
		panic("grid: page size must be positive")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("grid: non-positive dimension %v", dims))
		}
		if n > math.MaxInt/d {
			panic(fmt.Sprintf("grid: dimensions %v overflow", dims))
		}
		n *= d
	}
	g := &Grid{
		dims:     append([]int(nil), dims...),
		strides:  make([]int, len(dims)),
		n:        n,
		pageSize: pageSize,
	}
	s := 1
	for k := len(dims) - 1; k >= 0; k-- {
		g.strides[k] = s
		s *= dims[k]
	}
	g.buf[0] = make([]float64, n)
	g.buf[1] = make([]float64, n)
	g.pageOwner = make([]int32, (n+pageSize-1)/pageSize)
	for i := range g.pageOwner {
		g.pageOwner[i] = -1
	}
	return g
}

// NumDims returns the number of spatial dimensions.
func (g *Grid) NumDims() int { return len(g.dims) }

// Dims returns a copy of the dimension sizes.
func (g *Grid) Dims() []int { return append([]int(nil), g.dims...) }

// Dim returns the size of dimension k.
func (g *Grid) Dim(k int) int { return g.dims[k] }

// Len returns the total number of elements in one buffer.
func (g *Grid) Len() int { return g.n }

// Stride returns the element stride of dimension k.
func (g *Grid) Stride(k int) int { return g.strides[k] }

// Bounds returns the box [0,dims).
func (g *Grid) Bounds() Box { return BoxOf(g.dims) }

// Interior returns the box of updatable points for a stencil of order s:
// the bounds shrunk by s on every side. The surrounding ring of width s is
// the fixed Dirichlet boundary.
func (g *Grid) Interior(s int) Box { return g.Bounds().Grow(-s) }

// Index returns the flat offset of the point pt.
func (g *Grid) Index(pt []int) int {
	idx := 0
	for k, c := range pt {
		idx += c * g.strides[k]
	}
	return idx
}

// Coords writes the coordinates of flat offset idx into out and returns it.
// If out is nil a new slice is allocated.
func (g *Grid) Coords(idx int, out []int) []int {
	if out == nil {
		out = make([]int, len(g.dims))
	}
	for k := 0; k < len(g.dims); k++ {
		out[k] = idx / g.strides[k]
		idx %= g.strides[k]
	}
	return out
}

// Buf returns the backing slice of buffer b (0 or 1).
func (g *Grid) Buf(b int) []float64 { return g.buf[b&1] }

// At returns the value at pt in buffer b.
func (g *Grid) At(b int, pt []int) float64 { return g.buf[b&1][g.Index(pt)] }

// Set stores v at pt in buffer b.
func (g *Grid) Set(b int, pt []int, v float64) { g.buf[b&1][g.Index(pt)] = v }

// FillFunc initializes both buffers identically from f(pt), calling f as
// Tabulate does over the whole grid. Both buffers must agree initially so
// that the fixed boundary ring reads the same from either parity.
func (g *Grid) FillFunc(f func(pt []int) float64) { g.FillFuncIn(g.Bounds(), f) }

// FillFuncIn is FillFunc over the box b alone: it calls f once per cell
// of b in row-major order and copies each row into buffer 1 once it is
// set in buffer 0.
func (g *Grid) FillFuncIn(b Box, f func(pt []int) float64) { g.FillRowsIn(b, g.cells(f)) }

// FillRowsIn is TabulateRows over the box b into buffer 0, each row then
// copied into buffer 1, so both buffers of b agree.
func (g *Grid) FillRowsIn(b Box, f func(pt []int, row []float64)) {
	g.tabulateRows(g.buf[0], g.buf[1], b, f)
}

// Tabulate sets dst[i] = f(pt) for every cell of the box b, pt holding the
// cell's coordinates, and calls f in flat-offset (row-major) order. dst
// must have the grid's length. The walk keeps its position apart from pt
// and copies it in before every call, so f may change pt freely.
func (g *Grid) Tabulate(dst []float64, b Box, f func(pt []int) float64) {
	g.TabulateRows(dst, b, g.cells(f))
}

// cells adapts a per-cell f to TabulateRows: the returned function sets
// every cell of a row from f, copying the row start into pt before every
// call. It owns that pt, so each walk needs its own adapter.
func (g *Grid) cells(f func(pt []int) float64) func(start []int, row []float64) {
	last := len(g.dims) - 1
	pt := make([]int, len(g.dims))
	return func(start []int, row []float64) {
		c0 := start[last]
		for i := range row {
			// A loop, not copy: a memmove call per cell made the whole walk
			// about twice as slow.
			for k, c := range start {
				pt[k] = c
			}
			pt[last] = c0 + i
			row[i] = f(pt)
		}
	}
}

// TabulateRows calls f once per unit-stride run of the box b in dst, in
// row-major order, to fill that run: pt holds the coordinates of the
// run's first cell (its last coordinate is b's low bound in the
// unit-stride dimension, 0 for a whole row), and row is the run's cells,
// its capacity clipped to the run. dst must have the grid's length. The
// walk keeps its position apart from pt and copies it in before every
// call, so f may change pt freely.
func (g *Grid) TabulateRows(dst []float64, b Box, f func(pt []int, row []float64)) {
	g.tabulateRows(dst, nil, b, f)
}

// tabulateRows is TabulateRows that also copies each run, once f has set
// it, into mirror when mirror is not nil. Its own odometer loop, not
// ForEachRow's callback, keeps a served job's fill as cheap per row as a
// whole-grid walk.
func (g *Grid) tabulateRows(dst, mirror []float64, b Box, f func(pt []int, row []float64)) {
	if len(dst) != g.n {
		panic(fmt.Sprintf("grid: Tabulate into %d cells, grid has %d", len(dst), g.n))
	}
	if b.Empty() {
		return
	}
	nd := len(g.dims)
	n := b.Hi[nd-1] - b.Lo[nd-1]
	at := append([]int(nil), b.Lo...)
	pt := make([]int, nd)
	for {
		off := g.Index(at)
		copy(pt, at)
		row := dst[off : off+n : off+n]
		f(pt, row)
		if mirror != nil {
			copy(mirror[off:off+n], row)
		}
		// Advance the odometer over the outer dimensions, the innermost
		// fastest.
		k := nd - 2
		for ; k >= 0; k-- {
			if at[k]++; at[k] < b.Hi[k] {
				break
			}
			at[k] = b.Lo[k]
		}
		if k < 0 {
			return
		}
	}
}

// ForEachRow calls fn once for every unit-stride run of the box b: fn
// receives the flat offset of the run start, the run length, and the
// coordinates of the run start (valid only during the call). Empty boxes
// produce no calls.
func (g *Grid) ForEachRow(b Box, fn func(offset, length int, pt []int)) {
	if b.Empty() {
		return
	}
	nd := len(g.dims)
	if nd != b.NumDims() {
		panic("grid: ForEachRow dimension mismatch")
	}
	pt := make([]int, nd)
	copy(pt, b.Lo)
	length := b.Hi[nd-1] - b.Lo[nd-1]
	for {
		g1 := g.Index(pt)
		fn(g1, length, pt)
		// Advance the second-to-last dimension onward (odometer).
		k := nd - 2
		for ; k >= 0; k-- {
			pt[k]++
			if pt[k] < b.Hi[k] {
				break
			}
			pt[k] = b.Lo[k]
		}
		if k < 0 {
			return
		}
	}
}

// Clone returns a deep copy of the grid, including page ownership.
func (g *Grid) Clone() *Grid {
	c := NewWithPageSize(g.dims, g.pageSize)
	copy(c.buf[0], g.buf[0])
	copy(c.buf[1], g.buf[1])
	copy(c.pageOwner, g.pageOwner)
	return c
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// buffer b of g and buffer ob of o. The grids must have identical shape.
func (g *Grid) MaxAbsDiff(b int, o *Grid, ob int) float64 {
	if g.n != o.n {
		panic("grid: MaxAbsDiff shape mismatch")
	}
	var worst float64
	gb, obuf := g.buf[b&1], o.buf[ob&1]
	for i := range gb {
		d := math.Abs(gb[i] - obuf[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}
