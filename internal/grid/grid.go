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

// Fill sets every element of buffer b to v.
func (g *Grid) Fill(b int, v float64) {
	buf := g.buf[b&1]
	for i := range buf {
		buf[i] = v
	}
}

// FillBoth sets every element of both buffers to v.
func (g *Grid) FillBoth(v float64) {
	g.Fill(0, v)
	g.Fill(1, v)
}

// FillFunc initializes both buffers identically from f(pt). Both buffers
// must agree initially so that the fixed boundary ring reads the same from
// either parity.
func (g *Grid) FillFunc(f func(pt []int) float64) {
	pt := make([]int, len(g.dims))
	for i := 0; i < g.n; i++ {
		v := f(g.Coords(i, pt))
		g.buf[0][i] = v
		g.buf[1][i] = v
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
