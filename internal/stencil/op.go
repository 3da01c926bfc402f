package stencil

import (
	"fmt"
	"slices"

	"nustencil/internal/grid"
	"nustencil/internal/vec"
)

// Op binds a stencil to a grid (and coefficients, for banded stencils) and
// applies it to space-time regions. It is the single-threaded kernel that
// every tiling scheme invokes on the cells a tile covers; the schemes differ
// only in which boxes they pass at which timesteps, on which worker.
//
// An Op is safe for concurrent ApplyBox calls on disjoint boxes: it keeps no
// mutable state beyond the grid buffers.
//
// The kernels are written for the memory-bound regime the paper measures:
// rows are walked with grid.RowIter (no per-row closure dispatch, no
// allocation), every row a kernel touches is sliced to the row's extent
// before its loop runs, and the stars, constant and banded, run as AVX2
// assembly where the CPU has it (internal/vec): on 3D grids a whole box of
// rows per call, elsewhere one row per call.
type Op struct {
	St *Stencil
	G  *grid.Grid

	offs   []int // flat offset per stencil point, from grid strides
	coeffs []float64
	vc     *Coefficients
	source []float64 // optional per-cell additive term

	// The star's reach below a cell, −min(offs), and the offsets shifted
	// up by it, all non-negative, as vec.StarBox and vec.BandBox take them.
	reach   int
	shifted []int

	update grid.Box // cached UpdateRegion, so kernels clip without allocating
	dims   []int    // cached grid dimensions
	box3   bool     // 3D star: ApplyBox runs whole planes per call
	is7pt  bool     // 3D first-order star with constant coefficients

	periodic bool
	points   [][]int // coordinate offsets, for the wrapped path
}

// SetPeriodic switches the kernel between Dirichlet boundaries (the
// default: a fixed ring of width Order, updates clipped to the interior)
// and periodic boundaries (every cell updates, neighbour indices wrap).
// With periodic boundaries the cells within reach of a seam take a slower
// modular-indexing path; the other cells keep the fast kernels.
func (op *Op) SetPeriodic(periodic bool) {
	op.periodic = periodic
	if periodic && op.points == nil {
		op.points = op.St.Points()
	}
	if periodic {
		op.update = op.G.Bounds()
	} else {
		op.update = op.G.Interior(op.St.Order)
	}
}

// Periodic reports the boundary mode.
func (op *Op) Periodic() bool { return op.periodic }

// UpdateRegion returns the box of cells ApplyBox may update: the grid
// interior for Dirichlet boundaries, the whole grid for periodic ones.
func (op *Op) UpdateRegion() grid.Box {
	if op.periodic {
		return op.G.Bounds()
	}
	return op.G.Interior(op.St.Order)
}

// SetSource attaches a per-cell additive term g: every update becomes
// dst = Σ cᵢ·src(+offᵢ) + g. This turns the weighted-Jacobi iteration for a
// linear system A·u = f into a stencil computation (g = ω·D⁻¹·f), so
// inhomogeneous problems — sources, sinks, multigrid correction equations —
// run through the same tiling schemes. src must have grid length; nil
// removes the term.
func (op *Op) SetSource(src []float64) {
	if src != nil && len(src) != op.G.Len() {
		panic(fmt.Sprintf("stencil: source length %d, grid %d", len(src), op.G.Len()))
	}
	op.source = src
}

// NewOp builds the kernel for a constant-coefficient stencil on g.
func NewOp(s *Stencil, g *grid.Grid) *Op {
	if s.Kind != Constant {
		panic("stencil: NewOp requires a Constant stencil; use NewBandedOp")
	}
	if s.NumDims != g.NumDims() {
		panic(fmt.Sprintf("stencil: %dD stencil on %dD grid", s.NumDims, g.NumDims()))
	}
	op := &Op{St: s, G: g, offs: flatOffsets(s, g), coeffs: s.Coeffs}
	op.finish()
	return op
}

// NewBandedOp builds the kernel for a variable-coefficient stencil on g with
// per-cell coefficients c.
func NewBandedOp(s *Stencil, g *grid.Grid, c *Coefficients) *Op {
	if s.Kind != Variable {
		panic("stencil: NewBandedOp requires a Variable stencil")
	}
	if s.NumDims != g.NumDims() {
		panic(fmt.Sprintf("stencil: %dD stencil on %dD grid", s.NumDims, g.NumDims()))
	}
	if c == nil || c.NumPoints() != s.NumPoints() {
		panic("stencil: coefficients do not match stencil")
	}
	op := &Op{St: s, G: g, offs: flatOffsets(s, g), vc: c}
	op.finish()
	return op
}

// finish caches the per-Op invariants the hot kernels rely on.
func (op *Op) finish() {
	op.update = op.G.Interior(op.St.Order)
	op.dims = op.G.Dims()
	op.is7pt = op.vc == nil && len(op.offs) == 7 && op.G.NumDims() == 3 &&
		op.offs[5] == -1 && op.offs[6] == 1
	op.box3 = op.G.NumDims() == 3
	op.reach = -slices.Min(op.offs)
	op.shifted = make([]int, len(op.offs))
	for p, o := range op.offs {
		op.shifted[p] = o + op.reach
	}
}

func flatOffsets(s *Stencil, g *grid.Grid) []int {
	pts := s.Points()
	offs := make([]int, len(pts))
	for i, p := range pts {
		o := 0
		for k, c := range p {
			o += c * g.Stride(k)
		}
		offs[i] = o
	}
	return offs
}

// ApplyBox updates every point of box b for one timestep t: it reads buffer
// t%2 and writes buffer (t+1)%2. It clips b to UpdateRegion first, so it
// never writes the Dirichlet boundary ring, and returns the number of point
// updates performed.
func (op *Op) ApplyBox(b grid.Box, t int) int64 {
	src := op.G.Buf(t)
	dst := op.G.Buf(t + 1)
	switch {
	case op.G.NumDims() > grid.MaxRowDims:
		return op.applySlow(b, src, dst)
	case op.periodic:
		return op.applyPeriodic(b, src, dst)
	case op.box3:
		if n, ok := op.applyStar(b, src, dst); ok {
			return n
		}
	}
	var updates int64
	for it := op.G.RowsIn(b, op.update); it.Next(); {
		op.row(src, dst, it.Offset(), it.Length())
		updates += int64(it.Length())
	}
	return updates
}

// boxCells bounds the cells of one box routine call. The runtime cannot
// preempt assembly, so a call holds up a stop-the-world pause for its whole
// length; 1<<16 cells of the 7-point star take about 30 µs from cache, of
// an order-2 star about three times as long, of the banded 7-point star
// about 0.2 ms and of the banded order-2 star about 0.4 ms, still under a
// millisecond. A call covers whole planes, at least one, so only a plane
// larger than this makes a longer call.
const boxCells = 1 << 16

// applyStar runs a 3D star over b clipped to the update region, with one
// call per run of whole planes: vec.BandBox for a banded star,
// vec.Star7Box for the constant 7-point star and vec.StarBox for any other.
// It then adds the source term row by row. It returns false, having
// written nothing, without AVX2.
func (op *Op) applyStar(b grid.Box, src, dst []float64) (int64, bool) {
	if b.NumDims() != 3 {
		panic("stencil: ApplyBox dimension mismatch")
	}
	var lo, hi [3]int
	for k := range lo {
		lo[k] = max(b.Lo[k], op.update.Lo[k])
		hi[k] = min(b.Hi[k], op.update.Hi[k])
		if hi[k] <= lo[k] {
			return 0, true
		}
	}
	sy, sz := op.G.Stride(1), op.G.Stride(0)
	shape := vec.Box{N: hi[2] - lo[2], Rows: hi[1] - lo[1], SY: sy, SZ: sz}
	step := max(1, boxCells/(shape.N*shape.Rows))
	for z := lo[0]; z < hi[0]; z += step {
		shape.Planes = min(step, hi[0]-z)
		// The slices are the assembly's bounds checks: d spans exactly the
		// box, and s the box with the star's reach more on either side.
		off := z*sz + lo[1]*sy + lo[2]
		end := off + shape.Span()
		d, s := dst[off:end:end], src[off-op.reach:end+op.reach]
		var ran bool
		switch {
		case op.vc != nil:
			ran = vec.BandBox(d, s, &shape, op.shifted, op.vc.Data, off)
		case op.is7pt:
			ran = vec.Star7Box(d, s, &shape, (*[7]float64)(op.coeffs))
		default:
			ran = vec.StarBox(d, s, &shape, op.shifted, op.coeffs)
		}
		if !ran {
			return 0, false
		}
		if op.source == nil {
			continue
		}
		for p := 0; p < shape.Planes; p++ {
			for r := 0; r < shape.Rows; r++ {
				o := off + p*sz + r*sy
				op.addSource(dst[o:o+shape.N:o+shape.N], o)
			}
		}
	}
	return int64(shape.N) * int64(shape.Rows) * int64(hi[0]-lo[0]), true
}

// row updates the n unit-stride cells at flat offset off with the kernel
// that fits the stencil.
func (op *Op) row(src, dst []float64, off, n int) {
	switch {
	case op.vc != nil:
		op.rowBanded(src, dst, off, n)
	case op.is7pt:
		op.row7pt(src, dst, off, n)
	default:
		op.rowGeneric(src, dst, off, n)
	}
}

// The row kernels slice every row they read or write to the row's extent
// and let the internal/vec assembly compute the row as a box of one row.
// Each Go loop is also the reference its assembly routine matches bit for
// bit, and, without AVX2, the whole kernel. The loops sum in point order,
// like every other kernel here.

// Kernel names the row kernel ApplyBox runs: "avx2" when the rows go
// through the internal/vec assembly, "go" when the Go loops run alone: on
// a host without AVX2, and on periodic grids beyond grid.MaxRowDims,
// whose every cell takes the Go modular-indexing path. On other periodic
// grids the cells within Order of any seam take that path, and the other
// cells run the named kernel.
func (op *Op) Kernel() string {
	if op.periodic && op.G.NumDims() > grid.MaxRowDims {
		return "go"
	}
	return vec.Kernel()
}

// row7pt is the specialized 3D 7-point constant row kernel (the paper's
// model problem, equation (1)): 7 multiplications, 6 additions per update.
// It runs vec.Star7Box on a box of one row, or the Go loop without AVX2.
func (op *Op) row7pt(src, dst []float64, off, n int) {
	c := (*[7]float64)(op.coeffs)
	d := dst[off : off+n : off+n]
	o := op.offs // 0, −SZ, +SZ, −SY, +SY, −1, +1
	sz := o[2]
	if !vec.Star7Box(d, src[off-sz:off+n+sz], &vec.Box{N: n, Rows: 1, Planes: 1, SY: o[4], SZ: sz}, c) {
		s := [7][]float64{
			src[off : off+n],
			src[off+o[1]:][:n], src[off+o[2]:][:n],
			src[off+o[3]:][:n], src[off+o[4]:][:n],
			src[off-1 : off-1+n], src[off+1 : off+1+n],
		}
		star7(d, &s, c)
	}
	op.addSource(d, off)
}

// star7 sets d[i] = c[0]·s[0][i] + … + c[6]·s[6][i], the reference for
// vec.Star7Box. Every row is re-sliced to len(d), so the loop runs without
// bounds checks (verify with -gcflags=-d=ssa/check_bce).
func star7(d []float64, s *[7][]float64, c *[7]float64) {
	n := len(d)
	s0, s1, s2, s3 := s[0][:n], s[1][:n], s[2][:n], s[3][:n]
	s4, s5, s6 := s[4][:n], s[5][:n], s[6][:n]
	c0, c1, c2, c3, c4, c5, c6 := c[0], c[1], c[2], c[3], c[4], c[5], c[6]
	for i := range d {
		d[i] = c0*s0[i] +
			c1*s1[i] + c2*s2[i] +
			c3*s3[i] + c4*s4[i] +
			c5*s5[i] + c6*s6[i]
	}
}

// rowGeneric handles any dimension and order with constant coefficients.
// It runs vec.StarBox on a box of one row, or without AVX2 the Go loop
// star.
func (op *Op) rowGeneric(src, dst []float64, off, n int) {
	d := dst[off : off+n : off+n]
	s := src[off-op.reach : off+n+op.reach]
	if !vec.StarBox(d, s, &vec.Box{N: n, Rows: 1, Planes: 1, SY: 1, SZ: 1}, op.shifted, op.coeffs) {
		star(d, s, op.shifted, op.coeffs)
	}
	op.addSource(d, off)
}

// star sets d[i] = c[0]·s[i+o[0]] + c[1]·s[i+o[1]] + …, the reference for
// vec.StarBox on one row. It runs one point at a time, d = c₀·s₀ and then
// d += cₚ·sₚ for each further point, so every cell sums its points in
// point order.
func star(d, s []float64, o []int, c []float64) {
	mul(d, s[o[0]:][:len(d)], c[0])
	for p := 1; p < len(o); p++ {
		mulAdd(0, d, s[o[p]:][:len(d)], c[p])
	}
}

// addSource adds the source term, when there is one, to the row d at flat
// offset off. 1·g[i] is g[i] exactly, so MulAdd with a coefficient of 1
// adds it, as a sum ending in + g[i] would.
func (op *Op) addSource(d []float64, off int) {
	if g := op.source; g != nil {
		g = g[off : off+len(d)]
		mulAdd(vec.MulAdd(d, g, 1), d, g, 1)
	}
}

// mul sets d[i] = c·s[i].
func mul(d, s []float64, c float64) {
	s = s[:len(d)]
	for i := range d {
		d[i] = c * s[i]
	}
}

// mulAdd sets d[i] = d[i] + c·s[i] for i ≥ k (vec.MulAdd).
func mulAdd(k int, d, s []float64, c float64) {
	d = d[k:]
	s = s[k:][:len(d)]
	for i := range d {
		d[i] += c * s[i]
	}
}

// rowBanded handles variable coefficients: the banded matrix-vector product
// with temporal iteration. It runs vec.BandBox on a box of one row, or
// without AVX2 the Go loop band.
func (op *Op) rowBanded(src, dst []float64, off, n int) {
	d := dst[off : off+n : off+n]
	s := src[off-op.reach : off+n+op.reach]
	if !vec.BandBox(d, s, &vec.Box{N: n, Rows: 1, Planes: 1, SY: 1, SZ: 1}, op.shifted, op.vc.Data, off) {
		band(d, s, op.shifted, op.vc.Data, off)
	}
	op.addSource(d, off)
}

// band sets d[i] = w[0][at+i]·s[i+o[0]] + w[1][at+i]·s[i+o[1]] + …, summed
// in point order, the reference for vec.BandBox on one row.
func band(d, s []float64, o []int, w [][]float64, at int) {
	for i := range d {
		acc := w[0][at+i] * s[i+o[0]]
		for p := 1; p < len(o); p++ {
			acc += w[p][at+i] * s[i+o[p]]
		}
		d[i] = acc
	}
}

// applyPeriodic handles wrapped boundaries. A row whose other coordinates
// are all at least Order from their seams runs its middle, the cells at
// least Order from the unit-stride seams, through the row kernel, and only
// its ends through wrapCells; every other row runs wrapCells throughout. The
// coordinate scratch lives on the stack, reused across rows.
func (op *Op) applyPeriodic(b grid.Box, src, dst []float64) int64 {
	s := op.St.Order
	nd := op.G.NumDims()
	dims := op.dims
	last := nd - 1
	var ptArr [grid.MaxRowDims]int
	pt := ptArr[:nd]
	var updates int64
	for it := op.G.RowsIn(b, op.update); it.Next(); {
		off, n := it.Offset(), it.Length()
		updates += int64(n)
		it.Start(pt)
		x0, x1 := pt[last], pt[last]+n
		// [lo, hi) is the run of the row the row kernel takes, empty unless
		// the row is clear of every other seam.
		lo, hi := x1, x1
		free := true
		for k := 0; k < last && free; k++ {
			free = pt[k] >= s && pt[k] < dims[k]-s
		}
		if a, z := max(x0, s), min(x1, dims[last]-s); free && a < z {
			lo, hi = a, z
			op.row(src, dst, off+lo-x0, hi-lo)
		}
		op.wrapCells(src, dst, pt, off-x0, x0, lo)
		op.wrapCells(src, dst, pt, off-x0, hi, x1)
	}
	return updates
}

// wrapCells updates the cells from ≤ x < to of the row through pt, whose
// cell x sits at flat offset base+x, computing every neighbour's wrapped
// coordinates per point. It sets pt's last coordinate as it goes.
func (op *Op) wrapCells(src, dst []float64, pt []int, base, from, to int) {
	nd := len(pt)
	dims := op.dims
	for x := from; x < to; x++ {
		pt[nd-1] = x
		acc := 0.0
		centre := base + x
		for p, offc := range op.points {
			idx := 0
			for k := 0; k < nd; k++ {
				c := pt[k] + offc[k]
				if c < 0 {
					c += dims[k]
				} else if c >= dims[k] {
					c -= dims[k]
				}
				idx += c * op.G.Stride(k)
			}
			if op.vc != nil {
				acc += op.vc.Data[p][centre] * src[idx]
			} else {
				acc += op.coeffs[p] * src[idx]
			}
		}
		if op.source != nil {
			acc += op.source[centre]
		}
		dst[centre] = acc
	}
}

// applySlow is the closure-based fallback for grids beyond grid.MaxRowDims,
// where the allocation-free iterator does not apply. A Dirichlet row runs
// the row kernels; a periodic row runs the wrapped per-cell loop.
func (op *Op) applySlow(b grid.Box, src, dst []float64) int64 {
	bb := b.Intersect(op.UpdateRegion())
	if bb.Empty() {
		return 0
	}
	var updates int64
	last := op.G.NumDims() - 1
	pt := make([]int, last+1)
	op.G.ForEachRow(bb, func(off, length int, start []int) {
		updates += int64(length)
		if !op.periodic {
			op.row(src, dst, off, length)
			return
		}
		copy(pt, start)
		x0 := start[last]
		op.wrapCells(src, dst, pt, off-x0, x0, x0+length)
	})
	return updates
}
