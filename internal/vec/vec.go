// Package vec holds the AVX2 assembly behind the stencil kernels and the
// peak-FLOPS loop, and the CPU probe that selects it once, when the program
// starts.
//
// Star7Box, StarBox and BandBox run a star over a whole box of rows, tails
// included, and report whether they ran: Star7Box the constant 7-point
// star, StarBox a constant star of any points and offsets, and BandBox a
// variable-coefficient (banded) star of any points and offsets. MulAdd
// computes a prefix of its output row d, a multiple of 4 cells, and returns
// the prefix length; the caller's Go loop finishes the row. A Go loop is
// also the reference every routine matches bit for bit. Without AVX2
// (another architecture, or a CPU or OS without it) no routine writes
// anything, and the Go loops do all the work.
//
// The routines multiply and add in the order of the Go expression they
// stand for, with one multiply per product and one add per sum: VMULPD and
// VADDPD four cells at a time, VMULSD and VADDSD for single cells. They
// never use FMA: a fused multiply-add rounds once where the Go loop rounds
// twice, so its results would differ in the last bit.
//
// The assembly does no bounds checks. MulAdd reads len(d) cells of s, and
// its callers slice each range to exactly len(d) before the call, so a bad
// row panics in Go before any assembly runs. The box routines check their
// shape against the lengths of d, s and the bands themselves, and panic on
// a mismatch. StarBox's and BandBox's d must overlap neither s nor a band:
// they write a row's last cells more than once and read their inputs
// throughout.
package vec

import "fmt"

// Kernel names the kernels in use: "avx2", or "go" when the Go loops run
// alone.
func Kernel() string {
	if hasAVX2 {
		return "avx2"
	}
	return "go"
}

// Box is the shape of a 3D box of cells for the box routines: Planes ×
// Rows rows of N cells, rows SY cells apart and planes SZ cells apart.
type Box struct {
	N, Rows, Planes int
	SY, SZ          int
}

// Star7Box runs the constant 7-point star over box b and reports whether it
// ran; without AVX2 it writes nothing and returns false.
//
// d starts at the box's first cell and s one plane earlier, SZ cells before
// it. Every cell d[j] of the box is set to
//
//	c[0]·s[j+SZ] + c[1]·s[j] + c[2]·s[j+2·SZ] + c[3]·s[j+SZ−SY] +
//	c[4]·s[j+SZ+SY] + c[5]·s[j+SZ−1] + c[6]·s[j+SZ+1],
//
// summed left to right: the centre, then the neighbours −SZ, +SZ, −SY, +SY,
// −1 and +1, the stencil package's point order. Cells between the rows and
// planes of the box are left as they are.
//
// The shape must have 1 ≤ SY ≤ SZ and N, Rows and Planes at least 1, and d
// and s must reach the box's last cell and that cell's +SZ neighbour:
// len(d) ≥ b.Span() and len(s) ≥ b.Span() + 2·SZ. Star7Box panics
// otherwise.
//
// The runtime cannot preempt the call, so callers should keep boxes small
// enough to finish in well under a millisecond.
func Star7Box(d, s []float64, b *Box, c *[7]float64) bool {
	if b.SZ > len(s)/2 || !b.fits(len(d), len(s), 2*b.SZ) {
		panic(fmt.Sprintf("vec: Star7Box shape %+v on %d and %d cells", *b, len(d), len(s)))
	}
	if !hasAVX2 {
		return false
	}
	star7Box(d, s, b, c)
	return true
}

// StarBox runs a constant-coefficient star of len(o) points over box b and
// reports whether it ran; without AVX2 it writes nothing and returns false.
//
// d starts at the box's first cell, and s reach cells earlier, where reach
// is the distance from a cell to its star's lowest point. o holds each
// point's offset plus reach, so every o[p] is at least 0. Every cell d[j]
// of the box is set to
//
//	c[0]·s[j+o[0]] + c[1]·s[j+o[1]] + … + c[P−1]·s[j+o[P−1]],
//
// summed left to right, in point order. Cells between the rows and planes
// of the box are left as they are. d and s must not overlap: a row whose
// length is not a multiple of 4 has its last cells written twice, from s.
//
// The shape must have 1 ≤ SY ≤ SZ and N, Rows and Planes at least 1; o
// and c must have the same length, at least 1, and every o[p] must lie in
// [0, len(s)); and d and s must reach the box's last cell and that cell's
// highest point: len(d) ≥ b.Span() and len(s) ≥ b.Span() + max(o).
// StarBox panics otherwise.
//
// The runtime cannot preempt the call, so callers should keep boxes small
// enough to finish in well under a millisecond.
func StarBox(d, s []float64, b *Box, o []int, c []float64) bool {
	extra := -1
	if len(o) == len(c) {
		extra = maxOffset(o, len(s))
	}
	if !b.fits(len(d), len(s), extra) {
		panic(fmt.Sprintf("vec: StarBox shape %+v on %d and %d cells, %d offsets, %d coefficients",
			*b, len(d), len(s), len(o), len(c)))
	}
	if !hasAVX2 {
		return false
	}
	starBox(d, s, b, o, c)
	return true
}

// BandBox runs a variable-coefficient star of len(o) points over box b and
// reports whether it ran; without AVX2 it writes nothing and returns false.
//
// d, s and o are as for StarBox, and w holds one band of coefficients per
// point, indexed like the grid: the box's first cell is cell at of every
// band. Every cell d[j] of the box is set to
//
//	w[0][at+j]·s[j+o[0]] + w[1][at+j]·s[j+o[1]] + … + w[P−1][at+j]·s[j+o[P−1]],
//
// summed left to right, in point order. Cells between the rows and planes
// of the box are left as they are. Neither s nor any band may overlap d: a
// row whose length is not a multiple of 4 has its last cells written twice.
//
// The shape, o, d and s must pass StarBox's checks, with w in place of c;
// at must be at least 0, and every band must reach the box's last cell:
// len(w[p]) ≥ at + b.Span(). BandBox panics otherwise.
//
// The runtime cannot preempt the call, so callers should keep boxes small
// enough to finish in well under a millisecond.
func BandBox(d, s []float64, b *Box, o []int, w [][]float64, at int) bool {
	extra := -1
	if len(o) == len(w) {
		extra = maxOffset(o, len(s))
	}
	if !b.fits(len(d), len(s), extra) || !reaches(w, at, b.Span()) {
		panic(fmt.Sprintf("vec: BandBox shape %+v on %d and %d cells, %d offsets, %d bands from cell %d",
			*b, len(d), len(s), len(o), len(w), at))
	}
	if !hasAVX2 {
		return false
	}
	bandBox(d, s, b, o, w, at)
	return true
}

// reaches reports whether at is at least 0 and every band of w holds span
// cells from cell at on.
func reaches(w [][]float64, at, span int) bool {
	if at < 0 {
		return false
	}
	for _, band := range w {
		if len(band)-at < span {
			return false
		}
	}
	return true
}

// maxOffset returns the largest offset in o, or −1 if o is empty or an
// offset falls outside an s of ns cells.
func maxOffset(o []int, ns int) int {
	m := -1
	for _, v := range o {
		if v < 0 || v >= ns {
			return -1
		}
		m = max(m, v)
	}
	return m
}

// fits reports whether the shape is valid and its box fits in a d of nd
// cells and an s of ns cells, where s needs extra cells more than d. A
// negative extra fits nothing.
func (b *Box) fits(nd, ns, extra int) bool {
	if b.N < 1 || b.Rows < 1 || b.Planes < 1 || b.SY < 1 || b.SZ < b.SY || extra < 0 {
		return false
	}
	// Bounding each term of the span by nd first keeps the sum from
	// overflowing.
	if b.N > nd || b.Rows-1 > nd/b.SY || b.Planes-1 > nd/b.SZ {
		return false
	}
	end := b.Span()
	return end <= nd && end <= ns-extra
}

// Span returns the number of cells from the box's first cell to just past
// its last: (Planes−1)·SZ + (Rows−1)·SY + N.
func (b *Box) Span() int { return (b.Planes-1)*b.SZ + (b.Rows-1)*b.SY + b.N }

// MulAdd sets d[i] = d[i] + c·s[i] on a prefix of d and returns its length.
func MulAdd(d, s []float64, c float64) int {
	if !hasAVX2 {
		return 0
	}
	return mulAdd(d, s, c)
}

// PeakLanes is the number of independent chains PeakLoop runs: 12 registers
// of 4 lanes.
const PeakLanes = 48

// PeakLoop runs iters rounds of a[i] = a[i]·m + c on every lane, one VMULPD
// then one VADDPD per register, and reports whether it ran. Without AVX2 it
// leaves a as it is and returns false.
func PeakLoop(a *[PeakLanes]float64, m, c float64, iters int64) bool {
	if !hasAVX2 {
		return false
	}
	// The runtime cannot preempt assembly, so a long call would hold up a
	// stop-the-world pause for its whole length. Slices of peakSlice rounds
	// take well under a millisecond; the lanes pass between them through
	// memory, exactly.
	for ; iters > 0; iters -= peakSlice {
		peakLoop(a, m, c, min(iters, peakSlice))
	}
	return true
}

const peakSlice = 1 << 16
