package grid

// MaxRowDims is the largest dimensionality RowIter supports. The iterator
// keeps its odometer in fixed-size arrays so that constructing one performs
// no heap allocation — the property the stencil kernels rely on. Grids of
// higher dimensionality fall back to ForEachRow.
const MaxRowDims = 8

// RowIter enumerates the unit-stride runs of a box without allocating: the
// iterator value lives on the caller's stack. Usage:
//
//	for it := g.RowsIn(b, clip); it.Next(); {
//		off, n := it.Offset(), it.Length()
//		...
//	}
//
// Rows are produced in the same order as ForEachRow (row-major, odometer on
// the leading dimensions).
type RowIter struct {
	strides [MaxRowDims]int
	lo      [MaxRowDims]int
	hi      [MaxRowDims]int
	pt      [MaxRowDims]int
	nd      int
	off     int // flat offset of the current row start
	length  int
	state   int8 // 0 before first row, 1 iterating, 2 exhausted
}

// RowsIn returns a row iterator over the intersection of b and clip,
// computed without allocating. Both boxes must have the grid's
// dimensionality, at most MaxRowDims.
func (g *Grid) RowsIn(b, clip Box) RowIter {
	nd := len(g.dims)
	if nd > MaxRowDims {
		panic("grid: RowsIn supports at most MaxRowDims dimensions")
	}
	if b.NumDims() != nd || clip.NumDims() != nd {
		panic("grid: RowsIn dimension mismatch")
	}
	var it RowIter
	it.nd = nd
	off := 0
	for k := 0; k < nd; k++ {
		lo, hi := b.Lo[k], b.Hi[k]
		if clip.Lo[k] > lo {
			lo = clip.Lo[k]
		}
		if clip.Hi[k] < hi {
			hi = clip.Hi[k]
		}
		if hi <= lo {
			it.state = 2
			return it
		}
		it.strides[k] = g.strides[k]
		it.lo[k], it.hi[k], it.pt[k] = lo, hi, lo
		off += lo * g.strides[k]
	}
	it.off = off
	it.length = it.hi[nd-1] - it.lo[nd-1]
	return it
}

// Next advances to the next row, returning false when the box is exhausted.
// It must be called before the first Offset/Length access.
func (it *RowIter) Next() bool {
	switch it.state {
	case 0:
		it.state = 1
		return true
	case 2:
		return false
	}
	// Odometer over the leading dimensions, maintaining the flat offset
	// incrementally.
	k := it.nd - 2
	for ; k >= 0; k-- {
		it.pt[k]++
		it.off += it.strides[k]
		if it.pt[k] < it.hi[k] {
			return true
		}
		it.off -= (it.hi[k] - it.lo[k]) * it.strides[k]
		it.pt[k] = it.lo[k]
	}
	it.state = 2
	return false
}

// Offset returns the flat offset of the current row's first element.
func (it *RowIter) Offset() int { return it.off }

// Length returns the number of elements in the current row.
func (it *RowIter) Length() int { return it.length }

// Start copies the coordinates of the current row's first element into dst,
// which must have length at least the grid's dimensionality.
func (it *RowIter) Start(dst []int) {
	copy(dst[:it.nd], it.pt[:it.nd])
}
