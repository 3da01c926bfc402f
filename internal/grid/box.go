// Package grid provides N-dimensional double-buffered float64 grids with
// explicit page-to-NUMA-node ownership, standing in for first-touch page
// placement that the Go runtime cannot express.
package grid

import (
	"fmt"
	"strings"
)

// Box is an axis-aligned box in N-dimensional index space.
// Lo is inclusive, Hi is exclusive. A Box with any Hi[k] <= Lo[k] is empty.
type Box struct {
	Lo, Hi []int
}

// MakeBox returns a zero-valued box with nd dimensions. Lo and Hi share a
// single backing allocation — every constructor here does the same, so
// building a box costs one allocation, not two. Callers that derive boxes
// in bulk (tilers, subdividers) should prefer the *Into/in-place operations
// below, which allocate nothing at all.
func MakeBox(nd int) Box {
	m := make([]int, 2*nd)
	return Box{Lo: m[:nd:nd], Hi: m[nd:]}
}

// NewBox returns a box spanning [lo, hi) in every dimension.
// The slices are copied.
func NewBox(lo, hi []int) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("grid: NewBox dimension mismatch: %d vs %d", len(lo), len(hi)))
	}
	b := MakeBox(len(lo))
	copy(b.Lo, lo)
	copy(b.Hi, hi)
	return b
}

// BoxOf returns the box [0, dims[k]) in every dimension.
func BoxOf(dims []int) Box {
	b := MakeBox(len(dims))
	copy(b.Hi, dims)
	return b
}

// NumDims returns the number of dimensions of the box.
func (b Box) NumDims() int { return len(b.Lo) }

// Empty reports whether the box contains no points.
func (b Box) Empty() bool {
	for k := range b.Lo {
		if b.Hi[k] <= b.Lo[k] {
			return true
		}
	}
	return len(b.Lo) == 0
}

// Size returns the number of points in the box, or 0 if empty.
func (b Box) Size() int64 {
	if b.Empty() {
		return 0
	}
	n := int64(1)
	for k := range b.Lo {
		n *= int64(b.Hi[k] - b.Lo[k])
	}
	return n
}

// Extent returns Hi[k]-Lo[k] for dimension k (may be negative if degenerate).
func (b Box) Extent(k int) int { return b.Hi[k] - b.Lo[k] }

// Contains reports whether the point pt lies inside the box.
func (b Box) Contains(pt []int) bool {
	if len(pt) != len(b.Lo) {
		return false
	}
	for k := range pt {
		if pt[k] < b.Lo[k] || pt[k] >= b.Hi[k] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of b and o. The result may be empty.
func (b Box) Intersect(o Box) Box {
	if len(b.Lo) != len(o.Lo) {
		panic("grid: Intersect dimension mismatch")
	}
	r := MakeBox(len(b.Lo))
	for k := range b.Lo {
		r.Lo[k] = max(b.Lo[k], o.Lo[k])
		r.Hi[k] = min(b.Hi[k], o.Hi[k])
	}
	return r
}

// ClipTo intersects b with o in place and returns b, for hot paths that
// already own b's backing and must not allocate.
func (b Box) ClipTo(o Box) Box {
	if len(b.Lo) != len(o.Lo) {
		panic("grid: ClipTo dimension mismatch")
	}
	for k := range b.Lo {
		if o.Lo[k] > b.Lo[k] {
			b.Lo[k] = o.Lo[k]
		}
		if o.Hi[k] < b.Hi[k] {
			b.Hi[k] = o.Hi[k]
		}
	}
	return b
}

// CopyFrom copies o's bounds into b's existing backing (same
// dimensionality) and returns b, without allocating.
func (b Box) CopyFrom(o Box) Box {
	if len(b.Lo) != len(o.Lo) {
		panic("grid: CopyFrom dimension mismatch")
	}
	copy(b.Lo, o.Lo)
	copy(b.Hi, o.Hi)
	return b
}

// Intersects reports whether b and o share at least one point. It performs
// no allocation (unlike Intersect) and is safe for hot paths.
func (b Box) Intersects(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		panic("grid: Intersects dimension mismatch")
	}
	if len(b.Lo) == 0 {
		return false
	}
	for k := range b.Lo {
		lo, hi := b.Lo[k], b.Hi[k]
		if o.Lo[k] > lo {
			lo = o.Lo[k]
		}
		if o.Hi[k] < hi {
			hi = o.Hi[k]
		}
		if hi <= lo {
			return false
		}
	}
	return true
}

// IntersectsGrown reports whether b grown by r intersects o, without
// allocating.
func (b Box) IntersectsGrown(r int, o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		panic("grid: IntersectsGrown dimension mismatch")
	}
	if len(b.Lo) == 0 {
		return false
	}
	for k := range b.Lo {
		lo, hi := b.Lo[k]-r, b.Hi[k]+r
		if o.Lo[k] > lo {
			lo = o.Lo[k]
		}
		if o.Hi[k] < hi {
			hi = o.Hi[k]
		}
		if hi <= lo {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in any box.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	for k := range b.Lo {
		if o.Lo[k] < b.Lo[k] || o.Hi[k] > b.Hi[k] {
			return false
		}
	}
	return true
}

// Equal reports whether b and o span the same region. Two empty boxes of the
// same dimensionality are equal.
func (b Box) Equal(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	if b.Empty() && o.Empty() {
		return true
	}
	for k := range b.Lo {
		if b.Lo[k] != o.Lo[k] || b.Hi[k] != o.Hi[k] {
			return false
		}
	}
	return true
}

// Shift returns the box translated by delta.
func (b Box) Shift(delta []int) Box {
	if len(delta) != len(b.Lo) {
		panic("grid: Shift dimension mismatch")
	}
	r := MakeBox(len(b.Lo))
	for k := range b.Lo {
		r.Lo[k] = b.Lo[k] + delta[k]
		r.Hi[k] = b.Hi[k] + delta[k]
	}
	return r
}

// ShiftInPlace translates b by delta without allocating.
func (b Box) ShiftInPlace(delta []int) Box {
	if len(delta) != len(b.Lo) {
		panic("grid: ShiftInPlace dimension mismatch")
	}
	for k := range b.Lo {
		b.Lo[k] += delta[k]
		b.Hi[k] += delta[k]
	}
	return b
}

// Grow returns the box expanded by r in every direction of every dimension.
// A negative r shrinks the box.
func (b Box) Grow(r int) Box {
	g := MakeBox(len(b.Lo))
	for k := range b.Lo {
		g.Lo[k] = b.Lo[k] - r
		g.Hi[k] = b.Hi[k] + r
	}
	return g
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	c := MakeBox(len(b.Lo))
	copy(c.Lo, b.Lo)
	copy(c.Hi, b.Hi)
	return c
}

// SplitAt cuts the box at coordinate c along dimension k and returns the two
// halves [Lo[k], c) and [c, Hi[k)). c is clamped into [Lo[k], Hi[k]], so one
// half may be empty.
func (b Box) SplitAt(k, c int) (lo, hi Box) {
	if c < b.Lo[k] {
		c = b.Lo[k]
	}
	if c > b.Hi[k] {
		c = b.Hi[k]
	}
	lo, hi = b.Clone(), b.Clone()
	lo.Hi[k] = c
	hi.Lo[k] = c
	return lo, hi
}

// String renders the box as [lo0,hi0)x[lo1,hi1)x...
func (b Box) String() string {
	var sb strings.Builder
	for k := range b.Lo {
		if k > 0 {
			sb.WriteByte('x')
		}
		fmt.Fprintf(&sb, "[%d,%d)", b.Lo[k], b.Hi[k])
	}
	return sb.String()
}
