// Package spacetime models the space-time geometry of temporal blocking:
// skewed parallelograms, their recursive subdivision, and materialized tiles
// with explicit per-timestep cross-sections. Every tiling scheme in this
// repository is expressed as a producer of spacetime.Tile values; the engine
// derives dependencies from the geometry in this package.
package spacetime

import (
	"fmt"

	"nustencil/internal/grid"
)

// Pgram is an exact space-time parallelogram: a spatial base box at timestep
// T0 that translates by Slope cells per timestep for Height steps. A positive
// slope skews "to the right" (towards increasing coordinates), a negative
// slope to the left, matching Figure 1 of the paper where thread
// parallelograms are right-skewed and root parallelograms left-skewed.
type Pgram struct {
	T0     int
	Height int
	Base   grid.Box // cross-section at T0
	Slope  []int    // per-dimension shift per timestep
}

// NewPgram builds a parallelogram; base and slope are copied.
func NewPgram(t0, height int, base grid.Box, slope []int) Pgram {
	if len(slope) != base.NumDims() {
		panic("spacetime: slope/base dimension mismatch")
	}
	return Pgram{T0: t0, Height: height, Base: base.Clone(), Slope: append([]int(nil), slope...)}
}

// T1 returns the exclusive end timestep.
func (p Pgram) T1() int { return p.T0 + p.Height }

// CrossSection returns the (unclipped) spatial box covered at timestep t.
// t must lie in [T0, T1).
func (p Pgram) CrossSection(t int) grid.Box {
	return p.CrossSectionInto(t, grid.MakeBox(len(p.Slope)))
}

// CrossSectionInto writes the (unclipped) spatial box covered at timestep t
// into dst, which must have the parallelogram's dimensionality, and returns
// dst. It performs no allocation — tilers that materialize thousands of
// cross-sections use this with caller-owned backing.
func (p Pgram) CrossSectionInto(t int, dst grid.Box) grid.Box {
	dt := t - p.T0
	for k, m := range p.Slope {
		dst.Lo[k] = p.Base.Lo[k] + m*dt
		dst.Hi[k] = p.Base.Hi[k] + m*dt
	}
	return dst
}

// SplitTime cuts the parallelogram into a lower half [T0, T0+h) and an upper
// half [T0+h, T1); the upper half's base is the lower's cross-section at the
// cut. h is clamped to [0, Height].
func (p Pgram) SplitTime(h int) (lo, hi Pgram) {
	if h < 0 {
		h = 0
	}
	if h > p.Height {
		h = p.Height
	}
	lo = NewPgram(p.T0, h, p.Base, p.Slope)
	hi = NewPgram(p.T0+h, p.Height-h, p.CrossSection(p.T0+h), p.Slope)
	return lo, hi
}

// SplitSpace cuts along spatial dimension k at base coordinate c (a skewed
// cut line parallel to the parallelogram's slope). c is clamped into the
// base interval, so one half may be spatially empty.
func (p Pgram) SplitSpace(k, c int) (lo, hi Pgram) {
	bl, bh := p.Base.SplitAt(k, c)
	return NewPgram(p.T0, p.Height, bl, p.Slope), NewPgram(p.T0, p.Height, bh, p.Slope)
}

// Empty reports whether the parallelogram covers no space-time points.
func (p Pgram) Empty() bool { return p.Height <= 0 || p.Base.Empty() }

func (p Pgram) String() string {
	return fmt.Sprintf("Pgram{t=[%d,%d) base=%v slope=%v}", p.T0, p.T1(), p.Base, p.Slope)
}
