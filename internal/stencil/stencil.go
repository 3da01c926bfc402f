// Package stencil defines star stencils of arbitrary order and dimension,
// with constant or spatially varying (banded-matrix) coefficients, and the
// kernels that apply them to double-buffered grids.
package stencil

import (
	"fmt"
	"slices"

	"nustencil/internal/grid"
)

// Kind distinguishes constant-coefficient stencils from variable-coefficient
// ones. A variable-coefficient star stencil is exactly a product with a
// sparse banded matrix (Section IV-E of the paper).
type Kind int

const (
	// Constant: one coefficient per stencil point, shared by all cells.
	Constant Kind = iota
	// Variable: one coefficient per stencil point per cell (banded matrix).
	Variable
)

func (k Kind) String() string {
	switch k {
	case Constant:
		return "constant"
	case Variable:
		return "banded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stencil describes a star stencil: the centre point plus, for every spatial
// dimension, the 2·Order neighbours at distances 1..Order in both directions.
// The model problem of the paper is the 3D 7-point star (NumDims=3, Order=1).
type Stencil struct {
	NumDims int
	Order   int
	Kind    Kind

	// Coeffs holds the constant coefficients in point order (see Points);
	// used only when Kind == Constant. len(Coeffs) == NumPoints().
	Coeffs []float64
}

// NewStar returns a constant-coefficient star stencil with the classic
// normalized Jacobi weights: the centre weight and the neighbour weights sum
// to 1, which keeps iterates bounded for any number of timesteps.
func NewStar(numDims, order int) *Stencil {
	s := &Stencil{NumDims: numDims, Order: order, Kind: Constant}
	np := s.NumPoints()
	s.Coeffs = make([]float64, np)
	// Centre gets weight 1/2, neighbours share the other 1/2.
	s.Coeffs[0] = 0.5
	for i := 1; i < np; i++ {
		s.Coeffs[i] = 0.5 / float64(np-1)
	}
	return s
}

// NewStarWithCoeffs returns a constant star stencil with explicit
// coefficients in point order. len(coeffs) must equal NumPoints().
func NewStarWithCoeffs(numDims, order int, coeffs []float64) *Stencil {
	s := &Stencil{NumDims: numDims, Order: order, Kind: Constant}
	if len(coeffs) != s.NumPoints() {
		panic(fmt.Sprintf("stencil: want %d coefficients, got %d", s.NumPoints(), len(coeffs)))
	}
	s.Coeffs = append([]float64(nil), coeffs...)
	return s
}

// NewBandedStar returns a variable-coefficient star stencil of the given
// shape. The per-cell coefficients live in a Coefficients value created by
// NewCoefficients.
func NewBandedStar(numDims, order int) *Stencil {
	return &Stencil{NumDims: numDims, Order: order, Kind: Variable}
}

// NumPoints returns the number of points in the star: 1 + 2·NumDims·Order.
func (s *Stencil) NumPoints() int { return 1 + 2*s.NumDims*s.Order }

// Points returns the coordinate offsets of the stencil points. Index 0 is
// the centre; the rest enumerate dimension-major, distance-minor, negative
// direction before positive.
func (s *Stencil) Points() [][]int {
	pts := make([][]int, 0, s.NumPoints())
	pts = append(pts, make([]int, s.NumDims))
	for k := 0; k < s.NumDims; k++ {
		for j := 1; j <= s.Order; j++ {
			neg := make([]int, s.NumDims)
			neg[k] = -j
			pos := make([]int, s.NumDims)
			pos[k] = j
			pts = append(pts, neg, pos)
		}
	}
	return pts
}

// FlopsPerUpdate returns the floating point operations per stencil update:
// NumPoints multiplications and NumPoints-1 additions. For the 3D 7-point
// star this is 13, matching the paper; for s=2 it is 25 and for s=3 it is 37.
func (s *Stencil) FlopsPerUpdate() int { return 2*s.NumPoints() - 1 }

// ReadsPerUpdate returns the number of float64 values a single update reads
// assuming no caching: the vector points, plus the coefficients when they
// are per-cell. This matches the paper's SysBand0C/LL1Band0C accounting
// (7 reads constant, 14 reads banded for the 7-point star).
func (s *Stencil) ReadsPerUpdate() int {
	if s.Kind == Variable {
		return 2 * s.NumPoints()
	}
	return s.NumPoints()
}

// IdealReadsPerUpdate returns the reads per update under ideal caching where
// each vector cell is fetched once per sweep: 1 for constant coefficients,
// 1 + NumPoints for banded (coefficients cannot be reused across cells).
// This matches the paper's SysBandIC accounting (1 read constant, 8 banded).
func (s *Stencil) IdealReadsPerUpdate() int {
	if s.Kind == Variable {
		return 1 + s.NumPoints()
	}
	return 1
}

// String names the stencil like "3D 7-point constant (s=1)".
func (s *Stencil) String() string {
	return fmt.Sprintf("%dD %d-point %s (s=%d)", s.NumDims, s.NumPoints(), s.Kind, s.Order)
}

// Coefficients stores per-cell coefficients for a variable stencil: one
// flat array per stencil point, indexed like the grid's flat storage.
type Coefficients struct {
	st   *Stencil
	Data [][]float64
}

// NewCoefficients allocates per-cell coefficients for stencil s on grid g,
// initialized with the same normalized Jacobi weights as NewStar.
func NewCoefficients(s *Stencil, g *grid.Grid) *Coefficients {
	if s.Kind != Variable {
		panic("stencil: NewCoefficients requires a Variable stencil")
	}
	np := s.NumPoints()
	c := &Coefficients{st: s, Data: make([][]float64, np)}
	for p := range c.Data {
		if p >= 2 {
			// Every neighbour has band 1's weight. A clone of a
			// pointer-free slice is not zeroed first, as make's is.
			c.Data[p] = slices.Clone(c.Data[1])
			continue
		}
		v := 0.5 / float64(np-1)
		if p == 0 {
			v = 0.5
		}
		w := make([]float64, g.Len())
		for i := range w {
			w[i] = v
		}
		c.Data[p] = w
	}
	return c
}

// FillFunc sets every cell's coefficients from f(pointIndex, flatIndex).
func (c *Coefficients) FillFunc(f func(point, idx int) float64) {
	for p := range c.Data {
		for i := range c.Data[p] {
			c.Data[p][i] = f(p, i)
		}
	}
}

// NumPoints returns the number of stencil points covered.
func (c *Coefficients) NumPoints() int { return len(c.Data) }
