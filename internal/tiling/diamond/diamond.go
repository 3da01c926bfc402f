// Package diamond implements static time-skewed parallelogram tiling in the
// style of PLuTo's transformation of stencil loop nests [Bondhugula et al.,
// PLDI 2008]: time is strip-mined into blocks, space is skewed by the
// stencil order and tiled with fixed tile sizes, and tiles execute as a
// pipelined wavefront with block-cyclic thread assignment. It stands in for
// the paper's PLuTo comparison: good static locality, no data-to-core
// affinity, gradually degrading per-core performance as core counts rise.
package diamond

import (
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
)

// Params are the tile sizes; the zero value gives defaults comparable to
// the tuned sizes the paper used.
type Params struct {
	// TimeBlock is the time-tile height (default 8).
	TimeBlock int
	// Width is the spatial tile width along each non-unit-stride dimension
	// (default 32).
	Width int
}

func (p Params) withDefaults() Params {
	if p.TimeBlock <= 0 {
		p.TimeBlock = 8
	}
	if p.Width <= 0 {
		p.Width = 32
	}
	return p
}

// Scheme is the PLuTo-style tiler.
type Scheme struct {
	Params Params
}

// New returns the scheme with default parameters.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme; the legend name matches the paper.
func (*Scheme) Name() string { return "PLuTo" }

// NUMAAware implements tiling.Scheme.
func (*Scheme) NUMAAware() bool { return false }

// Distribute records the NUMA-ignorant serial initialization (OpenMP static
// arrays faulted by the master thread).
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// Tiles implements tiling.Scheme.
func (s *Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tiling.RequireDirichlet(p, "PLuTo"); err != nil {
		return nil, err
	}
	par := s.Params.withDefaults()
	interior := p.Interior()
	nd := interior.NumDims()
	ord := p.Stencil.Order

	// Tile every non-unit-stride spatial dimension (all of them for 1D).
	counts := make([]int, nd)
	slope := make([]int, nd)
	splits := make([][]int, nd)
	total := 1
	for k := 0; k < nd; k++ {
		counts[k] = 1
		if k < nd-1 || nd == 1 {
			counts[k] = (interior.Extent(k) + par.Width - 1) / par.Width
			if counts[k] < 1 {
				counts[k] = 1
			}
			if counts[k] > 1 {
				slope[k] = -ord
			}
		}
		splits[k] = tiling.EvenCuts(interior.Lo[k], interior.Hi[k], counts[k])
		total *= counts[k]
	}

	var tiles []*spacetime.Tile
	idx := make([]int, nd)
	for t0 := 0; t0 < p.Timesteps; t0 += par.TimeBlock {
		h := par.TimeBlock
		if t0+h > p.Timesteps {
			h = p.Timesteps - t0
		}
		for flat := 0; flat < total; flat++ {
			f := flat
			for k := nd - 1; k >= 0; k-- {
				idx[k] = f % counts[k]
				f /= counts[k]
			}
			// Block-cyclic assignment over the spatial tile index: the
			// OpenMP-style static schedule of the transformed loop nest.
			owner := flat % p.Workers
			tile := &spacetime.Tile{T0: t0, Owner: owner, Node: p.NodeOfWorker(owner)}
			for dt := 0; dt < h; dt++ {
				tile.Cross = append(tile.Cross,
					tiling.SkewedBoxAt(interior, splits, idx, slope, dt))
			}
			tiles = append(tiles, tile)
		}
	}
	return spacetime.AssignIDs(spacetime.DropEmpty(tiles)), nil
}

var _ tiling.Scheme = (*Scheme)(nil)
