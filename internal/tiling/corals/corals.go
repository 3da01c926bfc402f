// Package corals implements CORALS — cache oblivious parallelograms
// [Strzodka, Shaheen, Pajak, Seidel, ICS 2010] — the paper's NUMA-ignorant
// cache-oblivious baseline. The entire space-time is covered by one
// left-skewed root parallelogram per time layer and recursively subdivided
// into base parallelograms; tasks go to a shared queue with no data-to-core
// affinity, the flaw that motivates nuCORALS.
package corals

import (
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
)

// Params tune the scheme; the zero value gives defaults matching nuCORALS'
// base-parallelogram sizing.
type Params struct {
	// LayerHeight bounds the root parallelogram height; 0 means the whole
	// time range in one hierarchical decomposition (the original CORALS).
	LayerHeight int
	// BaseHeight, BaseExtent, BaseUnitExtent: recursion stop limits.
	BaseHeight     int
	BaseExtent     int
	BaseUnitExtent int
	// MaxTiles caps materialized tiles, auto-coarsening the limits.
	MaxTiles int
}

func (p Params) withDefaults() Params {
	if p.BaseHeight <= 0 {
		p.BaseHeight = 8
	}
	if p.BaseExtent <= 0 {
		p.BaseExtent = 32
	}
	if p.BaseUnitExtent <= 0 {
		p.BaseUnitExtent = 128
	}
	if p.MaxTiles <= 0 {
		p.MaxTiles = 1 << 16
	}
	return p
}

// Scheme is the original CORALS.
type Scheme struct {
	Params Params
}

// New returns CORALS with default parameters.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme.
func (*Scheme) Name() string { return "CORALS" }

// NUMAAware implements tiling.Scheme: CORALS ignores affinity.
func (*Scheme) NUMAAware() bool { return false }

// Distribute records the NUMA-ignorant serial initialization.
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// Tiles implements tiling.Scheme.
func (s *Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tiling.RequireDirichlet(p, "CORALS"); err != nil {
		return nil, err
	}
	par := s.Params.withDefaults()
	interior := p.Interior()
	nd := interior.NumDims()
	ord := p.Stencil.Order

	layer := par.LayerHeight
	if layer <= 0 || layer > p.Timesteps {
		layer = p.Timesteps
	}
	if layer < 1 {
		layer = 1
	}

	rootSlope := make([]int, nd)
	for k := range rootSlope {
		rootSlope[k] = -ord
	}

	var tiles []*spacetime.Tile
	for t0 := 0; t0 < p.Timesteps; t0 += layer {
		h := layer
		if t0+h > p.Timesteps {
			h = p.Timesteps - t0
		}
		// One root covering the whole interior for this layer: the base
		// extends right by s·(h-1) so the left-skewed cross-sections still
		// cover the interior at the layer top.
		base := interior.Clone()
		for k := 0; k < nd; k++ {
			base.Hi[k] += ord * (h - 1)
		}
		root := spacetime.NewPgram(t0, h, base, rootSlope)
		lim := coarsenedLimits(root, par, nd)
		for _, bp := range spacetime.Subdivide(root, lim) {
			tile := spacetime.NewTileFromPgram(bp, interior)
			if tile.Empty() {
				continue
			}
			tile.Owner = -1 // shared queue: no data-to-core affinity
			tiles = append(tiles, tile)
		}
	}
	return spacetime.AssignIDs(tiles), nil
}

var _ tiling.Scheme = (*Scheme)(nil)

func coarsenedLimits(root spacetime.Pgram, par Params, nd int) spacetime.SubdivideLimits {
	lim := spacetime.SubdivideLimits{MaxHeight: par.BaseHeight, MaxExtent: make([]int, nd)}
	for k := 0; k < nd; k++ {
		if k == nd-1 {
			lim.MaxExtent[k] = par.BaseUnitExtent
		} else {
			lim.MaxExtent[k] = par.BaseExtent
		}
	}
	for spacetime.EstimateSubdivisionCount(root, lim) > int64(par.MaxTiles) {
		lim.MaxHeight *= 2
		for k := range lim.MaxExtent {
			lim.MaxExtent[k] *= 2
		}
	}
	return lim
}
