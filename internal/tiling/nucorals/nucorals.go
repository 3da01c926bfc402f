// Package nucorals implements nuCORALS (Section III of the paper): the
// NUMA-aware cache-oblivious scheme with bidirectional tiling. It runs in
// three phases:
//
//	Phase I   — NUMA-aware spatial domain decomposition: the spatial
//	            dimensions (never the unit-stride one) are tiled into
//	            exactly one subdomain per thread; each thread first-touches
//	            its subdomain so the data lands on its NUMA node.
//	Phase II  — Parallelization: time is tiled into layers of height τ;
//	            within a layer each thread's subdomain becomes a thread
//	            parallelogram skewed to the right with slope equal to the
//	            stencil order, so all threads start in parallel.
//	Phase III — Cache-oblivious decomposition: each thread parallelogram is
//	            covered by a left-skewed root parallelogram, recursively
//	            subdivided into base parallelograms by always cutting the
//	            relatively longest dimension. Base parallelograms crossing
//	            thread boundaries are split; the engine's dependency-driven
//	            execution realizes the paper's spin-flag local
//	            synchronization, and the layer boundary acts as the global
//	            barrier.
//
// τ trades temporal locality against data-to-core affinity; the default
// τ = b/(2s) (b = smallest decomposed subdomain extent) keeps 75% of the
// processed data local for s = 1, the compromise Section III-C derives.
package nucorals

import (
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
)

// Params tune nuCORALS; the zero value gives the paper's defaults.
type Params struct {
	// Tau overrides the thread-parallelogram height; 0 derives b/(2s).
	Tau int
	// BaseHeight is the base-parallelogram time limit (default 8).
	BaseHeight int
	// BaseExtent is the base-parallelogram spatial limit for non-unit
	// dimensions (default 32).
	BaseExtent int
	// BaseUnitExtent is the limit for the unit-stride dimension, kept long
	// for inner-loop efficiency (default 128).
	BaseUnitExtent int
	// MaxTiles caps the materialized tile count; limits auto-coarsen
	// (double) until the estimate fits (default 1<<16).
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

// Scheme is nuCORALS.
type Scheme struct {
	Params Params
}

// New returns nuCORALS with default parameters.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme.
func (*Scheme) Name() string { return "nuCORALS" }

// NUMAAware implements tiling.Scheme.
func (*Scheme) NUMAAware() bool { return true }

// Distribute is Phase I: one spatial tile per thread, first-touched on the
// thread's node.
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// Tau returns the thread-parallelogram height used for the problem:
// b/(2s), at least 1, where b is the smallest decomposed extent of the
// thread subdomains (Sections III-C and IV-F).
func (s *Scheme) Tau(p *tiling.Problem) int {
	if s.Params.Tau > 0 {
		return s.Params.Tau
	}
	interior := p.Interior()
	extents := make([]int, interior.NumDims())
	for k := range extents {
		extents[k] = interior.Extent(k)
	}
	return TauFor(extents, p.Workers, p.Stencil.Order)
}

// TauFor is the pure form of Tau: the default thread-parallelogram height
// for the given interior extents, worker count, and stencil order.
func TauFor(extents []int, workers, order int) int {
	counts := tiling.DecomposeCountsFor(extents, workers)
	b := 0
	for k, c := range counts {
		ext := extents[k] / c
		if c > 1 && (b == 0 || ext < b) {
			b = ext
		}
	}
	if b == 0 {
		// Single worker: no decomposed dimension; use the smallest spatial
		// extent so the layer height still scales with the domain.
		b = extents[0]
		for _, e := range extents[1:] {
			if e < b {
				b = e
			}
		}
	}
	tau := b / (2 * order)
	if tau < 1 {
		tau = 1
	}
	return tau
}

// Tiles implements tiling.Scheme.
func (s *Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tiling.RequireDirichlet(p, "nuCORALS"); err != nil {
		return nil, err
	}
	par := s.Params.withDefaults()
	interior := p.Interior()
	nd := interior.NumDims()
	ord := p.Stencil.Order
	tau := s.Tau(p)

	_, counts := tiling.Decompose(interior, p.Workers)
	splits := make([][]int, nd)
	slabSlope := make([]int, nd)
	rootSlope := make([]int, nd)
	// Extent-aware counts may multiply to fewer subdomains than workers on
	// tiny interiors; the surplus workers simply receive no tiles.
	nsub := 1
	for k := 0; k < nd; k++ {
		nsub *= counts[k]
		splits[k] = tiling.EvenCuts(interior.Lo[k], interior.Hi[k], counts[k])
		if counts[k] > 1 {
			slabSlope[k] = ord // thread parallelograms skew right
		}
		rootSlope[k] = -ord // root parallelograms skew left
	}

	lim := s.baseLimits(p, par, tau, counts)

	var tiles []*spacetime.Tile
	for t0 := 0; t0 < p.Timesteps; t0 += tau {
		h := tau
		if t0+h > p.Timesteps {
			h = p.Timesteps - t0
		}
		for w := 0; w < nsub; w++ {
			idx := multiIndex(w, counts)
			// The thread parallelogram: the subdomain's skewed slab over
			// this layer, with domain-edge boundaries pinned (the
			// non-periodic counterpart of the paper's wrap-around).
			slab := &spacetime.Tile{T0: t0, Owner: w}
			for dt := 0; dt < h; dt++ {
				slab.Cross = append(slab.Cross,
					tiling.SkewedBoxAt(interior, splits, idx, slabSlope, dt))
			}
			// The root parallelogram covering the slab.
			base := subdomainBox(interior, splits, idx)
			for k := 0; k < nd; k++ {
				base.Hi[k] += 2 * ord * (h - 1)
			}
			root := spacetime.NewPgram(t0, h, base, rootSlope)
			for _, bp := range spacetime.Subdivide(root, lim) {
				tile := spacetime.NewTileFromPgram(bp, interior).IntersectTile(slab)
				if tile.Empty() {
					continue
				}
				tile.Owner = w
				tile.Node = p.NodeOfWorker(w)
				tiles = append(tiles, tile)
			}
		}
	}
	return spacetime.AssignIDs(tiles), nil
}

var _ tiling.Scheme = (*Scheme)(nil)

// baseLimits builds the base-parallelogram limits, auto-coarsening until
// the worst-case tile count stays under MaxTiles.
func (s *Scheme) baseLimits(p *tiling.Problem, par Params, tau int, counts []int) spacetime.SubdivideLimits {
	interior := p.Interior()
	nd := interior.NumDims()
	lim := spacetime.SubdivideLimits{MaxHeight: par.BaseHeight, MaxExtent: make([]int, nd)}
	for k := 0; k < nd; k++ {
		if k == nd-1 {
			lim.MaxExtent[k] = par.BaseUnitExtent
		} else {
			lim.MaxExtent[k] = par.BaseExtent
		}
	}
	h := tau
	if p.Timesteps < h {
		h = p.Timesteps
	}
	for {
		// Worst-case root: the largest subdomain extended by the skew of
		// one actual layer.
		base := interior.Clone()
		for k := 0; k < nd; k++ {
			base.Hi[k] = base.Lo[k] + (interior.Extent(k)+counts[k]-1)/counts[k] + 2*p.Stencil.Order*(h-1)
		}
		est := spacetime.EstimateSubdivisionCount(
			spacetime.NewPgram(0, h, base, make([]int, nd)), lim)
		layers := int64((p.Timesteps + tau - 1) / tau)
		if tau <= 0 {
			layers = 0
		}
		if est*int64(p.Workers)*layers <= int64(par.MaxTiles) {
			return lim
		}
		lim.MaxHeight *= 2
		for k := range lim.MaxExtent {
			lim.MaxExtent[k] *= 2
		}
	}
}

// multiIndex converts worker w into its position in the decomposition
// grid, matching the box order tiling.Decompose emits (dimension-major).
func multiIndex(w int, counts []int) []int {
	idx := make([]int, len(counts))
	stride := 1
	for _, c := range counts {
		stride *= c
	}
	for k := 0; k < len(counts); k++ {
		stride /= counts[k]
		idx[k] = w / stride
		w %= stride
	}
	return idx
}

// subdomainBox returns the unskewed subdomain of the given decomposition
// position.
func subdomainBox(interior grid.Box, splits [][]int, idx []int) grid.Box {
	b := interior.Clone()
	for k := range idx {
		b.Lo[k] = splits[k][idx[k]]
		b.Hi[k] = splits[k][idx[k]+1]
	}
	return b
}
