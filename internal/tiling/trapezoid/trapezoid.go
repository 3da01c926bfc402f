// Package trapezoid implements cache-oblivious trapezoidal space-time
// decomposition in the style of Frigo–Strumpen, the algorithm underlying
// the Pochoir stencil compiler's runtime [Tang et al., SPAA 2011]. It
// stands in for the paper's Pochoir comparison: an excellent cache-oblivious
// schedule executed by a work-stealing runtime with no data-to-core
// affinity, so its per-core performance collapses beyond one NUMA node
// (Figures 20–22).
package trapezoid

import (
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
)

// Params tune the recursion stop limits; the zero value gives defaults.
type Params struct {
	BaseHeight     int // default 8
	BaseExtent     int // default 32 (non-unit dimensions)
	BaseUnitExtent int // default 128
	MaxTiles       int // default 1<<16, auto-coarsens
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

// Scheme is the trapezoidal decomposition.
type Scheme struct {
	Params Params
}

// New returns the scheme with default parameters.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme. The scheme carries the name of the system
// it stands in for, so figure legends match the paper.
func (*Scheme) Name() string { return "Pochoir" }

// NUMAAware implements tiling.Scheme.
func (*Scheme) NUMAAware() bool { return false }

// Distribute records the NUMA-ignorant serial initialization.
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// zoid is a space-time trapezoid: dimension k spans
// [x0[k] + dx0[k]·dt, x1[k] + dx1[k]·dt) at timestep t0+dt.
type zoid struct {
	t0, t1   int
	x0, x1   []int
	dx0, dx1 []int
}

func (z *zoid) height() int { return z.t1 - z.t0 }

func (z *zoid) boxAt(t int) grid.Box {
	dt := t - z.t0
	nd := len(z.x0)
	b := grid.Box{Lo: make([]int, nd), Hi: make([]int, nd)}
	for k := 0; k < nd; k++ {
		b.Lo[k] = z.x0[k] + z.dx0[k]*dt
		b.Hi[k] = z.x1[k] + z.dx1[k]*dt
	}
	return b
}

// bottomWidth is the spatial extent of dimension k at the zoid's base.
func (z *zoid) bottomWidth(k int) int { return z.x1[k] - z.x0[k] }

func (z *zoid) clone() *zoid {
	return &zoid{
		t0: z.t0, t1: z.t1,
		x0:  append([]int(nil), z.x0...),
		x1:  append([]int(nil), z.x1...),
		dx0: append([]int(nil), z.dx0...),
		dx1: append([]int(nil), z.dx1...),
	}
}

type walker struct {
	order    int
	lim      Params
	interior grid.Box
	tiles    []*spacetime.Tile
}

// Tiles implements tiling.Scheme.
func (s *Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tiling.RequireDirichlet(p, "Pochoir"); err != nil {
		return nil, err
	}
	par := s.Params.withDefaults()
	interior := p.Interior()
	nd := interior.NumDims()

	// Auto-coarsen the limits against the space-time volume.
	for {
		est := int64(1)
		for k := 0; k < nd; k++ {
			limK := par.BaseExtent
			if k == nd-1 {
				limK = par.BaseUnitExtent
			}
			est *= int64((interior.Extent(k) + limK - 1) / limK)
		}
		est *= int64((p.Timesteps + par.BaseHeight - 1) / par.BaseHeight)
		if est <= int64(par.MaxTiles) || p.Timesteps == 0 {
			break
		}
		par.BaseHeight *= 2
		par.BaseExtent *= 2
		par.BaseUnitExtent *= 2
	}

	w := &walker{order: p.Stencil.Order, lim: par, interior: interior}
	if p.Timesteps > 0 {
		root := &zoid{
			t0: 0, t1: p.Timesteps,
			x0:  append([]int(nil), interior.Lo...),
			x1:  append([]int(nil), interior.Hi...),
			dx0: make([]int, nd),
			dx1: make([]int, nd),
		}
		w.walk(root)
	}
	return spacetime.AssignIDs(spacetime.DropEmpty(w.tiles)), nil
}

var _ tiling.Scheme = (*Scheme)(nil)

func (w *walker) limFor(k int) int {
	if k == len(w.interior.Lo)-1 {
		return w.lim.BaseUnitExtent
	}
	return w.lim.BaseExtent
}

// walk is the Frigo–Strumpen recursion: space-cut the widest over-limit
// dimension when the trapezoid is wide enough for two sub-trapezoids,
// otherwise time-cut, otherwise emit a base trapezoid.
func (w *walker) walk(z *zoid) {
	dt := z.height()
	if dt <= 0 {
		return
	}
	s := w.order

	// Space cut: pick the dimension exceeding its limit by the largest
	// factor among those wide enough to cut with slope -s.
	cutDim, bestRatio := -1, 1.0
	for k := range z.x0 {
		wb := z.bottomWidth(k)
		if wb <= w.limFor(k) {
			continue
		}
		// The cut line starts at the bottom centre and moves left by s per
		// step; it must stay inside both boundaries for all dt.
		xm := (z.x0[k] + z.x1[k]) / 2
		if xm-s*(dt-1) <= z.x0[k]+z.dx0[k]*(dt-1) {
			continue // too steep: the classic width ≥ 4sΔt condition fails
		}
		if r := float64(wb) / float64(w.limFor(k)); r > bestRatio {
			cutDim, bestRatio = k, r
		}
	}
	if cutDim >= 0 {
		xm := (z.x0[cutDim] + z.x1[cutDim]) / 2
		lower := z.clone()
		lower.x1[cutDim], lower.dx1[cutDim] = xm, -s
		upper := z.clone()
		upper.x0[cutDim], upper.dx0[cutDim] = xm, -s
		w.walk(lower) // the lower-left trapezoid is computed first
		w.walk(upper)
		return
	}
	if dt > w.lim.BaseHeight && dt > 1 {
		mid := z.t0 + dt/2
		bottom := z.clone()
		bottom.t1 = mid
		top := z.clone()
		top.t0 = mid
		for k := range top.x0 {
			top.x0[k] += top.dx0[k] * (mid - z.t0)
			top.x1[k] += top.dx1[k] * (mid - z.t0)
		}
		w.walk(bottom)
		w.walk(top)
		return
	}
	w.emit(z)
}

func (w *walker) emit(z *zoid) {
	tile := &spacetime.Tile{T0: z.t0, Owner: -1, Node: -1}
	for t := z.t0; t < z.t1; t++ {
		tile.Cross = append(tile.Cross, z.boxAt(t).Intersect(w.interior))
	}
	w.tiles = append(w.tiles, tile)
}
