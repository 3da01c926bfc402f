// Package cats implements CATS — cache accurate time skewing [Strzodka,
// Shaheen, Pajak, Seidel, ICPP 2011] — the paper's NUMA-ignorant cache-aware
// baseline. The space-time is divided along one spatial dimension into
// left-skewed slabs spanning the full time range; the slab width derives
// from cache parameters so the wavefront traversal stays cache-resident;
// slabs are assigned to threads round robin, which balances load (boundary
// tiles are smaller) but ignores data-to-core affinity — the flaw nuCATS
// fixes.
//
// Realization notes (documented deviations from the original C++):
//   - Slabs are materialized as spacetime tiles: slabs × time segments ×
//     wavefront chunks about as wide as a slab, emitted level by level
//     (segment, then chunk, then slab). The engine runs each worker's
//     ready tiles in that order, so neighbouring slabs trail each other by
//     one chunk — the pipelined ordering the hand-rolled synchronization
//     produced — and the in-tile order is the cache accurate wavefront
//     (WavefrontTraverse), unchanged inside each chunk.
//   - Tile boundaries clamp at domain edges instead of wrapping (Dirichlet
//     boundaries rather than periodic).
package cats

import (
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
)

// TilingDim is the spatial dimension cut into slabs: the highest-stride
// dimension, so each slab is a contiguous range of pages.
const TilingDim = 0

// Params tune the scheme; the zero value gives the paper's defaults.
type Params struct {
	// SegmentHeight is the number of timesteps per pipelined task
	// (default 4). 1 reproduces per-timestep synchronization; larger
	// values deepen the in-tile wavefront at the cost of pipeline
	// ramp-up.
	SegmentHeight int
	// WidthOverride fixes the slab width instead of deriving it from the
	// cache parameters. 0 derives.
	WidthOverride int
}

func (p Params) segmentHeight() int {
	if p.SegmentHeight <= 0 {
		return 4
	}
	return p.SegmentHeight
}

// Scheme is the original round-robin CATS.
type Scheme struct {
	Params Params
}

// New returns CATS with default parameters.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme.
func (*Scheme) Name() string { return "CATS" }

// NUMAAware implements tiling.Scheme: CATS ignores affinity.
func (*Scheme) NUMAAware() bool { return false }

// Distribute records the NUMA-ignorant initialization: all pages fault on
// the master's node.
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// RecommendedWidth returns the slab width the cache formula suggests. The
// wavefront's in-cache reuse depth is Teff = C/(s·U·cb·W) timesteps (C =
// per-worker LLC share, U = unit-stride extent, cb = bytes per cell for all
// live arrays, W = slab width), while the slab-boundary halo costs ~2s/W
// words per update. Minimizing spill + halo traffic cb·s·U·W/C + s·cb/W
// gives W* = sqrt(C/(U·cb)); when the full time range already fits at a
// wider slab (small T), the width grows to C/(U·cb·s·T).
func RecommendedWidth(p *tiling.Problem) int {
	interior := p.Interior()
	unit := interior.Extent(interior.NumDims() - 1)
	if interior.NumDims() == 1 {
		unit = 1
	}
	return RecommendedWidthFor(interior.Extent(TilingDim), unit,
		p.Stencil, p.Timesteps, p.LLCBytesPerWorker)
}

// RecommendedWidthFor is the pure form of RecommendedWidth, usable by the
// cost model without materializing a grid.
func RecommendedWidthFor(ext, unitExt int, st *stencil.Stencil, timesteps int, llcBytes int64) int {
	cb := CellBytes(st)
	unit := int64(unitExt)
	if unit < 1 {
		unit = 1
	}
	llc := llcBytes
	if llc <= 0 {
		llc = 1 << 20
	}
	w := isqrt(llc / (cb * unit))
	if d := int64(st.Order) * int64(timesteps); d > 0 {
		if wt := llc / (cb * unit * d); wt > int64(w) {
			w = int(wt)
		}
	}
	if w < 1 {
		w = 1
	}
	if w > ext {
		w = ext
	}
	return w
}

// CellBytes returns the bytes of live data per grid cell during temporal
// blocking: two copies of X, plus the per-cell coefficients for banded
// stencils.
func CellBytes(st *stencil.Stencil) int64 {
	if st.Kind == stencil.Variable {
		return int64(8 * (2 + st.NumPoints()))
	}
	return 16
}

// isqrt returns the integer square root of n (floor), 0 for n <= 0.
func isqrt(n int64) int {
	if n <= 0 {
		return 0
	}
	x := int64(1)
	for x*x <= n {
		x++
	}
	return int(x - 1)
}

// Tiles implements tiling.Scheme: N left-skewed slabs along TilingDim,
// round-robin owners, segmented in time.
func (s *Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tiling.RequireDirichlet(p, "CATS"); err != nil {
		return nil, err
	}
	w := s.Params.WidthOverride
	if w <= 0 {
		w = RecommendedWidth(p)
	}
	interior := p.Interior()
	n := (interior.Extent(TilingDim) + w - 1) / w
	if n < 1 {
		n = 1
	}
	owners := make([]int, n)
	for i := range owners {
		owners[i] = i % p.Workers // round robin: the CATS assignment
	}
	return BuildSlabTiles(p, n, owners, s.Params.segmentHeight(), false), nil
}

// Traverse implements tiling.Traverser: the cache accurate wavefront.
func (*Scheme) Traverse(tile *spacetime.Tile, order int) []tiling.StepBox {
	return WavefrontTraverse(tile, order)
}

var (
	_ tiling.Scheme    = (*Scheme)(nil)
	_ tiling.Traverser = (*Scheme)(nil)
)

// WavefrontTraverse is the in-tile traversal that gives CATS its name:
// instead of sweeping whole cross-sections time-major, the tile executes as
// bands along the wavefront dimension in the skewed frame σ = y + s·dt.
// Band w covers σ ∈ [σ0 + w·bw, σ0 + (w+1)·bw); within a band, timesteps
// ascend. Every point's inputs at the previous timestep lie in the same or
// an earlier band (bw ≥ 2s), so the order is dependency-correct for any
// tile shape, and the live working set is one band across the tile's time
// depth rather than whole cross-sections.
func WavefrontTraverse(tile *spacetime.Tile, order int) []tiling.StepBox {
	wf := WavefrontDim(tile.NumDims())
	if wf < 0 || tile.Height() <= 1 {
		return defaultTraverse(tile)
	}
	s := order
	bw := 2 * s
	if bw < 8 {
		bw = 8
	}
	sigLo, sigHi := 0, 0
	first := true
	for ts := tile.T0; ts < tile.T1(); ts++ {
		c := tile.At(ts)
		if c.Empty() {
			continue
		}
		dt := ts - tile.T0
		lo, hi := c.Lo[wf]+s*dt, c.Hi[wf]+s*dt
		if first {
			sigLo, sigHi, first = lo, hi, false
			continue
		}
		if lo < sigLo {
			sigLo = lo
		}
		if hi > sigHi {
			sigHi = hi
		}
	}
	if first {
		return nil
	}
	var out []tiling.StepBox
	for p := sigLo; p < sigHi; p += bw {
		for ts := tile.T0; ts < tile.T1(); ts++ {
			c := tile.At(ts)
			if c.Empty() {
				continue
			}
			dt := ts - tile.T0
			band := c.Clone()
			band.Lo[wf] = max(c.Lo[wf], p-s*dt)
			band.Hi[wf] = min(c.Hi[wf], p+bw-s*dt)
			if !band.Empty() {
				out = append(out, tiling.StepBox{T: ts, Box: band})
			}
		}
	}
	return out
}

func defaultTraverse(tile *spacetime.Tile) []tiling.StepBox {
	var out []tiling.StepBox
	for ts := tile.T0; ts < tile.T1(); ts++ {
		out = append(out, tiling.StepBox{T: ts, Box: tile.At(ts)})
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BuildSlabTiles constructs the skewed-slab tiling shared by CATS and
// nuCATS: nTiles slabs along TilingDim, cut into time segments of height
// seg and along the wavefront-traversal dimension into chunks, every cut
// skewed left by the stencil order. owners[i] is the worker of slab i.
//
// Each chunk is about as wide as a slab (⌈ext_wf·nTiles/ext_tiling⌉ chunks),
// so a worker's slab segment becomes a pipeline of small tiles its
// right-hand neighbour can start on after the first one, instead of after
// the whole segment. With halveWavefrontDim (nuCATS' second adjustment
// case) the wavefront dimension is instead cut into exactly two halves,
// and half h of slab i belongs to owners[2i+h].
//
// Tiles are emitted level by level: segment, then chunk, then slab. A
// tile reads only tiles of lower or equal (segment, chunk, slab), so the
// emission order is topological. engine.Run hands each worker its ready
// tiles in emission order, so a worker runs its chunks in the order its
// right-hand neighbour needs them.
func BuildSlabTiles(p *tiling.Problem, nTiles int, owners []int, seg int, halveWavefrontDim bool) []*spacetime.Tile {
	interior := p.Interior()
	nd := interior.NumDims()
	s := p.Stencil.Order

	// Clamp to the extents: a slab or wavefront half must be at least one
	// cell wide, so tiny interiors absorb the surplus parts.
	ext := interior.Extent(TilingDim)
	if nTiles > ext && ext >= 1 {
		nTiles = ext
	}
	wfDim := WavefrontDim(nd)
	chunks, halve := 1, false
	if wfDim >= 0 {
		switch wf := interior.Extent(wfDim); {
		case halveWavefrontDim && wf >= 2:
			chunks, halve = 2, true
		case !halveWavefrontDim && ext >= 1 && wf >= 1:
			chunks = (wf*nTiles + ext - 1) / ext
		}
	}

	splits := make([][]int, nd)
	slope := make([]int, nd)
	counts := make([]int, nd)
	for k := range counts {
		counts[k] = 1
	}
	counts[TilingDim] = nTiles
	slope[TilingDim] = -s
	if wfDim >= 0 {
		counts[wfDim] = chunks
		slope[wfDim] = -s
	}
	for k := 0; k < nd; k++ {
		splits[k] = tiling.EvenCuts(interior.Lo[k], interior.Hi[k], counts[k])
	}

	var tiles []*spacetime.Tile
	idx := make([]int, nd)
	for t0 := 0; t0 < p.Timesteps; t0 += seg {
		h1 := min(seg, p.Timesteps-t0)
		for c := 0; c < chunks; c++ {
			for i := 0; i < nTiles; i++ {
				idx[TilingDim] = i
				if wfDim >= 0 {
					idx[wfDim] = c
				}
				slab := i
				if halve {
					slab = 2*i + c
				}
				owner := owners[slab%len(owners)]
				tile := &spacetime.Tile{T0: t0, Owner: owner, Node: p.NodeOfWorker(owner)}
				for dt := 0; dt < h1; dt++ {
					tile.Cross = append(tile.Cross,
						tiling.SkewedBoxAt(interior, splits, idx, slope, t0+dt))
				}
				tiles = append(tiles, tile)
			}
		}
	}
	return spacetime.AssignIDs(spacetime.DropEmpty(tiles))
}

// WavefrontDim returns the dimension the wavefront traverses: the second
// highest stride distinct from the tiling and unit-stride dimensions, or -1
// when the grid has no such dimension.
func WavefrontDim(nd int) int {
	if nd >= 3 {
		return 1
	}
	return -1
}
