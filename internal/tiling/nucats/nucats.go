// Package nucats implements nuCATS (Section II of the paper): the
// NUMA-aware variant of cache accurate time skewing. The wavefront
// traversal inside tiles is unchanged from CATS; what changes is the tiling
// and the scheduling:
//
//   - a domain decomposition gives each thread a subdomain, and tiles are
//     assigned to the thread whose subdomain contains most of the tile
//     (here: contiguous groups of slabs, the "particularly regular pattern"
//     the paper enforces);
//   - the tile count is adjusted from the cache-recommended wavefront size
//     so tiles distribute evenly: if there are more tiles than threads, the
//     wavefront shrinks until the tile count divides the thread count; if
//     there are more threads than tiles, the wavefront shrinks until the
//     counts match — unless that would push the wavefront below a heuristic
//     minimum, in which case the shrinking stops at half the thread count
//     and the tile count doubles by halving the wavefront-traversal
//     dimension instead (cutting the unit-stride dimension would hurt
//     bandwidth utilization).
package nucats

import (
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/cats"
)

// Scheme is nuCATS.
type Scheme struct {
	Params cats.Params
}

// New returns nuCATS with default parameters.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme.
func (*Scheme) Name() string { return "nuCATS" }

// NUMAAware implements tiling.Scheme.
func (*Scheme) NUMAAware() bool { return true }

// Plan is the outcome of the Section II adjustment.
type Plan struct {
	// Tiles is the slab count along the tiling dimension.
	Tiles int
	// HalveWavefrontDim doubles the tile count by cutting the
	// wavefront-traversal dimension in half (second-case fallback).
	HalveWavefrontDim bool
}

// PlanTiles runs the tile-count adjustment for the problem.
func PlanTiles(p *tiling.Problem) Plan {
	interior := p.Interior()
	ext := interior.Extent(cats.TilingDim)
	wReco := cats.RecommendedWidth(p)
	n := (ext + wReco - 1) / wReco
	workers := p.Workers

	if n > ext {
		n = ext
	}
	switch {
	case n >= workers:
		// Case 1: shrink the wavefront (grow n) until it divides the
		// thread count.
		for n%workers != 0 && n < ext {
			n++
		}
		if n%workers != 0 {
			// Domain too small for an even split; fall back to one slab
			// per unit extent.
			n = ext
		}
	default:
		// Case 2: fewer tiles than threads. Shrink the wavefront until the
		// counts match — unless the wavefront would fall below the
		// heuristic minimum, then stop at half the thread count and halve
		// the wavefront-traversal dimension instead.
		wMin := heuristicMinWidth(p, wReco)
		wAtWorkers := ext / workers
		if wAtWorkers < 1 {
			wAtWorkers = 1
		}
		wfDim := cats.WavefrontDim(interior.NumDims())
		if wAtWorkers >= wMin || wfDim < 0 || interior.Extent(wfDim) < 2 || workers < 2 {
			n = workers
			if n > ext {
				n = ext
			}
			return Plan{Tiles: n}
		}
		half := workers / 2
		if half > ext {
			half = ext
		}
		return Plan{Tiles: half, HalveWavefrontDim: true}
	}
	return Plan{Tiles: n}
}

// heuristicMinWidth is the cache-parameter floor below which shrinking the
// wavefront stops paying off: a quarter of the recommendation capped at a
// small constant (very wide recommendations come from the extent clamp, not
// the cache), but never less than the stencil's skew reach.
func heuristicMinWidth(p *tiling.Problem, wReco int) int {
	w := wReco / 4
	if w > 8 {
		w = 8
	}
	if m := 2 * p.Stencil.Order; w < m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Owners returns the slab-to-worker assignment for a plan: contiguous
// groups, so each worker's tiles lie within its subdomain.
func (pl Plan) Owners(workers int) []int {
	total := pl.Tiles
	if pl.HalveWavefrontDim {
		total *= 2
	}
	owners := make([]int, total)
	per := (total + workers - 1) / workers
	for i := range owners {
		owners[i] = (i / per) % workers
	}
	return owners
}

// Distribute performs Phase I: each worker first-touches its subdomain,
// so the data of the slabs it owns lands on its NUMA node.
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// Subdomains implements tiling.Subdomainer: worker w's subdomain is the
// w-th of Workers even parts of the interior along the tiling dimension
// (fewer parts on a thinner interior). Whenever the slab count is a
// multiple of the worker count, as Case 1 of PlanTiles makes it, and in
// Case 2 unless the wavefront dimension is halved, these are exactly the
// contiguous slab groups Owners deals, whatever the step count.
func (*Scheme) Subdomains(p *tiling.Problem) []grid.Box {
	interior := p.Interior()
	d := cats.TilingDim
	cuts := tiling.EvenCuts(interior.Lo[d], interior.Hi[d], p.Workers)
	subs := make([]grid.Box, len(cuts)-1)
	for w := range subs {
		subs[w] = interior.Clone()
		subs[w].Lo[d], subs[w].Hi[d] = cuts[w], cuts[w+1]
	}
	return subs
}

// Tiles implements tiling.Scheme.
func (s *Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tiling.RequireDirichlet(p, "nuCATS"); err != nil {
		return nil, err
	}
	pl := PlanTiles(p)
	seg := s.Params.SegmentHeight
	if seg <= 0 {
		seg = 4 // match CATS' default pipelined wavefront depth
	}
	return cats.BuildSlabTiles(p, pl.Tiles, pl.Owners(p.Workers), seg, pl.HalveWavefrontDim), nil
}

// Traverse implements tiling.Traverser: the wavefront traversal is
// inherited unchanged from CATS (Section II: "the processing within the
// tile, i.e., the wavefront traversal, does not change in nuCATS").
func (*Scheme) Traverse(tile *spacetime.Tile, order int) []tiling.StepBox {
	return cats.WavefrontTraverse(tile, order)
}

var (
	_ tiling.Scheme      = (*Scheme)(nil)
	_ tiling.Traverser   = (*Scheme)(nil)
	_ tiling.Subdomainer = (*Scheme)(nil)
)
