// Package dist is the distributed execution layer: it splits a grid's
// interior into many more blocks than workers ("chares", the Charm++
// term), spreads the chares across ranks — in-process simulated nodes
// behind a Transport interface — and advances them timestep by timestep
// with face halo (ghost-zone) exchange between lattice neighbors.
// Between load-balance barriers the Runtime runs each chare-step as a
// tile of engine.Run, the executor of the single-process path, one run
// per window of at most windowTiles chare-steps: the step depends on the
// chare's and its neighbors' previous steps, whose halos it reads, and a
// worker of the chare's rank runs it. The scatter that fills the
// chares and the gather that drains them are engine.Runs too, each
// chare on a worker of its rank.
// Overdecomposition gives the load balancer freedom to migrate hot
// chares between ranks at those barriers (the Charm++ AtSync pattern).
//
// Star stencils read only axis-aligned offsets, so face halos of width
// Order exchanged every timestep are sufficient (no corner ghosts), and
// each chare applies the same stencil.Op kernels as the single-process
// path on its private grid — per-cell results are bit-identical to a
// global run, which the public parity suite pins for every scheme.
package dist

import (
	"nustencil/internal/grid"
	"nustencil/internal/tiling"
)

// DefaultChareFactor is the overdecomposition ratio when none is
// configured: chares per rank. Several chares per rank is what gives
// migration-based balancing room to work (one chare per rank would make
// every migration a full swap).
const DefaultChareFactor = 4

// Lattice is the tensor decomposition of a grid interior into chare
// blocks: per-dimension block counts (from the extent-aware
// tiling.DecomposeCountsFor) and the even cut coordinates. Chares are
// indexed lexicographically with the last dimension fastest.
type Lattice struct {
	Counts []int
	// Cuts[k] holds Counts[k]+1 ascending global coordinates; block i of
	// dimension k spans [Cuts[k][i], Cuts[k][i+1]).
	Cuts [][]int
}

// MakeLattice decomposes the interior box into at most chares blocks,
// each at least order cells thick along every dimension it cuts, so
// that a face halo of width order is a slab of one neighbor's owned
// cells. Like the worker decomposition, the actual block count may be
// lower when the extents cannot absorb the requested factorization; it
// is never zero for a non-empty interior.
func MakeLattice(interior grid.Box, chares, order int) Lattice {
	nd := interior.NumDims()
	ext := make([]int, nd)
	for k := 0; k < nd; k++ {
		ext[k] = interior.Extent(k) / max(order, 1)
	}
	counts := tiling.DecomposeCountsFor(ext, chares)
	cuts := make([][]int, nd)
	for k := 0; k < nd; k++ {
		cuts[k] = tiling.EvenCuts(interior.Lo[k], interior.Hi[k], counts[k])
	}
	return Lattice{Counts: counts, Cuts: cuts}
}

// NumChares returns the total block count.
func (l Lattice) NumChares() int {
	n := 1
	for _, c := range l.Counts {
		n *= c
	}
	return n
}

// Coord writes chare i's lattice coordinates into out and returns it.
func (l Lattice) Coord(i int, out []int) []int {
	if out == nil {
		out = make([]int, len(l.Counts))
	}
	for k := len(l.Counts) - 1; k >= 0; k-- {
		out[k] = i % l.Counts[k]
		i /= l.Counts[k]
	}
	return out
}

// Index returns the chare index of the lattice coordinates.
func (l Lattice) Index(coord []int) int {
	i := 0
	for k, c := range coord {
		i = i*l.Counts[k] + c
	}
	return i
}

// Box returns chare i's owned box in global grid coordinates.
func (l Lattice) Box(i int) grid.Box {
	nd := len(l.Counts)
	coord := l.Coord(i, make([]int, nd))
	b := grid.MakeBox(nd)
	for k := 0; k < nd; k++ {
		b.Lo[k] = l.Cuts[k][coord[k]]
		b.Hi[k] = l.Cuts[k][coord[k]+1]
	}
	return b
}

// Neighbor returns the chare index adjacent to i along dim on the given
// side (-1 low, +1 high), or -1 at the lattice boundary.
func (l Lattice) Neighbor(i, dim, side int) int {
	coord := l.Coord(i, make([]int, len(l.Counts)))
	c := coord[dim] + side
	if c < 0 || c >= l.Counts[dim] {
		return -1
	}
	coord[dim] = c
	return l.Index(coord)
}

// InitialRank is the block distribution of chares over ranks every run
// starts from: chare i of n goes to rank i·ranks/n. The memsim network
// model prices halo traffic under this same placement, so predicted and
// measured inter-rank bytes agree (pinned by test).
func InitialRank(chare, chares, ranks int) int {
	if chares <= 0 || ranks <= 0 {
		return 0
	}
	return chare * ranks / chares
}

// NetHaloWordsPerStep returns the float64 words crossing rank
// boundaries in one full halo-exchange phase (every chare sends each
// inter-rank face once), for a grid with the given interior extents
// decomposed into chares blocks over ranks ranks under InitialRank
// placement. This is the volume the memsim network bound prices.
func NetHaloWordsPerStep(interiorExt []int, order, ranks, chares int) int64 {
	if ranks <= 1 {
		return 0
	}
	l := MakeLattice(grid.BoxOf(interiorExt), chares, order)
	n := l.NumChares()
	var words int64
	for i := 0; i < n; i++ {
		b := l.Box(i)
		ri := InitialRank(i, n, ranks)
		for k := range interiorExt {
			for _, side := range [2]int{-1, +1} {
				j := l.Neighbor(i, k, side)
				if j < 0 || InitialRank(j, n, ranks) == ri {
					continue
				}
				face := int64(order)
				for d := range interiorExt {
					if d != k {
						face *= int64(b.Extent(d))
					}
				}
				words += face
			}
		}
	}
	return words
}
