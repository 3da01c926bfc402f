// Package engine executes a space-time tiling on a pool of pinned workers,
// honoring the flow dependencies implied by the tiling geometry. Every
// scheme in this repository — naive, CATS, nuCATS, CORALS, nuCORALS and the
// literature stand-ins — is a tiler; the engine is their single shared
// executor, so one correctness argument (tiles run after their inputs, each
// point updated exactly once per timestep) covers all of them.
//
// With Jacobi two-copy updates, flow dependencies are the only edges needed:
// the computations that read the value a write at timestep t+1 destroys
// (the t-1 value in the same buffer) are exactly the write's flow-dependency
// frontier at timestep t, so anti-dependencies are implied by tile-granular
// flow edges.
package engine

import (
	"sort"

	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// BuildDeps derives the tile dependency graph for a stencil of order s.
// deps[i] lists the tile indices tile i flow-depends on. Tiles must have
// dense IDs 0..len-1 (spacetime.AssignIDs). wrap, when non-nil, gives the
// per-dimension domain extents of a periodic torus: reads wrap across the
// seams, so tiles at opposite domain edges depend on each other.
//
// The derivation is exact at tile granularity: tile i depends on tile j iff
// some cross-section of i at timestep ts, grown by s, intersects j's
// cross-section at ts-1 (modulo the torus). deps[i] lists the matches of
// each timestep in ascending tile index, timesteps ascending, each tile
// once. Each timestep's cross-sections are sorted by their low corner in
// dimension 0, so a query tests only the boxes whose dimension-0 range can
// reach it — near-linear in the (tile, timestep) pairs for slab-like
// tilings instead of quadratic.
func BuildDeps(tiles []*spacetime.Tile, s int, wrap []int) [][]int {
	// Index tiles by the timesteps at which they have non-empty
	// cross-sections.
	minT, maxT := 0, 0
	first := true
	for _, t := range tiles {
		if t.Height() == 0 {
			continue
		}
		if first {
			minT, maxT = t.T0, t.T1()
			first = false
			continue
		}
		if t.T0 < minT {
			minT = t.T0
		}
		if t.T1() > maxT {
			maxT = t.T1()
		}
	}
	if first {
		return make([][]int, len(tiles))
	}
	steps := make([]stepIndex, maxT-minT)
	for i, t := range tiles {
		for ts := t.T0; ts < t.T1(); ts++ {
			if b := t.At(ts); !b.Empty() {
				st := &steps[ts-minT]
				st.lo = append(st.lo, b.Lo[0])
				st.tile = append(st.tile, i)
				if e := b.Extent(0); e > st.maxExt {
					st.maxExt = e
				}
			}
		}
	}
	for k := range steps {
		sort.Sort(&steps[k])
	}

	deps := make([][]int, len(tiles))
	lastSeen := make([]int, len(tiles)) // dedup stamp per dependent tile
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	var found []int
	for i, t := range tiles {
		for ts := t.T0; ts < t.T1(); ts++ {
			if ts-1 < minT || ts-1 >= maxT {
				continue
			}
			a := t.At(ts)
			if a.Empty() {
				continue
			}
			st := &steps[ts-1-minT]
			found = found[:0]
			// A box at ts-1 shifted by d in dimension 0 can meet a grown by
			// s only if its low corner lies in [lo, hi); across a periodic
			// seam the shifted copies are queried too.
			shifts, n := seamShifts(a, s, wrap)
			for _, d := range shifts[:n] {
				lo, hi := a.Lo[0]-s-st.maxExt-d, a.Hi[0]+s-d
				for k := sort.SearchInts(st.lo, lo); k < len(st.lo) && st.lo[k] < hi; k++ {
					j := st.tile[k]
					if j == i || lastSeen[j] == i {
						continue
					}
					if intersectsGrownWrapped(a, s, tiles[j].At(ts-1), wrap) {
						lastSeen[j] = i
						found = append(found, j)
					}
				}
			}
			sort.Ints(found)
			deps[i] = append(deps[i], found...)
		}
	}
	return deps
}

// stepIndex holds one timestep's non-empty cross-sections sorted by their
// low corner in dimension 0: tile[k]'s box starts at lo[k], and maxExt is
// the widest box's extent in dimension 0.
type stepIndex struct {
	lo, tile []int
	maxExt   int
}

func (x *stepIndex) Len() int           { return len(x.lo) }
func (x *stepIndex) Less(a, b int) bool { return x.lo[a] < x.lo[b] }
func (x *stepIndex) Swap(a, b int) {
	x.lo[a], x.lo[b] = x.lo[b], x.lo[a]
	x.tile[a], x.tile[b] = x.tile[b], x.tile[a]
}

// seamShifts returns the n dimension-0 shifts under which a box can meet a
// grown by s: 0, plus ∓extent when the grown box crosses the low or high
// seam of a periodic domain.
func seamShifts(a grid.Box, s int, wrap []int) (shifts [3]int, n int) {
	n = 1
	if wrap == nil {
		return shifts, n
	}
	if a.Lo[0]-s < 0 {
		shifts[n], n = -wrap[0], n+1
	}
	if a.Hi[0]+s > wrap[0] {
		shifts[n], n = wrap[0], n+1
	}
	return shifts, n
}

// intersectsGrownWrapped tests a.Grow(s) ∩ v on the torus defined by wrap
// (nil = flat space). Only single-seam wraps matter since s is far smaller
// than any extent; each dimension contributes the shifts of v that could
// reach a across its seams.
func intersectsGrownWrapped(a grid.Box, s int, v grid.Box, wrap []int) bool {
	if a.IntersectsGrown(s, v) {
		return true
	}
	if wrap == nil {
		return false
	}
	// Enumerate shift combinations of v by ±extent in dimensions where
	// a.Grow(s) crosses the domain boundary.
	shifts := make([][]int, len(wrap))
	any := false
	for k, ext := range wrap {
		shifts[k] = []int{0}
		if a.Lo[k]-s < 0 {
			shifts[k] = append(shifts[k], -ext) // v near the high edge wraps down
			any = true
		}
		if a.Hi[k]+s > ext {
			shifts[k] = append(shifts[k], ext)
			any = true
		}
	}
	if !any {
		return false
	}
	delta := make([]int, len(wrap))
	return tryShifts(a, s, v, shifts, delta, 0)
}

func tryShifts(a grid.Box, s int, v grid.Box, shifts [][]int, delta []int, k int) bool {
	if k == len(shifts) {
		allZero := true
		for _, d := range delta {
			if d != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return false // already tested
		}
		return a.IntersectsGrown(s, v.Shift(delta))
	}
	for _, d := range shifts[k] {
		delta[k] = d
		if tryShifts(a, s, v, shifts, delta, k+1) {
			return true
		}
	}
	delta[k] = 0
	return false
}
