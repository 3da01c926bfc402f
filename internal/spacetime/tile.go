package spacetime

import (
	"fmt"

	"nustencil/internal/grid"
)

// Tile is a materialized space-time tile: an explicit (already clipped)
// spatial box for each timestep it covers. Tiles are what the engine
// schedules and what the cost model prices. Explicit cross-sections make
// arbitrary shapes representable — boxes, parallelograms, and the split
// parallelogram fragments that nuCORALS creates at thread boundaries.
type Tile struct {
	ID    int
	T0    int
	Cross []grid.Box // Cross[i] = spatial box updated at timestep T0+i

	// Owner is the worker that should execute the tile; -1 means any
	// worker may take it (the round-robin / NUMA-ignorant case).
	Owner int
	// Node is the NUMA node of the data the tile predominantly touches,
	// as determined by the scheme's decomposition; -1 if unknown.
	Node int
}

// makeCross returns height boxes of nd dimensions carved out of one shared
// backing allocation, so materializing a tile costs two allocations (the
// Cross slice and the int backing) regardless of its height.
func makeCross(height, nd int) []grid.Box {
	cross := make([]grid.Box, height)
	m := make([]int, 2*nd*height)
	for i, off := 0, 0; i < height; i, off = i+1, off+2*nd {
		cross[i] = grid.Box{Lo: m[off : off+nd : off+nd], Hi: m[off+nd : off+2*nd : off+2*nd]}
	}
	return cross
}

// NewTileFromBox builds an unskewed tile: the same box at every timestep in
// [t0, t0+height), clipped to clip.
func NewTileFromBox(b grid.Box, t0, height int, clip grid.Box) *Tile {
	t := &Tile{T0: t0, Owner: -1, Node: -1, Cross: make([]grid.Box, height)}
	c := b.Intersect(clip)
	for i := range t.Cross {
		t.Cross[i] = c
	}
	return t
}

// NewTileFromPgram materializes a parallelogram, clipping every
// cross-section to clip (normally the grid interior).
func NewTileFromPgram(p Pgram, clip grid.Box) *Tile {
	nd := p.Base.NumDims()
	t := &Tile{T0: p.T0, Owner: -1, Node: -1, Cross: makeCross(p.Height, nd)}
	for i := 0; i < p.Height; i++ {
		p.CrossSectionInto(p.T0+i, t.Cross[i])
		t.Cross[i].ClipTo(clip)
	}
	return t
}

// T1 returns the exclusive end timestep.
func (t *Tile) T1() int { return t.T0 + len(t.Cross) }

// Height returns the number of timesteps the tile covers.
func (t *Tile) Height() int { return len(t.Cross) }

// At returns the cross-section at absolute timestep ts, or an empty box if
// ts is outside the tile's time range.
func (t *Tile) At(ts int) grid.Box {
	if ts < t.T0 || ts >= t.T1() {
		return grid.MakeBox(t.NumDims())
	}
	return t.Cross[ts-t.T0]
}

// NumDims returns the spatial dimensionality.
func (t *Tile) NumDims() int {
	if len(t.Cross) == 0 {
		return 0
	}
	return t.Cross[0].NumDims()
}

// Updates returns the total number of point updates the tile performs.
func (t *Tile) Updates() int64 {
	var n int64
	for _, c := range t.Cross {
		n += c.Size()
	}
	return n
}

// Empty reports whether the tile performs no updates.
func (t *Tile) Empty() bool { return t.Updates() == 0 }

// BBoxInto writes the spatial bounding box over all cross-sections into dst
// (which must have the tile's dimensionality) and returns dst, without
// allocating. If the tile is empty, dst is zeroed.
func (t *Tile) BBoxInto(dst grid.Box) grid.Box {
	first := true
	for _, c := range t.Cross {
		if c.Empty() {
			continue
		}
		if first {
			dst.CopyFrom(c)
			first = false
			continue
		}
		for k := range dst.Lo {
			if c.Lo[k] < dst.Lo[k] {
				dst.Lo[k] = c.Lo[k]
			}
			if c.Hi[k] > dst.Hi[k] {
				dst.Hi[k] = c.Hi[k]
			}
		}
	}
	if first {
		for k := range dst.Lo {
			dst.Lo[k], dst.Hi[k] = 0, 0
		}
	}
	return dst
}

// Intersect returns a new tile covering, at every timestep of t, the
// intersection of t's cross-section with p's cross-section at that timestep
// (empty where their time ranges do not overlap). Used to split base
// parallelograms at thread-parallelogram boundaries.
func (t *Tile) Intersect(p Pgram) *Tile {
	nd := t.NumDims()
	out := &Tile{T0: t.T0, Owner: t.Owner, Node: t.Node, Cross: makeCross(len(t.Cross), nd)}
	sc := grid.MakeBox(nd)
	for i, c := range t.Cross {
		ts := t.T0 + i
		dst := out.Cross[i].CopyFrom(c)
		if ts >= p.T0 && ts < p.T1() {
			dst.ClipTo(p.CrossSectionInto(ts, sc))
		} else {
			dst.Hi[0] = dst.Lo[0]
		}
	}
	return out
}

// IntersectTile returns a new tile covering, at every timestep of t, the
// intersection of t's cross-section with o's cross-section at the same
// timestep. Owner and Node are taken from t.
func (t *Tile) IntersectTile(o *Tile) *Tile {
	nd := t.NumDims()
	out := &Tile{T0: t.T0, Owner: t.Owner, Node: t.Node, Cross: makeCross(len(t.Cross), nd)}
	for i, c := range t.Cross {
		ts := t.T0 + i
		dst := out.Cross[i].CopyFrom(c)
		if ts >= o.T0 && ts < o.T1() {
			dst.ClipTo(o.Cross[ts-o.T0])
		} else {
			dst.Hi[0] = dst.Lo[0]
		}
	}
	return out
}

// Subtract returns a new tile covering, at every timestep, t's cross-section
// with p's cross-section removed along dimension k only: the part of each
// row interval at or above p's upper bound plus the part below p's lower
// bound cannot both be non-empty for the shapes used here, so Subtract
// requires that the remainder be a single interval in dimension k and panics
// otherwise. This keeps tiles box-per-timestep.
func (t *Tile) Subtract(p Pgram, k int) *Tile {
	nd := t.NumDims()
	out := &Tile{T0: t.T0, Owner: t.Owner, Node: t.Node, Cross: makeCross(len(t.Cross), nd)}
	sc := grid.MakeBox(nd)
	for i, c := range t.Cross {
		ts := t.T0 + i
		if c.Empty() || ts < p.T0 || ts >= p.T1() {
			out.Cross[i].CopyFrom(c)
			continue
		}
		pc := p.CrossSectionInto(ts, sc)
		lo, hi := c.Lo[k], c.Hi[k]
		plo, phi := pc.Lo[k], pc.Hi[k]
		// Remainder of [lo,hi) after removing [plo,phi).
		leftEmpty := plo <= lo
		rightEmpty := phi >= hi
		r := out.Cross[i].CopyFrom(c)
		switch {
		case leftEmpty && rightEmpty:
			r.Hi[k] = r.Lo[k] // fully removed
		case leftEmpty:
			r.Lo[k] = phi
		case rightEmpty:
			r.Hi[k] = plo
		default:
			panic("spacetime: Subtract would split the tile into two intervals")
		}
		out.Cross[i] = r
	}
	return out
}

func (t *Tile) String() string {
	return fmt.Sprintf("Tile{id=%d t=[%d,%d) owner=%d updates=%d}", t.ID, t.T0, t.T1(), t.Owner, t.Updates())
}
