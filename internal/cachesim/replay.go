package cachesim

import (
	"fmt"

	"nustencil/internal/engine"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
)

// Replay builds a scheme's tiling for the problem, orders the tiles
// topologically, and replays every tile's reads and writes at line
// granularity through a simulated hierarchy, attributing each access to the
// owning worker's core. It returns the populated system and the number of
// point updates replayed.
//
// The address space lays out the two grid buffers and (for banded
// stencils) the coefficient planes back to back; page ownership transfers
// from the grid's first-touch map, so the scheme's Distribute phase
// determines which NUMA node serves each miss.
func Replay(p *tiling.Problem, sch tiling.Scheme, levels []LevelConfig) (*System, int64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	topo := Topology{Cores: p.Workers, CoresPerSocket: coresPerSocket(p)}
	sys, err := New(topo, levels, p.Grid.PageSize()*8)
	if err != nil {
		return nil, 0, err
	}

	sch.Distribute(p)
	tiles, err := sch.Tiles(p)
	if err != nil {
		return nil, 0, err
	}
	order, err := topoOrder(tiles, p.Stencil.Order, p.Workers)
	if err != nil {
		return nil, 0, err
	}

	// Address bases: buffer 0, buffer 1, then one plane per stencil point
	// for banded coefficients.
	gridBytes := int64(p.Grid.Len()) * 8
	bufBase := [2]int64{0, gridBytes}
	coeffBase := func(point int) int64 { return 2*gridBytes + int64(point)*gridBytes }

	// Transfer page ownership: the grid's element pages map one-to-one to
	// byte pages of each buffer and coefficient plane.
	pageElems := int64(p.Grid.PageSize())
	numPlanes := 2
	if p.Stencil.Kind == stencil.Variable {
		numPlanes += p.Stencil.NumPoints()
	}
	for pg := int64(0); pg*pageElems < int64(p.Grid.Len()); pg++ {
		node := p.Grid.OwnerOfIndex(int(pg * pageElems))
		if node < 0 {
			continue
		}
		for plane := 0; plane < numPlanes; plane++ {
			sys.TouchRange(int64(plane)*gridBytes+pg*pageElems*8, pageElems*8, node)
		}
	}

	offs := flatOffsets(p)
	var updates int64
	for seq, ti := range order {
		tile := tiles[ti]
		core := tile.Owner
		if core < 0 {
			core = seq % p.Workers // shared queue: approximate work stealing
		}
		for _, sb := range tiling.TraverseOrDefault(sch, tile, p.Stencil.Order) {
			ts := sb.T
			box := sb.Box.Intersect(p.Interior())
			if box.Empty() {
				continue
			}
			src := bufBase[ts&1]
			dst := bufBase[(ts+1)&1]
			p.Grid.ForEachRow(box, func(off, length int, _ []int) {
				updates += int64(length)
				for pi, fo := range offs {
					a := src + int64(off+fo)*8
					sys.AccessRange(core, a, int64(length)*8, false)
					if p.Stencil.Kind == stencil.Variable {
						sys.AccessRange(core, coeffBase(pi)+int64(off)*8, int64(length)*8, false)
					}
				}
				sys.AccessRange(core, dst+int64(off)*8, int64(length)*8, true)
			})
		}
	}
	return sys, updates, nil
}

// coresPerSocket derives the socket size from the problem's topology by
// finding where the node id first changes.
func coresPerSocket(p *tiling.Problem) int {
	if p.Topo == nil {
		return p.Workers
	}
	for w := 1; w < p.Workers; w++ {
		if p.Topo.NodeOfCore(w) != p.Topo.NodeOfCore(0) {
			return w
		}
	}
	return p.Workers
}

// topoOrder serializes the engine's scheduling policy deterministically:
// in round-robin worker turns, each worker takes its lowest-ID ready tile,
// from its own tiles first and then from the unowned ones, as engine.Run
// does. Unlike a plain Kahn BFS — which sweeps the whole domain one
// dependency layer at a time and destroys every worker's temporal reuse —
// this keeps each worker ascending its own tiles in the tiler's emission
// order, which is what the concurrent engine does and what the caches see.
func topoOrder(tiles []*spacetime.Tile, order, workers int) ([]int, error) {
	spacetime.AssignIDs(tiles)
	deps := engine.BuildDeps(tiles, order, nil)
	if err := engine.CheckDeps(deps); err != nil {
		return nil, fmt.Errorf("cachesim: %w", err)
	}
	indeg := make([]int, len(tiles))
	dependents := make([][]int, len(tiles))
	for i, ds := range deps {
		indeg[i] = len(ds)
		for _, j := range ds {
			dependents[j] = append(dependents[j], i)
		}
	}
	// ready[w] holds worker w's ready tiles, ready[workers] the unowned ones.
	ready := make([][]int, workers+1)
	push := func(i int) {
		q := workers
		if o := tiles[i].Owner; o >= 0 {
			q = o % workers
		}
		ready[q] = append(ready[q], i)
	}
	for i := range tiles {
		if indeg[i] == 0 {
			push(i)
		}
	}
	// The graph is acyclic, so every round pops at least one ready tile.
	var out []int
	for len(out) < len(tiles) {
		for w := 0; w < workers; w++ {
			q := w
			if len(ready[q]) == 0 {
				q = workers
			}
			if len(ready[q]) == 0 {
				continue
			}
			i := popLowest(&ready[q])
			out = append(out, i)
			for _, d := range dependents[i] {
				indeg[d]--
				if indeg[d] == 0 {
					push(d)
				}
			}
		}
	}
	return out, nil
}

// popLowest removes and returns the smallest tile index in the non-empty
// ready set *q.
func popLowest(q *[]int) int {
	s := *q
	m := 0
	for k := range s {
		if s[k] < s[m] {
			m = k
		}
	}
	i := s[m]
	s[m] = s[len(s)-1]
	*q = s[:len(s)-1]
	return i
}

// flatOffsets mirrors the kernel's per-point flat offsets.
func flatOffsets(p *tiling.Problem) []int {
	pts := p.Stencil.Points()
	offs := make([]int, len(pts))
	for i, pt := range pts {
		o := 0
		for k, c := range pt {
			o += c * p.Grid.Stride(k)
		}
		offs[i] = o
	}
	return offs
}
