// Package naive implements the paper's NaiveSSE comparison scheme: a plain
// per-timestep parallel sweep with NUMA-aware data distribution. It has no
// temporal blocking — its performance sits between SysBand0C and SysBandIC —
// but because it observes data-to-core affinity it scales linearly beyond
// one NUMA node, which lets it beat NUMA-ignorant temporal blocking schemes
// at high core counts (Figure 22).
package naive

import (
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
)

// Scheme is the NUMA-aware naive sweep.
type Scheme struct{}

// New returns the naive scheme.
func New() *Scheme { return &Scheme{} }

// Name implements tiling.Scheme.
func (*Scheme) Name() string { return "NaiveSSE" }

// NUMAAware implements tiling.Scheme: the naive scheme distributes data.
func (*Scheme) NUMAAware() bool { return true }

// Distribute assigns each worker's subdomain pages to its NUMA node.
func (s *Scheme) Distribute(p *tiling.Problem) { tiling.Distribute(s, p) }

// Tiles produces one tile per (worker, timestep): worker w sweeps its
// subdomain at every step. The per-step global barrier of the pthreads
// implementation is realized by the flow dependencies between neighbouring
// subdomains on consecutive steps.
func (*Scheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	interior := p.Interior()
	subs, _ := tiling.Decompose(interior, p.Workers)
	var tiles []*spacetime.Tile
	for t := 0; t < p.Timesteps; t++ {
		for w, sd := range subs {
			tile := spacetime.NewTileFromBox(sd, t, 1, interior)
			tile.Owner = w
			tile.Node = p.NodeOfWorker(w)
			tiles = append(tiles, tile)
		}
	}
	return spacetime.AssignIDs(spacetime.DropEmpty(tiles)), nil
}

var _ tiling.Scheme = (*Scheme)(nil)
