// Package tiling defines the contract every stencil scheme implements — a
// tiler turning a problem into space-time tiles plus a NUMA data
// distribution — and the domain-decomposition helpers of Section III-D that
// the NUMA-aware schemes share.
package tiling

import (
	"fmt"
	"sort"

	"nustencil/internal/affinity"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
)

// Problem is one iterative stencil computation to be tiled.
type Problem struct {
	Grid      *grid.Grid
	Stencil   *stencil.Stencil
	Timesteps int
	// Workers is the number of threads n; worker w runs on virtual core w.
	Workers int
	// Topo maps virtual cores to NUMA nodes (socket-by-socket pinning).
	Topo affinity.Topology
	// LLCBytesPerWorker is the last-level-cache capacity available to one
	// worker, the cache parameter the cache-aware schemes size their
	// wavefronts from.
	LLCBytesPerWorker int64
	// Periodic selects wrapped boundaries: every cell updates and reads
	// wrap across the seams. Only the naive scheme tiles periodic
	// problems; the temporal blocking schemes require Dirichlet
	// boundaries (their tile geometry assumes a flat space).
	Periodic bool
}

// Interior returns the updatable region: the grid interior for Dirichlet
// boundaries, the whole grid for periodic ones.
func (p *Problem) Interior() grid.Box {
	if p.Periodic {
		return p.Grid.Bounds()
	}
	return p.Grid.Interior(p.Stencil.Order)
}

// NodeOfWorker maps a worker to its NUMA node, defaulting to a single node
// when no topology is configured.
func (p *Problem) NodeOfWorker(w int) int {
	if p.Topo == nil {
		return 0
	}
	return p.Topo.NodeOfCore(w)
}

// NumNodes returns the number of NUMA nodes implied by the topology over
// the active workers (at least 1).
func (p *Problem) NumNodes() int {
	return affinity.NumNodes(p.Topo, p.Workers)
}

// Validate checks the problem is well formed.
func (p *Problem) Validate() error {
	if p.Grid == nil || p.Stencil == nil {
		return fmt.Errorf("tiling: grid and stencil are required")
	}
	if p.Grid.NumDims() != p.Stencil.NumDims {
		return fmt.Errorf("tiling: %dD stencil on %dD grid", p.Stencil.NumDims, p.Grid.NumDims())
	}
	if p.Timesteps < 0 {
		return fmt.Errorf("tiling: negative timesteps")
	}
	if p.Workers <= 0 {
		return fmt.Errorf("tiling: workers must be positive, got %d", p.Workers)
	}
	if p.Interior().Empty() {
		return fmt.Errorf("tiling: grid %v has empty interior for order %d", p.Grid.Dims(), p.Stencil.Order)
	}
	if p.Periodic {
		for _, d := range p.Grid.Dims() {
			if d < 2*p.Stencil.Order+1 {
				return fmt.Errorf("tiling: dimension %d too small for periodic order %d", d, p.Stencil.Order)
			}
		}
	}
	return nil
}

// RequireDirichlet rejects periodic problems for schemes whose space-time
// geometry assumes a flat space.
func RequireDirichlet(p *Problem, scheme string) error {
	if p.Periodic {
		return fmt.Errorf("tiling: %s requires Dirichlet boundaries; periodic problems run with the naive scheme", scheme)
	}
	return nil
}

// Scheme is a tiling scheme: it distributes pages across NUMA nodes
// (first-touch Phase I) and produces the space-time tiles covering the
// problem exactly once.
type Scheme interface {
	// Name returns the scheme's figure-legend name (e.g. "nuCORALS").
	Name() string
	// NUMAAware reports whether the scheme observes data-to-core affinity.
	NUMAAware() bool
	// Distribute records page ownership on the problem's grid the way the
	// scheme's initialization would place pages.
	Distribute(p *Problem)
	// Tiles produces the space-time tiling for [0, Timesteps).
	Tiles(p *Problem) ([]*spacetime.Tile, error)
}

// StepBox is one unit of in-tile work: a spatial box executed at timestep T.
type StepBox struct {
	T   int
	Box grid.Box
}

// Traverser is implemented by schemes whose in-tile traversal differs from
// plain time-major cross-section order — CATS/nuCATS execute their slabs as
// a wavefront along the traversal dimension, which is what makes them
// "cache accurate". Traverse must cover exactly the tile's points, each
// once, in an order where every point's inputs (neighbours at the previous
// timestep) are produced earlier within the tile or outside it.
type Traverser interface {
	Traverse(tile *spacetime.Tile, order int) []StepBox
}

// TraverseOrDefault returns the scheme's in-tile order, falling back to
// time-major cross-sections.
func TraverseOrDefault(s Scheme, tile *spacetime.Tile, order int) []StepBox {
	if tr, ok := s.(Traverser); ok {
		return tr.Traverse(tile, order)
	}
	out := make([]StepBox, 0, tile.Height())
	for ts := tile.T0; ts < tile.T1(); ts++ {
		out = append(out, StepBox{T: ts, Box: tile.At(ts)})
	}
	return out
}

// Decompose splits the interior into boxes arranged as a tensor grid over
// the spatial dimensions, excluding the unit-stride (last) dimension as
// Section III-D prescribes (cutting it would hurt bandwidth utilization).
// Each decomposed dimension receives ≈ n^(1/(m-2)) cuts, with higher-stride
// dimensions favored when n does not split evenly. The returned counts give
// the number of parts per dimension (product == len(boxes)).
//
// Counts are extent-aware: no dimension is cut into more parts than it has
// cells, so every returned box is non-empty. When the interior is too small
// to host n parts the product of the counts falls below n — callers get
// fewer subdomains, never degenerate ones.
//
// A 1-dimensional grid has only the unit-stride dimension; it is cut anyway
// since there is no alternative.
func Decompose(interior grid.Box, n int) (boxes []grid.Box, counts []int) {
	nd := interior.NumDims()
	ext := make([]int, nd)
	for k := 0; k < nd; k++ {
		ext[k] = interior.Extent(k)
	}
	counts = DecomposeCountsFor(ext, n)
	// Build the tensor product of per-dimension splits.
	splits := make([][]int, nd) // cut coordinates including both ends
	for k := 0; k < nd; k++ {
		splits[k] = EvenCuts(interior.Lo[k], interior.Hi[k], counts[k])
	}
	boxes = []grid.Box{interior.Clone()}
	for k := 0; k < nd; k++ {
		var next []grid.Box
		for _, b := range boxes {
			for i := 0; i+1 < len(splits[k]); i++ {
				nb := b.Clone()
				nb.Lo[k], nb.Hi[k] = splits[k][i], splits[k][i+1]
				next = append(next, nb)
			}
		}
		boxes = next
	}
	return boxes, counts
}

// DecomposeCountsFor returns the per-dimension part counts of the Section
// III-D decomposition of a grid with interior extents ext among n threads.
// The prime factors of n are distributed largest-first over the
// non-unit-stride dimensions (smallest current count wins, highest stride
// breaks ties), but a dimension never receives a factor that would push its
// part count past its extent. A factor no dimension can absorb whole is rebalanced onto the
// largest partial cut a non-unit-stride dimension still offers; only when
// every non-unit-stride dimension is saturated does the unit-stride
// dimension absorb parts (Section III-D: cutting it hurts bandwidth, but
// one-cell-wide parts would be worse). Tiny interiors thus yield a product
// below n rather than zero-width parts: every returned count satisfies
// 1 <= counts[k] <= max(ext[k], 1) and the product never exceeds n.
func DecomposeCountsFor(ext []int, n int) []int {
	nd := len(ext)
	counts := make([]int, nd)
	lim := make([]int, nd)
	for k := range counts {
		counts[k] = 1
		lim[k] = ext[k]
		if lim[k] < 1 {
			lim[k] = 1
		}
	}
	// Candidate dimensions: all but the last, unless that leaves none.
	cand := nd - 1
	if cand == 0 {
		cand = 1
	}
	fits := func(k, f int) bool { return counts[k] <= lim[k]/f }
	// place tries one factor on dims [from,to): whole if it fits, else the
	// largest partial cut (capped at f so the running product stays <= n).
	place := func(f, from, to int) bool {
		best := -1
		for k := from; k < to; k++ {
			if fits(k, f) && (best < 0 || counts[k] < counts[best]) {
				best = k
			}
		}
		if best >= 0 {
			counts[best] *= f
			return true
		}
		bestGain := 1
		for k := from; k < to; k++ {
			gain := lim[k] / counts[k]
			if gain > f {
				gain = f
			}
			if gain > bestGain {
				best, bestGain = k, gain
			}
		}
		if best >= 0 {
			counts[best] *= bestGain
			return true
		}
		return false
	}
	for _, f := range primeFactorsDesc(n) {
		if !place(f, 0, cand) {
			place(f, cand, nd)
		}
	}
	return counts
}

// EvenCuts returns c+1 monotone cut coordinates dividing [lo,hi) into c
// near-equal parts. When the span has at least one cell, c is clamped to
// the span so no part is empty.
func EvenCuts(lo, hi, c int) []int {
	if c < 1 {
		c = 1
	}
	ext := hi - lo
	if ext >= 1 && c > ext {
		c = ext
	}
	cuts := make([]int, c+1)
	for i := 0; i <= c; i++ {
		cuts[i] = lo + i*ext/c
	}
	return cuts
}

// primeFactorsDesc factors n into primes, largest first. n <= 1 yields nil.
func primeFactorsDesc(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(fs)))
	return fs
}

// WorkerOfBox returns, for a list of subdomain boxes from Decompose, the
// index whose box contains the most of b — "assigns tiles to threads based
// on which subdomain contains most of the tile" (Section II). Ties go to
// the lowest index.
func WorkerOfBox(subdomains []grid.Box, b grid.Box) int {
	best, bestOverlap := 0, int64(-1)
	for i, sd := range subdomains {
		if ov := sd.Intersect(b).Size(); ov > bestOverlap {
			best, bestOverlap = i, ov
		}
	}
	return best
}

// TouchSubdomains records first-touch ownership: worker w's subdomain pages
// land on w's NUMA node. This is Phase I of the NUMA-aware schemes.
func TouchSubdomains(p *Problem, subdomains []grid.Box) {
	for w, sd := range subdomains {
		p.Grid.Touch(sd, p.NodeOfWorker(w))
	}
	// The boundary ring and any rounding leftovers fault on node 0 (the
	// master thread initializes whatever the workers did not).
	p.Grid.TouchAll(p.NodeOfWorker(0))
}

// TouchSerial records the NUMA-ignorant initialization: a serial init loop
// first-touches every page on the master's node.
func TouchSerial(p *Problem) {
	p.Grid.TouchAll(p.NodeOfWorker(0))
}
