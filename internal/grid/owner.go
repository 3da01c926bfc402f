package grid

// Page ownership: the model of first-touch NUMA page placement. A scheme's
// Phase-I placement gives each worker a box of the grid, which that worker
// fills and so first-touches; Touch records the box's pages on the
// worker's node. The cost model then classifies every access as local or
// remote by comparing the accessing core's NUMA node with the page owner.

// PageSize returns the ownership page size in elements.
func (g *Grid) PageSize() int { return g.pageSize }

// OwnerOfIndex returns the NUMA node owning the page of flat offset idx,
// or -1 if the page has not been touched.
func (g *Grid) OwnerOfIndex(idx int) int { return int(g.pageOwner[idx/g.pageSize]) }

// Touch records node as the first-touch owner of every page overlapping the
// box b. Pages already owned keep their owner, exactly like first-touch:
// only the first writer places a page.
func (g *Grid) Touch(b Box, node int) {
	// The rows come in increasing offset, so a row ending before done, the
	// end of the last page handled, has nothing left to place: short rows
	// cost a comparison each, not two divisions.
	done := 0
	g.ForEachRow(b, func(off, length int, _ []int) {
		if off+length <= done {
			return
		}
		first := max(off, done) / g.pageSize
		last := (off + length - 1) / g.pageSize
		for p := first; p <= last; p++ {
			if g.pageOwner[p] < 0 {
				g.pageOwner[p] = int32(node)
			}
		}
		done = (last + 1) * g.pageSize
	})
}

// OwnershipCount returns, for a box, the number of elements owned by each of
// numNodes nodes; index numNodes holds elements on untouched pages.
func (g *Grid) OwnershipCount(b Box, numNodes int) []int64 {
	counts := make([]int64, numNodes+1)
	g.OwnershipCountInto(b, counts)
	return counts
}

// OwnershipCountInto is OwnershipCount accumulating into a caller-provided
// slice of length numNodes+1, zeroed first. Per-tile accounting (the
// perfcount collector) reuses one scratch slice per worker, keeping the
// instrumented hot path allocation-free.
func (g *Grid) OwnershipCountInto(b Box, counts []int64) {
	for i := range counts {
		counts[i] = 0
	}
	numNodes := len(counts) - 1
	g.ForEachRow(b, func(off, length int, _ []int) {
		for length > 0 {
			p := off / g.pageSize
			// Elements of this row remaining on page p.
			pageEnd := (p + 1) * g.pageSize
			run := pageEnd - off
			if run > length {
				run = length
			}
			o := g.pageOwner[p]
			if o < 0 || int(o) >= numNodes {
				counts[numNodes] += int64(run)
			} else {
				counts[o] += int64(run)
			}
			off += run
			length -= run
		}
	})
}

// LocalFraction returns the fraction of the box's elements whose pages are
// owned by node. Untouched pages count as remote. An empty box yields 1
// (nothing to fetch remotely).
func (g *Grid) LocalFraction(b Box, node, numNodes int) float64 {
	total := b.Intersect(g.Bounds()).Size()
	if total == 0 {
		return 1
	}
	counts := g.OwnershipCount(b.Intersect(g.Bounds()), numNodes)
	if node < 0 || node >= numNodes {
		return 0
	}
	return float64(counts[node]) / float64(total)
}
