package tiling

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nustencil/internal/affinity"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
)

func interior3(x, y, z int) grid.Box {
	return grid.NewBox([]int{1, 1, 1}, []int{x + 1, y + 1, z + 1})
}

func TestDecomposeSectionIIIDExamples(t *testing.T) {
	// m=4 space-time (3D space): n=4 -> 2x2x1; n=8 -> 4x2x1 with the
	// higher-stride dimension getting the 4.
	in := interior3(16, 16, 16)
	_, counts := Decompose(in, 4)
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("n=4 counts = %v, want [2 2 1]", counts)
	}
	_, counts = Decompose(in, 8)
	if counts[0] != 4 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("n=8 counts = %v, want [4 2 1]", counts)
	}
	_, counts = Decompose(in, 6)
	if counts[0]*counts[1] != 6 || counts[2] != 1 || counts[0] < counts[1] {
		t.Errorf("n=6 counts = %v", counts)
	}
}

func TestDecomposeNeverCutsUnitStride(t *testing.T) {
	in := interior3(8, 8, 64)
	for n := 1; n <= 16; n++ {
		boxes, counts := Decompose(in, n)
		if counts[2] != 1 {
			t.Errorf("n=%d cut the unit-stride dimension: %v", n, counts)
		}
		// Extent-aware counts: n that factors into the 8x8 candidate grid
		// yields exactly n boxes; primes beyond an extent rebalance to the
		// largest partial cut, never to empty boxes.
		if len(boxes) != counts[0]*counts[1]*counts[2] || len(boxes) > n {
			t.Errorf("n=%d produced %d boxes, counts %v", n, len(boxes), counts)
		}
		for _, b := range boxes {
			if b.Empty() {
				t.Fatalf("n=%d produced empty box %v (counts %v)", n, b, counts)
			}
		}
	}
	// All of 1..10, 12, 14..16 factor into the 8x8 candidate grid exactly.
	for _, n := range []int{6, 8, 10, 12, 16} {
		if boxes, _ := Decompose(in, n); len(boxes) != n {
			t.Errorf("n=%d should split exactly, got %d boxes", n, len(boxes))
		}
	}
}

func TestDecomposeTinyInteriorNeverEmpty(t *testing.T) {
	// The issue case: a 3-wide interior split for 4 workers must not
	// produce an empty (Lo==Hi) box. The leftover factor the 3-wide
	// dimension cannot absorb rebalances onto the unit-stride dimension.
	in := grid.NewBox([]int{1, 1}, []int{4, 33})
	boxes, counts := Decompose(in, 4)
	if len(boxes) != 4 || counts[0] != 2 || counts[1] != 2 {
		t.Errorf("3-wide x 4 workers: boxes=%d counts=%v, want 4 [2 2]", len(boxes), counts)
	}
	for _, b := range boxes {
		if b.Empty() {
			t.Fatalf("empty box %v", b)
		}
	}
	// Unit-stride absorbs parts only once all other dims are saturated.
	in = grid.NewBox([]int{1, 1}, []int{2, 9})
	boxes, counts = Decompose(in, 8)
	if counts[0] != 1 || counts[1] != 8 || len(boxes) != 8 {
		t.Errorf("1x8 interior x 8 workers: boxes=%d counts=%v, want 8 [1 8]", len(boxes), counts)
	}
}

func TestDecomposeCountsForBounds(t *testing.T) {
	for _, tc := range []struct {
		ext []int
		n   int
	}{
		{[]int{3, 3, 3}, 64}, {[]int{1, 1, 1}, 7}, {[]int{5}, 13},
		{[]int{2, 64}, 12}, {[]int{17, 1, 9}, 6},
	} {
		counts := DecomposeCountsFor(tc.ext, tc.n)
		prod := 1
		for k, c := range counts {
			lim := tc.ext[k]
			if lim < 1 {
				lim = 1
			}
			if c < 1 || c > lim {
				t.Errorf("ext=%v n=%d: counts[%d]=%d out of [1,%d]", tc.ext, tc.n, k, c, lim)
			}
			prod *= c
		}
		if prod > tc.n {
			t.Errorf("ext=%v n=%d: product %d exceeds n", tc.ext, tc.n, prod)
		}
	}
}

// primeFactorsDesc factors as it did before its loop bound changed from
// f*f <= n to f <= n/f. 2147483647 is the largest int32, a prime: under
// GOARCH=386 the old f*f wrapped, so the old loop ran about 2·10⁹ trial
// divisions on it where the new one runs 46,339. A prime near the largest
// int64 takes about 3·10⁹ even now, so it is not run here.
func TestPrimeFactorsDesc(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{0, nil}, {1, nil}, {2, []int{2}}, {49, []int{7, 7}},
		{210, []int{7, 5, 3, 2}}, {2147483647, []int{2147483647}},
	} {
		if got := primeFactorsDesc(tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("primeFactorsDesc(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestDecompose1DGridCutsOnlyDim(t *testing.T) {
	in := grid.NewBox([]int{1}, []int{41})
	boxes, counts := Decompose(in, 4)
	if counts[0] != 4 || len(boxes) != 4 {
		t.Errorf("1D: counts=%v boxes=%d", counts, len(boxes))
	}
}

func TestDecomposePartitionProperty(t *testing.T) {
	// For any valid interior (every extent >= 1) and any worker count,
	// Decompose returns product(counts) non-empty boxes that partition the
	// interior exactly, with no dimension cut finer than its extent.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nd := 1 + r.Intn(4)
		lo := make([]int, nd)
		hi := make([]int, nd)
		for k := range lo {
			lo[k] = r.Intn(3)
			hi[k] = lo[k] + 1 + r.Intn(23) // extents down to 1: the degenerate zone
		}
		in := grid.Box{Lo: lo, Hi: hi}
		n := 1 + r.Intn(64)
		boxes, counts := Decompose(in, n)
		prod := 1
		for k, c := range counts {
			if c < 1 || c > in.Extent(k) {
				return false
			}
			prod *= c
		}
		if prod > n || len(boxes) != prod {
			return false
		}
		// Partition: non-empty, sizes sum, pairwise disjoint.
		var sum int64
		for i, b := range boxes {
			if b.Empty() {
				return false
			}
			sum += b.Size()
			for j := i + 1; j < len(boxes); j++ {
				if b.Intersects(boxes[j]) {
					return false
				}
			}
			if !in.ContainsBox(b) {
				return false
			}
		}
		return sum == in.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSkewedBoxPartitionAtEveryOffset(t *testing.T) {
	in := grid.NewBox([]int{0, 0}, []int{40, 24})
	splits := [][]int{{0, 10, 20, 30, 40}, {0, 24}}
	slope := []int{1, 0}
	for dt := 0; dt < 30; dt++ { // far enough that cuts clamp
		var sum int64
		var boxes []grid.Box
		for i := 0; i < 4; i++ {
			b := SkewedBoxAt(in, splits, []int{i, 0}, slope, dt)
			sum += b.Size()
			boxes = append(boxes, b)
		}
		if sum != in.Size() {
			t.Fatalf("dt=%d: sum=%d want %d", dt, sum, in.Size())
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if boxes[i].Intersects(boxes[j]) {
					t.Fatalf("dt=%d: slabs %d,%d overlap", dt, i, j)
				}
			}
		}
	}
}

func TestSkewedBoxPinnedEdges(t *testing.T) {
	in := grid.NewBox([]int{2}, []int{42})
	splits := [][]int{{2, 22, 42}}
	// Left slab's left edge stays pinned; interior cut moves.
	b0 := SkewedBoxAt(in, splits, []int{0}, []int{3}, 5)
	if b0.Lo[0] != 2 || b0.Hi[0] != 37 {
		t.Errorf("slab 0 at dt=5: %v", b0)
	}
	b1 := SkewedBoxAt(in, splits, []int{1}, []int{3}, 5)
	if b1.Lo[0] != 37 || b1.Hi[0] != 42 {
		t.Errorf("slab 1 at dt=5: %v", b1)
	}
	// Far offsets clamp to the domain edge.
	bFar := SkewedBoxAt(in, splits, []int{1}, []int{3}, 100)
	if !bFar.Empty() {
		t.Errorf("slab 1 at dt=100 should be empty, got %v", bFar)
	}
}

func TestProblemValidate(t *testing.T) {
	g := grid.New([]int{8, 8})
	st := stencil.NewStar(2, 1)
	good := &Problem{Grid: g, Stencil: st, Timesteps: 3, Workers: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good problem rejected: %v", err)
	}
	bad := []*Problem{
		{Stencil: st, Timesteps: 1, Workers: 1},
		{Grid: g, Timesteps: 1, Workers: 1},
		{Grid: g, Stencil: stencil.NewStar(3, 1), Timesteps: 1, Workers: 1},
		{Grid: g, Stencil: st, Timesteps: -1, Workers: 1},
		{Grid: g, Stencil: st, Timesteps: 1, Workers: 0},
		{Grid: grid.New([]int{2, 2}), Stencil: st, Timesteps: 1, Workers: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestProblemNodeHelpers(t *testing.T) {
	p := &Problem{Workers: 8, Topo: affinity.Fixed{Cores: 8, Nodes: 4}}
	if p.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", p.NumNodes())
	}
	if p.NodeOfWorker(7) != 3 {
		t.Errorf("NodeOfWorker(7) = %d", p.NodeOfWorker(7))
	}
	bare := &Problem{Workers: 4}
	if bare.NumNodes() != 1 || bare.NodeOfWorker(3) != 0 {
		t.Error("topology-less problem should be single-node")
	}
}

// stubScheme is a Scheme of a given NUMA awareness and, when subs is set,
// given subdomains.
type stubScheme struct {
	aware bool
	subs  func(p *Problem) []grid.Box
}

func (stubScheme) Name() string                              { return "stub" }
func (s stubScheme) NUMAAware() bool                         { return s.aware }
func (s stubScheme) Distribute(p *Problem)                   { Distribute(s, p) }
func (stubScheme) Tiles(*Problem) ([]*spacetime.Tile, error) { return nil, nil }

type stubSubdomainer struct{ stubScheme }

func (s stubSubdomainer) Subdomains(p *Problem) []grid.Box { return s.subs(p) }

// Placement's boxes cover the whole grid, boundary ring included, each
// cell once; the step count does not change them; and Place records box
// w's pages on worker w's node, a page two boxes share on the lower
// worker's, leaving no page unowned.
func TestPlacementCoversGrid(t *testing.T) {
	slabs := func(p *Problem) []grid.Box {
		in := p.Interior()
		cuts := EvenCuts(in.Lo[0], in.Hi[0], p.Workers)
		var out []grid.Box
		for i := 0; i+1 < len(cuts); i++ {
			b := in.Clone()
			b.Lo[0], b.Hi[0] = cuts[i], cuts[i+1]
			out = append(out, b)
		}
		return out
	}
	schemes := map[string]Scheme{
		"ignorant":    stubScheme{},
		"decompose":   stubScheme{aware: true},
		"subdomainer": stubSubdomainer{stubScheme{aware: true, subs: slabs}},
	}
	for _, dims := range [][]int{{9}, {4, 16}, {12, 7}, {6, 7, 8}, {3, 3, 40}} {
		for _, workers := range []int{1, 2, 3, 4} {
			for _, periodic := range []bool{false, true} {
				for name, s := range schemes {
					g := grid.NewWithPageSize(dims, 4)
					p := &Problem{Grid: g, Stencil: stencil.NewStar(len(dims), 1), Timesteps: 1,
						Workers: workers, Topo: affinity.Fixed{Cores: workers, Nodes: 2}, Periodic: periodic}
					boxes := Placement(s, p)
					if len(boxes) == 0 || len(boxes) > workers {
						t.Fatalf("%s %v×%d: %d boxes", name, dims, workers, len(boxes))
					}
					if !s.NUMAAware() && (len(boxes) != 1 || !slices.Equal(boxes[0].Hi, dims)) {
						t.Fatalf("%s %v×%d: %v, want the whole grid on worker 0", name, dims, workers, boxes)
					}
					seen := make([]int, g.Len())
					for _, b := range boxes {
						g.ForEachRow(b, func(off, n int, _ []int) {
							for i := off; i < off+n; i++ {
								seen[i]++
							}
						})
					}
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("%s %v×%d periodic %v: cell %d in %d boxes", name, dims, workers, periodic, i, c)
						}
					}
					p.Timesteps = 50
					if again := Placement(s, p); !slices.EqualFunc(again, boxes, grid.Box.Equal) {
						t.Fatalf("%s %v×%d: placement moved with the step count: %v, then %v", name, dims, workers, boxes, again)
					}
					Place(p, boxes)
					for pg := 0; pg*g.PageSize() < g.Len(); pg++ {
						want := -1
						for w, b := range boxes {
							lo, hi := pg*g.PageSize(), min((pg+1)*g.PageSize(), g.Len())
							in := false
							g.ForEachRow(b, func(off, n int, _ []int) { in = in || (off < hi && off+n > lo) })
							if in {
								want = p.NodeOfWorker(w)
								break
							}
						}
						if got := g.OwnerOfIndex(pg * g.PageSize()); got != want {
							t.Fatalf("%s %v×%d: page %d on node %d, want %d", name, dims, workers, pg, got, want)
						}
					}
				}
			}
		}
	}
}
