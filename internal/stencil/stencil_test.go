package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nustencil/internal/grid"
)

func TestNumPointsAndFlops(t *testing.T) {
	cases := []struct {
		dims, order, points, flops int
	}{
		{3, 1, 7, 13},  // the paper's model problem
		{3, 2, 13, 25}, // Section IV-F: s=2 has 25 flops
		{3, 3, 19, 37}, // s=3 has 37 flops
		{2, 1, 5, 9},
		{1, 1, 3, 5},
	}
	for _, c := range cases {
		s := NewStar(c.dims, c.order)
		if got := s.NumPoints(); got != c.points {
			t.Errorf("%dD s=%d NumPoints = %d, want %d", c.dims, c.order, got, c.points)
		}
		if got := s.FlopsPerUpdate(); got != c.flops {
			t.Errorf("%dD s=%d Flops = %d, want %d", c.dims, c.order, got, c.flops)
		}
	}
}

func TestReadsPerUpdateMatchPaperAccounting(t *testing.T) {
	c := NewStar(3, 1)
	if c.ReadsPerUpdate() != 7 || c.IdealReadsPerUpdate() != 1 {
		t.Errorf("constant 7pt reads = %d/%d, want 7/1",
			c.ReadsPerUpdate(), c.IdealReadsPerUpdate())
	}
	b := NewBandedStar(3, 1)
	if b.ReadsPerUpdate() != 14 || b.IdealReadsPerUpdate() != 8 {
		t.Errorf("banded 7pt reads = %d/%d, want 14/8",
			b.ReadsPerUpdate(), b.IdealReadsPerUpdate())
	}
}

func TestPointsLayout(t *testing.T) {
	s := NewStar(2, 2)
	pts := s.Points()
	if len(pts) != 9 {
		t.Fatalf("len(Points) = %d", len(pts))
	}
	want := [][]int{
		{0, 0},
		{-1, 0}, {1, 0}, {-2, 0}, {2, 0},
		{0, -1}, {0, 1}, {0, -2}, {0, 2},
	}
	for i, w := range want {
		for k := range w {
			if pts[i][k] != w[k] {
				t.Fatalf("Points[%d] = %v, want %v", i, pts[i], w)
			}
		}
	}
}

func TestStarCoefficientsSumToOne(t *testing.T) {
	for _, order := range []int{1, 2, 3} {
		s := NewStar(3, order)
		sum := 0.0
		for _, c := range s.Coeffs {
			sum += c
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("s=%d coefficient sum = %v", order, sum)
		}
	}
}

// NewCoefficients starts every cell at NewStar's weights, each point with
// a band of its own.
func TestNewCoefficientsWeights(t *testing.T) {
	g := grid.New([]int{4, 5, 6})
	for _, order := range []int{1, 2} {
		st := NewBandedStar(3, order)
		c := NewCoefficients(st, g)
		if c.NumPoints() != st.NumPoints() {
			t.Fatalf("order %d: %d bands, want %d", order, c.NumPoints(), st.NumPoints())
		}
		want := NewStar(3, order).Coeffs
		for p, band := range c.Data {
			if len(band) != g.Len() {
				t.Fatalf("order %d band %d: %d cells, want %d", order, p, len(band), g.Len())
			}
			for i, v := range band {
				if v != want[p] {
					t.Fatalf("order %d band %d cell %d: %v, want %v", order, p, i, v, want[p])
				}
			}
			band[0] = float64(-1 - p)
		}
		for p, band := range c.Data {
			if band[0] != float64(-1-p) {
				t.Fatalf("order %d: band %d shares its cells with another band", order, p)
			}
		}
	}
}

// naiveUpdate computes one stencil update at pt by direct evaluation from
// the Points list — the trusted oracle for the optimized kernels.
func naiveUpdate(s *Stencil, g *grid.Grid, c *Coefficients, pt []int, t int) float64 {
	pts := s.Points()
	acc := 0.0
	q := make([]int, len(pt))
	for i, off := range pts {
		for k := range pt {
			q[k] = pt[k] + off[k]
		}
		// Variable coefficients are indexed at the centre cell, not the
		// neighbour: row i of the banded matrix belongs to the updated cell.
		if s.Kind == Constant {
			acc += s.Coeffs[i] * g.At(t, q)
		} else {
			acc += c.Data[i][g.Index(pt)] * g.At(t, q)
		}
	}
	return acc
}

func randomGrid(r *rand.Rand, dims []int) *grid.Grid {
	g := grid.New(dims)
	g.FillFunc(func(pt []int) float64 { return r.Float64()*2 - 1 })
	return g
}

// oracleMismatch applies op to box at timestep 0 and checks every cell of
// buffer 1: inside the box against naiveUpdate plus the source term, if
// any, with ==, since every kernel sums a cell's points in point order as
// the oracle does and adds the source last; outside it against the
// sentinel the buffer was filled with. It describes the first mismatch, or
// returns "".
func oracleMismatch(op *Op, c *Coefficients, box grid.Box) string {
	const sentinel = -1234.5
	g := op.G
	for i := range g.Buf(1) {
		g.Buf(1)[i] = sentinel
	}
	if n := op.ApplyBox(box, 0); n != box.Size() {
		return fmt.Sprintf("box %v: %d updates, want %d", box, n, box.Size())
	}
	pt := make([]int, g.NumDims())
	for i := 0; i < g.Len(); i++ {
		g.Coords(i, pt)
		want := sentinel
		if box.Contains(pt) {
			want = naiveUpdate(op.St, g, c, pt, 0)
			if op.source != nil {
				want += op.source[i]
			}
		}
		if got := g.Buf(1)[i]; got != want {
			return fmt.Sprintf("box %v at %v: got %v want %v", box, pt, got, want)
		}
	}
	return ""
}

// checkRowsAgainstOracle runs oracleMismatch on sub-boxes of the interior
// that keep its full extent in the outer dimensions and span 1 to 130 cells
// of the unit-stride one, starting at each of its first four columns: every
// row length mod 4 and every start residue mod 4, so both the vector
// prefix and the Go tail run. It does so without and then with a source
// term.
func checkRowsAgainstOracle(t *testing.T, op *Op, c *Coefficients) {
	t.Helper()
	src := make([]float64, op.G.Len())
	for i := range src {
		src[i] = math.Sin(float64(i))
	}
	defer op.SetSource(nil)
	interior := op.G.Interior(op.St.Order)
	last := interior.NumDims() - 1
	for _, g := range [][]float64{nil, src} {
		op.SetSource(g)
		for lo := interior.Lo[last]; lo < interior.Lo[last]+4; lo++ {
			for n := 1; n <= 130 && lo+n <= interior.Hi[last]; n++ {
				box := interior.Clone()
				box.Lo[last], box.Hi[last] = lo, lo+n
				if msg := oracleMismatch(op, c, box); msg != "" {
					t.Fatalf("source %v: %s", g != nil, msg)
				}
			}
		}
	}
}

// The 7-point boxes here span 3 planes of 3 rows, so each vec.Star7Box
// call crosses rows and planes.
func TestApply7ptMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewStarWithCoeffs(3, 1, []float64{0.4, 0.1, 0.05, 0.15, 0.1, 0.12, 0.08})
	checkRowsAgainstOracle(t, NewOp(s, randomGrid(r, []int{5, 5, 135})), nil)
}

// checkAcrossCalls checks op over its whole interior, which must exceed
// boxCells, so that ApplyBox makes more than one call, without and then
// with a source term. A banded op is checked against its own coefficients.
func checkAcrossCalls(t *testing.T, op *Op) {
	t.Helper()
	interior := op.G.Interior(op.St.Order)
	if interior.Size() <= boxCells {
		t.Fatalf("interior of %d cells fits one call", interior.Size())
	}
	src := make([]float64, op.G.Len())
	for i := range src {
		src[i] = math.Sin(float64(i))
	}
	defer op.SetSource(nil)
	for _, g := range [][]float64{nil, src} {
		op.SetSource(g)
		if msg := oracleMismatch(op, op.vc, interior); msg != "" {
			t.Fatalf("source %v: %s", g != nil, msg)
		}
	}
}

// An interior of 18·28·133 cells, above boxCells, takes ApplyBox two
// vec.Star7Box calls: 17 planes, then 1.
func TestApply7ptMatchesOracleAcrossCalls(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	s := NewStarWithCoeffs(3, 1, []float64{0.4, 0.1, 0.05, 0.15, 0.1, 0.12, 0.08})
	checkAcrossCalls(t, NewOp(s, randomGrid(r, []int{20, 30, 135})))
}

// slowDims is a 3⁸×11 grid, beyond grid.MaxRowDims, so ApplyBox runs its
// rows through applySlow; at order 1 each row is 1 to 9 interior cells.
var slowDims = []int{3, 3, 3, 3, 3, 3, 3, 3, 11}

// The boxes here span 3 planes of 3 rows, so each vec.StarBox call crosses
// rows and planes. The order-1 star on slowDims runs one row per call.
func TestApplyGenericMatchesOracleHighOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, order := range []int{2, 3} {
		g := randomGrid(r, []int{2*order + 3, 2*order + 3, 2*order + 133})
		checkRowsAgainstOracle(t, NewOp(NewStar(3, order), g), nil)
	}
	checkRowsAgainstOracle(t, NewOp(NewStar(len(slowDims), 1), randomGrid(r, slowDims)), nil)
}

// An order-2 interior of 18·28·131 cells, above boxCells, takes ApplyBox
// two vec.StarBox calls: 17 planes, then 1.
func TestApplyGenericMatchesOracleAcrossCalls(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	checkAcrossCalls(t, NewOp(NewStar(3, 2), randomGrid(r, []int{22, 32, 135})))
}

// randomBandedOp returns a banded op of the given order on g, with random
// coefficients, and the coefficients.
func randomBandedOp(r *rand.Rand, order int, g *grid.Grid) (*Op, *Coefficients) {
	s := NewBandedStar(g.NumDims(), order)
	c := NewCoefficients(s, g)
	c.FillFunc(func(p, idx int) float64 { return r.Float64() })
	return NewBandedOp(s, g, c), c
}

// The banded boxes here span 3 planes of 3 rows, so each vec.BandBox call
// crosses rows and planes, at orders 1 and 2. The order-1 star on slowDims
// runs one row per call.
func TestApplyBandedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, order := range []int{1, 2} {
		g := randomGrid(r, []int{2*order + 3, 2*order + 3, 2*order + 133})
		op, c := randomBandedOp(r, order, g)
		checkRowsAgainstOracle(t, op, c)
	}
	op, c := randomBandedOp(r, 1, randomGrid(r, slowDims))
	checkRowsAgainstOracle(t, op, c)
}

// A banded interior of 18·28·133 cells, above boxCells, takes ApplyBox two
// vec.BandBox calls: 17 planes, then 1.
func TestApplyBandedMatchesOracleAcrossCalls(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	op, _ := randomBandedOp(r, 1, randomGrid(r, []int{20, 30, 135}))
	checkAcrossCalls(t, op)
}

func TestApplyBoxClipsToInterior(t *testing.T) {
	s := NewStar(3, 1)
	g := grid.New([]int{4, 4, 4})
	g.FillFunc(func([]int) float64 { return 1 })
	op := NewOp(s, g)
	// A box covering the whole grid must silently clip to the interior.
	n := op.ApplyBox(g.Bounds(), 0)
	if n != g.Interior(1).Size() {
		t.Fatalf("updates = %d, want %d", n, g.Interior(1).Size())
	}
	// Boundary cells of buffer 1 must be untouched (still 1).
	if got := g.At(1, []int{0, 0, 0}); got != 1 {
		t.Errorf("boundary overwritten: %v", got)
	}
}

func TestApplyBoxEmpty(t *testing.T) {
	s := NewStar(2, 1)
	g := grid.New([]int{4, 4})
	op := NewOp(s, g)
	if n := op.ApplyBox(grid.NewBox([]int{2, 2}, []int{2, 2}), 0); n != 0 {
		t.Fatalf("empty box did %d updates", n)
	}
}

func TestApplyParityAlternation(t *testing.T) {
	// Applying at t reads buf t%2 and writes (t+1)%2, so two applications
	// starting from a constant field keep it constant (weights sum to 1).
	s := NewStar(2, 1)
	g := grid.New([]int{8, 8})
	g.FillFunc(func([]int) float64 { return 3 })
	op := NewOp(s, g)
	for t0 := 0; t0 < 4; t0++ {
		op.ApplyBox(g.Interior(1), t0)
	}
	pt := []int{4, 4}
	if got := g.At(0, pt); math.Abs(got-3) > 1e-12 {
		t.Errorf("constant field drifted to %v", got)
	}
}

// Property: for random shapes and orders 1 to 3, with a unit-stride
// interior of 1 to 130 cells, the generic kernel matches the point oracle
// exactly on a random sub-box. In 3D, order 1 runs the 7-point kernel.
func TestGenericKernelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nd := 1 + r.Intn(3)
		order := 1 + r.Intn(3)
		dims := make([]int, nd)
		for k := range dims {
			dims[k] = 2*order + 1 + r.Intn(3)
		}
		dims[nd-1] = 2*order + 1 + r.Intn(130)
		g := randomGrid(r, dims)
		op := NewOp(NewStar(nd, order), g)
		box := g.Interior(order)
		for k := range box.Lo {
			box.Lo[k] += r.Intn(box.Extent(k))
			box.Hi[k] = box.Lo[k] + 1 + r.Intn(box.Hi[k]-box.Lo[k])
		}
		if msg := oracleMismatch(op, nil, box); msg != "" {
			t.Logf("seed %d, dims %v, order %d: %s", seed, dims, order, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
