package stencil

import (
	"math"
	"math/rand"
	"testing"

	"nustencil/internal/grid"
)

func TestOpConstructorsValidate(t *testing.T) {
	g := grid.New([]int{6, 6})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewOp with banded stencil", func() { NewOp(NewBandedStar(2, 1), g) })
	mustPanic("NewOp dims mismatch", func() { NewOp(NewStar(3, 1), g) })
	mustPanic("NewBandedOp with constant", func() { NewBandedOp(NewStar(2, 1), g, nil) })
	mustPanic("NewBandedOp nil coeffs", func() { NewBandedOp(NewBandedStar(2, 1), g, nil) })
	mustPanic("NewBandedOp dims mismatch", func() {
		g3 := grid.New([]int{5, 5, 5})
		NewBandedOp(NewBandedStar(2, 1), g3, NewCoefficients(NewBandedStar(3, 1), g3))
	})
	mustPanic("SetSource wrong length", func() {
		op := NewOp(NewStar(2, 1), g)
		op.SetSource(make([]float64, 5))
	})
}

func TestUpdateRegionModes(t *testing.T) {
	g := grid.New([]int{8, 8})
	op := NewOp(NewStar(2, 1), g)
	if !op.UpdateRegion().Equal(g.Interior(1)) {
		t.Error("Dirichlet region should be the interior")
	}
	op.SetPeriodic(true)
	if !op.Periodic() || !op.UpdateRegion().Equal(g.Bounds()) {
		t.Error("periodic region should be the whole grid")
	}
	op.SetPeriodic(false)
	if op.Periodic() {
		t.Error("SetPeriodic(false) did not clear")
	}
}

// The periodic kernel agrees with a coordinate-level modular oracle for
// random shapes, orders, and both coefficient kinds.
func TestApplyPeriodicMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		nd := 1 + r.Intn(3)
		order := 1 + r.Intn(2)
		dims := make([]int, nd)
		for k := range dims {
			dims[k] = 2*order + 1 + r.Intn(6)
		}
		g := grid.New(dims)
		g.FillFunc(func([]int) float64 { return r.Float64() })
		banded := r.Intn(3) == 0
		var op *Op
		var st *Stencil
		var co *Coefficients
		if banded {
			st = NewBandedStar(nd, order)
			co = NewCoefficients(st, g)
			co.FillFunc(func(int, int) float64 { return r.Float64() * 0.2 })
			op = NewBandedOp(st, g, co)
		} else {
			st = NewStar(nd, order)
			op = NewOp(st, g)
		}
		op.SetPeriodic(true)
		if n := op.ApplyBox(g.Bounds(), 0); n != g.Bounds().Size() {
			t.Fatalf("updates = %d, want %d", n, g.Bounds().Size())
		}
		// Oracle at a random point (possibly on a seam).
		pt := make([]int, nd)
		for k := range pt {
			pt[k] = r.Intn(dims[k])
		}
		pts := st.Points()
		want := 0.0
		q := make([]int, nd)
		for i, off := range pts {
			for k := range pt {
				q[k] = ((pt[k]+off[k])%dims[k] + dims[k]) % dims[k]
			}
			w := 0.0
			if banded {
				w = co.Data[i][g.Index(pt)]
			} else {
				w = st.Coeffs[i]
			}
			want += w * g.At(0, q)
		}
		if got := g.At(1, pt); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d at %v: got %v want %v (banded=%v)", trial, pt, got, want, banded)
		}
	}
}

// Periodic ApplyBox matches a per-cell wrapped reference bit for bit, over
// the whole grid and over random boxes, on 1D to 4D grids of orders 1 to 3
// with constant and banded stencils, with and without a source: the rows
// clear of every other seam run their middles through the row kernels, and
// must sum each cell as the wrapped loop does. A 3⁹ grid of order 1 takes
// the fallback beyond grid.MaxRowDims.
func TestApplyPeriodicMatchesWrappedReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	const sentinel = -1234.5
	for _, nd := range []int{1, 2, 3, 4, grid.MaxRowDims + 1} {
		for order := 1; order <= 3; order++ {
			for _, banded := range []bool{false, true} {
				dims := make([]int, nd)
				for k := range dims {
					dims[k] = 2*order + 1 + r.Intn(4)
				}
				dims[nd-1] += r.Intn(40)
				if nd > grid.MaxRowDims {
					if order > 1 {
						continue
					}
					for k := range dims {
						dims[k] = 3
					}
				}
				g := randomGrid(r, dims)
				st, co, op := NewStar(nd, order), (*Coefficients)(nil), (*Op)(nil)
				if banded {
					st = NewBandedStar(nd, order)
					co = NewCoefficients(st, g)
					co.FillFunc(func(int, int) float64 { return r.Float64()*0.4 - 0.2 })
					op = NewBandedOp(st, g, co)
				} else {
					op = NewOp(st, g)
				}
				op.SetPeriodic(true)
				src := make([]float64, g.Len())
				for i := range src {
					src[i] = r.Float64()
				}
				pts := st.Points()
				pt, q := make([]int, nd), make([]int, nd)
				for _, source := range [][]float64{nil, src} {
					op.SetSource(source)
					for trial := 0; trial < 6; trial++ {
						box := g.Bounds()
						if trial > 0 {
							for k := range dims {
								box.Lo[k] = r.Intn(dims[k])
								box.Hi[k] = box.Lo[k] + 1 + r.Intn(dims[k]-box.Lo[k])
							}
						}
						for i := range g.Buf(1) {
							g.Buf(1)[i] = sentinel
						}
						if n := op.ApplyBox(box, 0); n != box.Size() {
							t.Fatalf("dims %v box %v: %d updates, want %d", dims, box, n, box.Size())
						}
						for i := 0; i < g.Len(); i++ {
							g.Coords(i, pt)
							want := sentinel
							if box.Contains(pt) {
								want = 0.0
								for p, off := range pts {
									for k := range pt {
										q[k] = (pt[k] + off[k] + dims[k]) % dims[k]
									}
									if banded {
										want += co.Data[p][i] * g.At(0, q)
									} else {
										want += st.Coeffs[p] * g.At(0, q)
									}
								}
								if source != nil {
									want += source[i]
								}
							}
							if got := g.Buf(1)[i]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("dims %v order %d banded %v source %v box %v at %v: got %v want %v",
									dims, order, banded, source != nil, box, pt, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestApplyPeriodicSeamFreeFastPath(t *testing.T) {
	// A box far from every seam must produce identical results with and
	// without periodic mode (the fast path handles it).
	g := grid.New([]int{12, 12, 12})
	r := rand.New(rand.NewSource(5))
	g.FillFunc(func([]int) float64 { return r.Float64() })
	g2 := g.Clone()
	inner := grid.NewBox([]int{4, 4, 4}, []int{8, 8, 8})

	op := NewOp(NewStar(3, 1), g)
	op.ApplyBox(inner, 0)

	opP := NewOp(NewStar(3, 1), g2)
	opP.SetPeriodic(true)
	opP.ApplyBox(inner, 0)

	g.ForEachRow(inner, func(off, length int, _ []int) {
		for i := off; i < off+length; i++ {
			if g.Buf(1)[i] != g2.Buf(1)[i] {
				t.Fatalf("fast path diverged at %d", i)
			}
		}
	})
}

func TestSourceAppliesToBothPaths(t *testing.T) {
	g := grid.New([]int{6, 6})
	g.FillFunc(func([]int) float64 { return 1 })
	op := NewOp(NewStar(2, 1), g)
	src := make([]float64, g.Len())
	for i := range src {
		src[i] = 0.5
	}
	op.SetSource(src)
	op.ApplyBox(g.Interior(1), 0)
	if v := g.At(1, []int{3, 3}); math.Abs(v-1.5) > 1e-12 {
		t.Errorf("Dirichlet source: %v", v)
	}
	op.SetSource(nil)
	op.ApplyBox(g.Interior(1), 1)
	if v := g.At(0, []int{3, 3}); math.Abs(v-1.5) > 1e-12 {
		t.Errorf("cleared source: %v", v)
	}
}

func TestStencilStrings(t *testing.T) {
	if s := NewStar(3, 1).String(); s != "3D 7-point constant (s=1)" {
		t.Errorf("String = %q", s)
	}
	if s := NewBandedStar(3, 2).String(); s != "3D 13-point banded (s=2)" {
		t.Errorf("String = %q", s)
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must still format")
	}
}

// Every fast kernel path must be allocation-free: tile execution calls
// ApplyBox millions of times and any per-call or per-row allocation shows
// up directly as GC pressure on the hot path.
func TestApplyBoxNoAllocs(t *testing.T) {
	g := grid.New([]int{20, 20, 20})
	g.FillFunc(func(pt []int) float64 { return float64(pt[0] + 2*pt[1] - pt[2]) })
	src := make([]float64, g.Len())
	for i := range src {
		src[i] = float64(i % 17)
	}
	// The big grids' interiors take the box routines more than one call.
	big := grid.New([]int{20, 30, 135})
	big2 := grid.New([]int{22, 32, 135})
	cases := []struct {
		name string
		op   *Op
		box  grid.Box
	}{
		{"7pt", NewOp(NewStar(3, 1), g), g.Interior(3)},
		{"7pt-multicall", NewOp(NewStar(3, 1), big), big.Interior(1)},
		{"generic-s2", NewOp(NewStar(3, 2), g), g.Interior(3)},
		{"generic-s2-multicall", NewOp(NewStar(3, 2), big2), big2.Interior(2)},
		{"generic-s3", NewOp(NewStar(3, 3), g), g.Interior(3)},
		{"banded-7pt", NewBandedOp(NewBandedStar(3, 1), g, NewCoefficients(NewBandedStar(3, 1), g)), g.Interior(3)},
		{"banded-s2", NewBandedOp(NewBandedStar(3, 2), g, NewCoefficients(NewBandedStar(3, 2), g)), g.Interior(3)},
		{"banded-7pt-multicall", NewBandedOp(NewBandedStar(3, 1), big, NewCoefficients(NewBandedStar(3, 1), big)), big.Interior(1)},
	}
	for _, c := range cases {
		for _, withSource := range []bool{false, true} {
			name := c.name
			if withSource {
				name += "+source"
				c.op.SetSource(make([]float64, c.op.G.Len()))
			} else {
				c.op.SetSource(nil)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if c.op.ApplyBox(c.box, 0) == 0 {
					t.Fatal("no updates")
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs per ApplyBox, want 0", name, allocs)
			}
		}
	}
	// The periodic (wrapped) path, seam rows included.
	op := NewOp(NewStar(3, 1), g)
	op.SetPeriodic(true)
	op.SetSource(src)
	full := g.Bounds()
	allocs := testing.AllocsPerRun(10, func() {
		if op.ApplyBox(full, 0) == 0 {
			t.Fatal("no updates")
		}
	})
	if allocs != 0 {
		t.Errorf("periodic: %.1f allocs per ApplyBox, want 0", allocs)
	}
}
