package nustencil

import (
	"fmt"
	"math"
	"testing"
)

// SetInitial, SetSource and SetCoefficients walk the grid with an odometer.
// They must call f in the order, and give the values, of a reference walk
// that computes every cell's coordinates with Coords, even when f
// overwrites the pt it is given.
func TestFillsMatchCoordsWalk(t *testing.T) {
	for _, dims := range [][]int{{9}, {5, 7}, {4, 5, 6}} {
		for _, banded := range []bool{false, true} {
			s, err := NewSolver(Config{Dims: dims, Banded: banded})
			if err != nil {
				t.Fatal(err)
			}
			// A value depends on the cell's coordinates and on the number of
			// calls before it, so it changes if either does.
			calls := 0
			f := func(pt []int) float64 {
				calls++
				v := float64(calls)
				for k, c := range pt {
					v += math.Sin(float64(c)*0.17 + float64(k))
					pt[k] = -1
				}
				return v
			}
			coordsWalk := func(f func(pt []int) float64) []float64 {
				out := make([]float64, s.g.Len())
				pt := make([]int, len(dims))
				for i := range out {
					out[i] = f(s.g.Coords(i, pt))
				}
				return out
			}
			check := func(what string, got, want []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("dims %v banded %v: %s cell %d is %v, want %v", dims, banded, what, i, got[i], want[i])
					}
				}
			}

			calls = 0
			want := coordsWalk(f)
			calls = 0
			s.SetInitial(f)
			check("buffer 0", s.g.Buf(0), want)
			check("buffer 1", s.g.Buf(1), want)

			calls = 0
			want = coordsWalk(f)
			calls = 0
			s.SetSource(f)
			check("source", s.source, want)

			if !banded {
				continue
			}
			// Point-major: every cell of point 0, then of point 1, and so on.
			calls = 0
			var bands [][]float64
			for p := 0; p < s.NumPoints(); p++ {
				bands = append(bands, coordsWalk(func(pt []int) float64 { return f(pt) + float64(p) }))
			}
			calls = 0
			if err := s.SetCoefficients(func(p int, pt []int) float64 { return f(pt) + float64(p) }); err != nil {
				t.Fatal(err)
			}
			for p, band := range s.coeffs.Data {
				check(fmt.Sprintf("coefficients of point %d", p), band, bands[p])
			}
		}
	}
}
