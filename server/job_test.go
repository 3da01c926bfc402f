package server

import (
	"bytes"
	"math"
	"testing"

	"nustencil"
	"nustencil/internal/grid"
)

// setInitial must leave a solver exactly as the reference fill does: each
// cell's value computed at the coordinates Coords gives, with the sines
// computed per cell, and a banded solver's coefficients then set to 0.5
// and 0.5/(np−1). The two solvers' checkpoints (state, coefficients,
// source) must match byte for byte. The shapes run from 1D to 4D and
// include long rows and serve-mix's grids.
func TestSetInitialMatchesCoordsWalk(t *testing.T) {
	for _, dims := range [][]int{{9}, {5, 7}, {4, 5, 6}, {3, 4, 5, 6}, {3, 130}, {34, 34, 34}, {50, 50, 50}} {
		for _, banded := range []bool{false, true} {
			for _, init := range []string{InitZero, InitPoint, InitSin} {
				cfg := nustencil.Config{Dims: dims, Banded: banded}
				got, err := nustencil.NewSolver(cfg)
				if err != nil {
					t.Fatal(err)
				}
				setInitial(got, dims, init)

				want, err := nustencil.NewSolver(cfg)
				if err != nil {
					t.Fatal(err)
				}
				g := grid.New(dims)
				state := make([]float64, g.Len())
				pt := make([]int, len(dims))
				for i := range state {
					g.Coords(i, pt)
					switch init {
					case InitPoint:
						state[i] = 1
						for k, c := range pt {
							if c != dims[k]/2 {
								state[i] = 0
							}
						}
					case InitSin:
						for k, c := range pt {
							state[i] += math.Sin(float64(c)*0.17 + float64(k))
						}
					}
				}
				if err := want.Import(state); err != nil {
					t.Fatal(err)
				}
				if banded {
					np := want.NumPoints()
					if err := want.SetCoefficients(func(point int, pt []int) float64 {
						if point == 0 {
							return 0.5
						}
						return 0.5 / float64(np-1)
					}); err != nil {
						t.Fatal(err)
					}
				}

				var gotCP, wantCP bytes.Buffer
				if err := got.Save(&gotCP); err != nil {
					t.Fatal(err)
				}
				if err := want.Save(&wantCP); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotCP.Bytes(), wantCP.Bytes()) {
					t.Errorf("dims %v banded %v init %s: the solvers differ", dims, banded, init)
				}
			}
		}
	}
}
