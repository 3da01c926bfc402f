package engine

import (
	"fmt"
	"reflect"
	"testing"

	"nustencil/internal/affinity"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/cats"
	"nustencil/internal/tiling/corals"
	"nustencil/internal/tiling/diamond"
	"nustencil/internal/tiling/naive"
	"nustencil/internal/tiling/nucats"
	"nustencil/internal/tiling/nucorals"
	"nustencil/internal/tiling/trapezoid"
)

// buildDepsAllPairs is the reference derivation BuildDeps must reproduce
// element for element: every tile's cross-section at each timestep is
// tested against every cross-section at the previous timestep.
func buildDepsAllPairs(tiles []*spacetime.Tile, s int, wrap []int) [][]int {
	minT, maxT := 0, 0
	first := true
	for _, t := range tiles {
		if t.Height() == 0 {
			continue
		}
		if first {
			minT, maxT, first = t.T0, t.T1(), false
			continue
		}
		minT, maxT = min(minT, t.T0), max(maxT, t.T1())
	}
	deps := make([][]int, len(tiles))
	if first {
		return deps
	}
	byStep := make([][]int, maxT-minT)
	for i, t := range tiles {
		for ts := t.T0; ts < t.T1(); ts++ {
			if !t.At(ts).Empty() {
				byStep[ts-minT] = append(byStep[ts-minT], i)
			}
		}
	}
	lastSeen := make([]int, len(tiles))
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	for i, t := range tiles {
		for ts := t.T0; ts < t.T1(); ts++ {
			if ts-1 < minT || ts-1 >= maxT || t.At(ts).Empty() {
				continue
			}
			for _, j := range byStep[ts-1-minT] {
				if j != i && lastSeen[j] != i && intersectsGrownWrapped(t.At(ts), s, tiles[j].At(ts-1), wrap) {
					lastSeen[j] = i
					deps[i] = append(deps[i], j)
				}
			}
		}
	}
	return deps
}

// BuildDeps agrees with the all-pairs reference on every scheme's plan,
// flat and periodic, across dimensions and orders.
func TestBuildDepsMatchesAllPairs(t *testing.T) {
	schemes := []tiling.Scheme{naive.New(), cats.New(), nucats.New(), corals.New(),
		nucorals.New(), trapezoid.New(), diamond.New()}
	cases := []struct {
		dims            []int
		order, workers  int
		steps, llcBytes int
	}{
		{[]int{34, 30, 26}, 1, 4, 9, 4 << 10},
		{[]int{66, 66, 66}, 1, 4, 16, 64 << 10},
		{[]int{20, 24, 18}, 2, 3, 7, 2 << 10},
		{[]int{40, 36}, 1, 4, 10, 1 << 10},
		{[]int{90}, 3, 3, 8, 1 << 10},
	}
	for _, c := range cases {
		for _, sch := range schemes {
			p := &tiling.Problem{
				Grid:              grid.New(c.dims),
				Stencil:           stencil.NewStar(len(c.dims), c.order),
				Timesteps:         c.steps,
				Workers:           c.workers,
				Topo:              affinity.Fixed{Cores: c.workers, Nodes: 2},
				LLCBytesPerWorker: int64(c.llcBytes),
			}
			name := fmt.Sprintf("%s/%v-s%d", sch.Name(), c.dims, c.order)
			tiles, err := sch.Tiles(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			compareDeps(t, name, spacetime.AssignIDs(tiles), c.order, nil)
		}
		// The naive scheme is the one that runs periodic problems.
		p := &tiling.Problem{
			Grid:      grid.New(c.dims),
			Stencil:   stencil.NewStar(len(c.dims), c.order),
			Timesteps: c.steps,
			Workers:   c.workers,
			Topo:      affinity.Fixed{Cores: c.workers, Nodes: 2},
			Periodic:  true,
		}
		tiles, err := naive.New().Tiles(p)
		if err != nil {
			t.Fatal(err)
		}
		compareDeps(t, fmt.Sprintf("periodic-naive/%v-s%d", c.dims, c.order),
			spacetime.AssignIDs(tiles), c.order, p.Grid.Dims())
	}
}

func compareDeps(t *testing.T, name string, tiles []*spacetime.Tile, s int, wrap []int) {
	t.Helper()
	got, want := BuildDeps(tiles, s, wrap), buildDepsAllPairs(tiles, s, wrap)
	edges := 0
	for _, d := range want {
		edges += len(d)
	}
	if edges == 0 && len(tiles) > 1 {
		t.Errorf("%s: %d tiles and no dependency edges", name, len(tiles))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(got[i], want[i])) {
			t.Fatalf("%s: deps[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}
