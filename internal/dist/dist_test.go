package dist

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"nustencil/internal/grid"
	"nustencil/internal/stencil"
)

// fillTest gives every cell a position-dependent value so any ownership
// or halo mistake shows up as a bit difference. The field is not linear
// in the position: a linear one is a fixed point of the averaging star,
// which a run with the wrong step count or parity would reproduce.
func fillTest(g *grid.Grid) {
	g.FillFunc(func(pt []int) float64 {
		v := 0.0
		for k, p := range pt {
			v = v*31 + float64(p*(k+7)+p*p%11)
		}
		return v*0.001 - 2
	})
}

// TestLatticePartition pins the overdecomposition property: every
// interior cell belongs to exactly one chare box, every chare box is
// non-empty, each chare's neighbor reads within the stencil order are
// covered by its ghost ring (owned.Grow(order) stays inside the grid
// bounds), and every chare is at least order cells thick along each cut
// dimension, so its ghost slabs are its neighbors' owned cells.
func TestLatticePartition(t *testing.T) {
	shapes := []struct {
		dims   []int
		order  int
		chares int
	}{
		{dims: []int{20, 17, 13}, order: 1, chares: 12},
		{dims: []int{9, 40}, order: 2, chares: 8},
		{dims: []int{64}, order: 1, chares: 5},
		{dims: []int{5, 5, 5}, order: 1, chares: 64}, // more chares than cells absorb
		{dims: []int{66, 66}, order: 2, chares: 32},  // 32 cuts of 62 cells would leave 1-cell chares
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%v-o%d-c%d", sh.dims, sh.order, sh.chares), func(t *testing.T) {
			g := grid.New(sh.dims)
			interior := g.Interior(sh.order)
			l := MakeLattice(interior, sh.chares, sh.order)
			n := l.NumChares()
			if n < 1 || n > sh.chares {
				t.Fatalf("NumChares = %d, want in [1, %d]", n, sh.chares)
			}
			owners := make([]int, g.Len())
			for i := range owners {
				owners[i] = -1
			}
			for i := 0; i < n; i++ {
				b := l.Box(i)
				if b.Empty() {
					t.Fatalf("chare %d box %v is empty", i, b)
				}
				grown := b.Grow(sh.order)
				for k := range sh.dims {
					if grown.Lo[k] < 0 || grown.Hi[k] > sh.dims[k] {
						t.Fatalf("chare %d ghost region %v leaves the grid %v", i, grown, sh.dims)
					}
					if l.Counts[k] > 1 && b.Extent(k) < sh.order {
						t.Fatalf("chare %d box %v is thinner than order %d along dim %d", i, b, sh.order, k)
					}
				}
				g.ForEachRow(b, func(off, length int, _ []int) {
					for j := off; j < off+length; j++ {
						if owners[j] != -1 {
							t.Fatalf("cell %d owned by chares %d and %d", j, owners[j], i)
						}
						owners[j] = i
					}
				})
			}
			covered := 0
			g.ForEachRow(interior, func(off, length int, _ []int) {
				for j := off; j < off+length; j++ {
					if owners[j] == -1 {
						t.Fatalf("interior cell %d owned by no chare", j)
					}
					covered++
				}
			})
			if int64(covered) != interior.Size() {
				t.Fatalf("covered %d cells, interior has %d", covered, interior.Size())
			}
		})
	}
}

// runSingle advances a copy of the grid with the plain per-step kernel —
// the bit-exactness reference.
func runSingle(g *grid.Grid, st *stencil.Stencil, T int) *grid.Grid {
	ref := g.Clone()
	op := stencil.NewOp(st, ref)
	for t := 0; t < T; t++ {
		op.ApplyBox(ref.Bounds(), t)
	}
	return ref
}

// bitExactCase is one distributed run checked against the single-process
// sweep.
type bitExactCase struct {
	name  string
	dims  []int
	opts  Options
	T     int
	order int
}

// bitExactCases are distributed runs across rank counts, chare factors,
// worker pools, stencil orders, dimensionalities and segment lengths.
var bitExactCases = []bitExactCase{
	{name: "2ranks", dims: []int{18, 15, 14}, opts: Options{Ranks: 2, ChareFactor: 3, WorkersPerRank: 2}, T: 6, order: 1},
	{name: "3ranks-lb", dims: []int{20, 17, 13}, opts: Options{Ranks: 3, ChareFactor: 4, WorkersPerRank: 2, LBPeriod: 2}, T: 7, order: 1},
	{name: "2d-order2", dims: []int{30, 26}, opts: Options{Ranks: 2, ChareFactor: 5, WorkersPerRank: 1}, T: 5, order: 2},
	{name: "2d-order2-thin", dims: []int{66, 66}, opts: Options{Ranks: 2, ChareFactor: 16, WorkersPerRank: 2}, T: 20, order: 2},
	{name: "1d", dims: []int{97}, opts: Options{Ranks: 4, ChareFactor: 2, WorkersPerRank: 1}, T: 4, order: 1},
	{name: "more-ranks-than-chares-absorb", dims: []int{5, 5, 5}, opts: Options{Ranks: 8, ChareFactor: 4, WorkersPerRank: 1}, T: 3, order: 1},
	// 64 chares: segments of 99 and 51 steps run as engine.Runs of
	// 64, 35 and 51 steps, the last starting at an odd step.
	{name: "windows-lb", dims: []int{40, 40}, opts: Options{Ranks: 2, ChareFactor: 32, WorkersPerRank: 2, LBPeriod: 99}, T: 150, order: 1},
}

// checkBitExact runs tc distributed, calling prepare (when not nil)
// between New and Run, and fails unless every cell ends bit-identical to
// the single-process sweep and the run counts every update.
func checkBitExact(t *testing.T, tc bitExactCase, prepare func(rt *Runtime, g *grid.Grid)) {
	t.Helper()
	st := stencil.NewStar(len(tc.dims), tc.order)
	g := grid.New(tc.dims)
	fillTest(g)
	ref := runSingle(g, st, tc.T)

	rt, err := New(Problem{Grid: g, Stencil: st}, tc.opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if prepare != nil {
		prepare(rt, g)
	}
	res, err := rt.Run(context.Background(), tc.T)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range g.Buf(tc.T) {
		if want := ref.Buf(tc.T)[i]; v != want {
			t.Fatalf("cell %d is %v, the single-process sweep's %v", i, v, want)
		}
	}
	wantUpdates := int64(tc.T)
	for _, d := range tc.dims {
		wantUpdates *= int64(d - 2*tc.order)
	}
	if res.Updates != wantUpdates {
		t.Fatalf("Updates = %d, want %d", res.Updates, wantUpdates)
	}
}

// TestRuntimeBitExact pins the tentpole's correctness bar at the dist
// level: a multi-rank, overdecomposed run with per-step halo exchange
// produces bit-identical cell values to the single-process sweep, across
// rank counts, chare factors, worker pools, and segment lengths.
func TestRuntimeBitExact(t *testing.T) {
	for _, tc := range bitExactCases {
		t.Run(tc.name, func(t *testing.T) { checkBitExact(t, tc, nil) })
	}
}

// TestScatterSkipsUnreadCells pins that the scatter may leave every
// buffer-1 cell off the global boundary ring unfilled: after New, each
// such cell of every chare is set to NaN, and every bitExactCases run
// still ends bit-identical to the single-process sweep, so no step reads
// one of them before a step or a halo writes it.
func TestScatterSkipsUnreadCells(t *testing.T) {
	for _, tc := range bitExactCases {
		t.Run(tc.name, func(t *testing.T) {
			checkBitExact(t, tc, func(rt *Runtime, g *grid.Grid) {
				interior := g.Interior(tc.order)
				global := make([]int, len(tc.dims))
				poisoned := 0
				for _, c := range rt.chares {
					buf := c.g.Buf(1)
					c.g.ForEachRow(c.g.Bounds(), func(off, length int, pt []int) {
						for j := 0; j < length; j++ {
							for k := range global {
								global[k] = pt[k] + c.off[k]
							}
							global[len(global)-1] += j
							if interior.Contains(global) {
								buf[off+j] = math.NaN()
								poisoned++
							}
						}
					})
				}
				if poisoned == 0 {
					t.Fatalf("no buffer-1 cell lies in the interior")
				}
			})
		})
	}
}

// TestRunTwiceIsAnError pins that a Runtime runs once: a second Run
// returns an error and leaves the result of the first in the global grid.
// Its chares would restart at local parity 0 against the first run's
// base, so running on would land far from the reference.
func TestRunTwiceIsAnError(t *testing.T) {
	dims := []int{14, 14, 14}
	st := stencil.NewStar(len(dims), 1)
	g := grid.New(dims)
	fillTest(g)
	ref := runSingle(g, st, 3)

	rt, err := New(Problem{Grid: g, Stencil: st}, Options{Ranks: 2, ChareFactor: 2, WorkersPerRank: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := rt.Run(context.Background(), 3); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if g.MaxAbsDiff(3, ref, 3) != 0 {
		t.Fatalf("first Run differs from the single-process sweep")
	}
	after := g.Clone()
	if _, err := rt.Run(context.Background(), 3); err == nil {
		t.Fatalf("second Run on one Runtime succeeded")
	}
	if g.MaxAbsDiff(0, after, 0) != 0 || g.MaxAbsDiff(1, after, 1) != 0 {
		t.Fatalf("a refused second Run changed the global grid")
	}
}

// TestUnevenDealSharesChareSteps pins that a rank with more chares than
// a multiple of its workers spreads its chare-steps evenly over them:
// three chares on two workers for six steps give each worker nine.
func TestUnevenDealSharesChareSteps(t *testing.T) {
	dims := []int{40}
	st := stencil.NewStar(len(dims), 1)
	g := grid.New(dims)
	fillTest(g)
	ran := make([]int, 2)
	rt, err := New(Problem{Grid: g, Stencil: st}, Options{
		Ranks: 1, ChareFactor: 3, WorkersPerRank: 2,
		OnExec: func(w int, _ int64, _ time.Duration) { ran[w]++ },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := rt.Run(context.Background(), 6)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Chares != 3 || ran[0] != 9 || ran[1] != 9 {
		t.Fatalf("%d chares, chare-steps per worker %v; want 3 chares, 9 each", res.Chares, ran)
	}
}

// TestHaloTrafficMatchesModel pins the by-construction agreement between
// the transport's measured inter-rank halo bytes and the analytic
// NetHaloWordsPerStep volume: exactly one exchange phase per timestep
// except after the last.
func TestHaloTrafficMatchesModel(t *testing.T) {
	dims := []int{20, 17, 13}
	const order, ranks, factor, T = 1, 3, 4, 5
	st := stencil.NewStar(len(dims), order)
	g := grid.New(dims)
	fillTest(g)

	rt, err := New(Problem{Grid: g, Stencil: st}, Options{Ranks: ranks, ChareFactor: factor, WorkersPerRank: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := rt.Run(context.Background(), T)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ext := make([]int, len(dims))
	for k, d := range dims {
		ext[k] = d - 2*order
	}
	want := 8 * NetHaloWordsPerStep(ext, order, ranks, ranks*factor) * (T - 1)
	if res.Net.HaloBytes != want {
		t.Fatalf("measured halo bytes %d, model says %d", res.Net.HaloBytes, want)
	}
	if res.Net.MigrationBytes != 0 || res.Net.Migrations != 0 {
		t.Fatalf("unexpected migration traffic without a balance period: %+v", res.Net)
	}
	if res.Net.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", res.Net.Bytes(), want)
	}
}

// moveBalancer deterministically bounces one chare between ranks — the
// migration-machinery probe.
type moveBalancer struct{ next int }

func (b *moveBalancer) Rebalance(load []float64, rank []int, ranks int) []Move {
	b.next = (b.next + 1) % ranks
	return []Move{{Chare: 0, To: b.next}}
}

// TestMigrationBitExact forces migrations mid-run and pins that results
// stay bit-identical and the migration traffic is accounted.
func TestMigrationBitExact(t *testing.T) {
	dims := []int{16, 15, 14}
	const T = 8
	st := stencil.NewStar(len(dims), 1)
	g := grid.New(dims)
	fillTest(g)
	ref := runSingle(g, st, T)

	bal := &moveBalancer{}
	rt, err := New(Problem{Grid: g, Stencil: st}, Options{
		Ranks: 2, ChareFactor: 4, WorkersPerRank: 2,
		LBPeriod: 2, Balancer: bal,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := rt.Run(context.Background(), T)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Net.Migrations == 0 {
		t.Fatalf("expected forced migrations, got none")
	}
	if res.Net.MigrationBytes == 0 {
		t.Fatalf("migrations happened but no migration bytes accounted: %+v", res.Net)
	}
	if g.MaxAbsDiff(T, ref, T) != 0 {
		t.Fatalf("migrated run differs from single-process sweep")
	}
}

// TestRunCancellation pins that a cancelled distributed run reports the
// context error and leaves the global grid untouched.
func TestRunCancellation(t *testing.T) {
	dims := []int{16, 15, 14}
	st := stencil.NewStar(len(dims), 1)
	g := grid.New(dims)
	fillTest(g)
	before := g.Clone()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt, err := New(Problem{Grid: g, Stencil: st}, Options{Ranks: 2, WorkersPerRank: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := rt.Run(ctx, 50); err == nil {
		t.Fatalf("Run with a cancelled context succeeded")
	}
	if g.MaxAbsDiff(0, before, 0) != 0 || g.MaxAbsDiff(1, before, 1) != 0 {
		t.Fatalf("failed run modified the global grid")
	}
}

// TestGreedyBalancer pins the balancer's contract: it narrows the
// max-min spread, never moves more than MaxMoves, and leaves a balanced
// placement alone.
func TestGreedyBalancer(t *testing.T) {
	b := &GreedyBalancer{}
	load := []float64{10, 1, 1, 1, 1, 1}
	rank := []int{0, 0, 0, 1, 1, 1}
	moves := b.Rebalance(load, rank, 2)
	if len(moves) == 0 {
		t.Fatalf("no moves for a 4x rank imbalance")
	}
	for _, mv := range moves {
		if mv.Chare == 0 {
			t.Fatalf("moved the heaviest chare (load larger than the gap): %+v", moves)
		}
		if rank[mv.Chare] != 0 || mv.To != 1 {
			t.Fatalf("unexpected move %+v", mv)
		}
	}

	if moves := b.Rebalance([]float64{1, 1, 1, 1}, []int{0, 0, 1, 1}, 2); len(moves) != 0 {
		t.Fatalf("balanced placement still produced moves %+v", moves)
	}
	if moves := b.Rebalance([]float64{5, 5}, []int{0, 0}, 1); len(moves) != 0 {
		t.Fatalf("single-rank placement produced moves %+v", moves)
	}
}
