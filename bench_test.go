package nustencil

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=.):
//
//   - BenchmarkTableI and BenchmarkFig03..BenchmarkFig22 rebuild the
//     corresponding artifact from the machine and cost models each
//     iteration and report the headline caption values as custom metrics
//     (GFLOPS at full machine size, matching the paper's figure captions).
//   - BenchmarkScheme* and BenchmarkKernel* measure the real execution
//     path on the host, in updates per second.
//
// Absolute numbers on the host are not comparable to the paper's testbeds;
// the simulated metrics carry the reproduced shapes.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nustencil/internal/ablation"
	"nustencil/internal/affinity"
	"nustencil/internal/engine"
	"nustencil/internal/experiments"
	"nustencil/internal/grid"
	"nustencil/internal/machine"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/nucorals"
	"nustencil/internal/verify"
)

// benchFigure regenerates one figure per iteration and reports the caption
// GFLOPS of the listed lines as custom metrics.
func benchFigure(b *testing.B, id string, captionLines ...string) {
	f, ok := experiments.All()[id]
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var d *experiments.Data
	for i := 0; i < b.N; i++ {
		d = f.Run()
	}
	for _, label := range captionLines {
		i := slices.IndexFunc(d.Figure.Lines, func(ln experiments.Line) bool { return ln.Label == label })
		if i < 0 {
			b.Fatalf("%s: no line %q", id, label)
		}
		b.ReportMetric(d.CaptionGFLOPS[i], "GFLOPS:"+shorten(label))
	}
}

func BenchmarkTableI(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = RenderTableI()
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkFig03(b *testing.B) {
	var curves []experiments.BandwidthScaling
	for i := 0; i < b.N; i++ {
		curves = experiments.Fig3()
	}
	// Report the endpoints the paper quotes: 6.5x / 13.7x overall growth.
	op, xe := curves[0], curves[1]
	b.ReportMetric(op.SysPerCore[len(op.SysPerCore)-1]*16/op.SysPerCore[0], "x-growth-opteron")
	b.ReportMetric(xe.SysPerCore[len(xe.SysPerCore)-1]*32/xe.SysPerCore[0], "x-growth-xeon")
}

func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig04", "nuCORALS", "nuCATS", "NaiveSSE") }
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig05", "nuCORALS", "nuCATS", "NaiveSSE") }
func BenchmarkFig06(b *testing.B) { benchFigure(b, "fig06", "nuCORALS", "nuCATS") }
func BenchmarkFig07(b *testing.B) { benchFigure(b, "fig07", "nuCORALS", "nuCATS") }
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig08", "nuCORALS", "nuCATS") }
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig09", "nuCORALS", "nuCATS") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10", "nuCORALS", "nuCATS") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11", "nuCORALS", "nuCATS") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12", "nuCORALS", "nuCATS") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13", "nuCORALS", "nuCATS") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14", "nuCORALS", "nuCATS") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15", "nuCORALS", "nuCATS") }
func BenchmarkFig16(b *testing.B) {
	benchFigure(b, "fig16", "nuCORALS s=1", "nuCORALS s=2", "nuCORALS s=3")
}
func BenchmarkFig17(b *testing.B) {
	benchFigure(b, "fig17", "nuCORALS s=1", "nuCORALS s=2", "nuCORALS s=3")
}
func BenchmarkFig18(b *testing.B) {
	benchFigure(b, "fig18", "nuCATS s=1", "nuCATS s=2", "nuCATS s=3")
}
func BenchmarkFig19(b *testing.B) {
	benchFigure(b, "fig19", "nuCATS s=1", "nuCATS s=2", "nuCATS s=3")
}
func BenchmarkFig20(b *testing.B) {
	benchFigure(b, "fig20", "nuCORALS", "nuCATS", "CATS", "CORALS", "Pochoir", "PLuTo")
}
func BenchmarkFig21(b *testing.B) {
	benchFigure(b, "fig21", "nuCORALS", "nuCATS", "CATS", "CORALS", "Pochoir", "PLuTo")
}
func BenchmarkFig22(b *testing.B) {
	benchFigure(b, "fig22", "nuCORALS", "nuCATS", "CATS", "CORALS", "Pochoir", "PLuTo", "NaiveSSE")
}

// BenchmarkScheme measures the real execution path of every scheme on the
// host: a 98³ constant 7-point problem, 10 timesteps per iteration.
func BenchmarkScheme(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			s, err := NewSolver(Config{
				Dims: []int{98, 98, 98}, Timesteps: 10, Scheme: scheme, Workers: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.SetInitial(func(pt []int) float64 { return float64(pt[0] % 7) })
			b.ResetTimer()
			var updates int64
			for i := 0; i < b.N; i++ {
				out, err := s.Execute(nil, RunSpec{Timesteps: 10})
				if err != nil {
					b.Fatal(err)
				}
				updates += out.Report.Updates
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
		})
	}
}

// BenchmarkSchemeBanded measures the banded-matrix (variable coefficient)
// execution path.
func BenchmarkSchemeBanded(b *testing.B) {
	for _, scheme := range []SchemeName{Naive, NuCATS, NuCORALS} {
		b.Run(string(scheme), func(b *testing.B) {
			s, err := NewSolver(Config{
				Dims: []int{66, 66, 66}, Banded: true, Timesteps: 10,
				Scheme: scheme, Workers: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var updates int64
			for i := 0; i < b.N; i++ {
				out, err := s.Execute(nil, RunSpec{Timesteps: 10})
				if err != nil {
					b.Fatal(err)
				}
				updates += out.Report.Updates
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
		})
	}
}

// BenchmarkAblationAffinity reports the affinity decomposition (DESIGN.md
// ablation 1): the same nuCATS tiling priced under owner placement,
// NUMA-ignorant placement, and full CATS.
func BenchmarkAblationAffinity(b *testing.B) {
	var pts []ablation.Point
	for i := 0; i < b.N; i++ {
		pts = ablation.Affinity(machine.XeonX7550(), 500, 32)
	}
	for _, p := range pts {
		b.ReportMetric(p.GFLOPS, "GFLOPS:"+shorten(p.Label))
	}
}

// BenchmarkAblationTau reports the nuCORALS τ sweep (DESIGN.md ablation 2).
func BenchmarkAblationTau(b *testing.B) {
	var pts []ablation.Point
	for i := 0; i < b.N; i++ {
		pts, _ = ablation.TauSweep(machine.XeonX7550(), 500, 32)
	}
	for _, p := range pts {
		b.ReportMetric(p.LocalFrac*100, "local%:"+shorten(p.Label))
	}
}

// BenchmarkAblationAdjustment reports the nuCATS tile-count adjustment
// (DESIGN.md ablation 3) on the small strong-scaling domain.
func BenchmarkAblationAdjustment(b *testing.B) {
	var pts []ablation.Point
	for i := 0; i < b.N; i++ {
		pts = ablation.Adjustment(machine.XeonX7550(), 160, 32)
	}
	for _, p := range pts {
		b.ReportMetric(p.GFLOPS, "GFLOPS:"+shorten(p.Label))
	}
}

func shorten(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch r {
		case ' ':
			out = append(out, '_')
		case ',', '(', ')', '=':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkBaseSize sweeps nuCORALS' base-parallelogram limits on a real
// execution (DESIGN.md ablation 4): the recursion-stop granularity trades
// control overhead against cache locality.
func BenchmarkBaseSize(b *testing.B) {
	for _, base := range []struct{ h, e, u int }{
		{4, 8, 32}, {8, 16, 64}, {8, 32, 128}, {16, 64, 256},
	} {
		b.Run(fmt.Sprintf("h%d-e%d-u%d", base.h, base.e, base.u), func(b *testing.B) {
			g := grid.New([]int{98, 98, 98})
			st := stencil.NewStar(3, 1)
			op := stencil.NewOp(st, g)
			p := &tiling.Problem{
				Grid: g, Stencil: st, Timesteps: 10, Workers: 2,
				Topo:              affinity.Fixed{Cores: 2, Nodes: 1},
				LLCBytesPerWorker: 1 << 20,
			}
			sch := &nucorals.Scheme{Params: nucorals.Params{
				BaseHeight: base.h, BaseExtent: base.e, BaseUnitExtent: base.u,
			}}
			b.ResetTimer()
			var updates int64
			for i := 0; i < b.N; i++ {
				tiles, err := sch.Tiles(p)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := engine.Run(tiles, engine.Config{
					Workers: 2, Order: 1,
					Exec: func(w int, tile *spacetime.Tile) int64 {
						var n int64
						for ts := tile.T0; ts < tile.T1(); ts++ {
							n += op.ApplyBox(tile.At(ts), ts)
						}
						return n
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				updates += stats.TotalUpdates
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
		})
	}
}

// BenchmarkKernel measures the raw stencil kernels without any tiling.
func BenchmarkKernel(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, order := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("const-s%d", order), func(b *testing.B) {
			g := grid.New([]int{98, 98, 98})
			g.FillFunc(func([]int) float64 { return r.Float64() })
			op := stencil.NewOp(stencil.NewStar(3, order), g)
			interior := g.Interior(order)
			b.ResetTimer()
			var updates int64
			for i := 0; i < b.N; i++ {
				updates += op.ApplyBox(interior, i)
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
		})
	}
	b.Run("banded-s1", func(b *testing.B) {
		g := grid.New([]int{98, 98, 98})
		g.FillFunc(func([]int) float64 { return r.Float64() })
		st := stencil.NewBandedStar(3, 1)
		op := stencil.NewBandedOp(st, g, stencil.NewCoefficients(st, g))
		interior := g.Interior(1)
		b.ResetTimer()
		var updates int64
		for i := 0; i < b.N; i++ {
			updates += op.ApplyBox(interior, i)
		}
		b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
	})
	b.Run("reference-solver", func(b *testing.B) {
		g := grid.New([]int{66, 66, 66})
		op := stencil.NewOp(stencil.NewStar(3, 1), g)
		b.ResetTimer()
		var updates int64
		for i := 0; i < b.N; i++ {
			updates += verify.Solve(op, 4)
		}
		b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
	})
}

// BenchmarkEngine3D measures the full execute path on the 3D 7-point
// workload — plan-cache hit, engine dispatch, and the unrolled kernel —
// with allocations reported; TestCachedPlanRunAllocs pins the same path's
// O(1) allocation contract.
func BenchmarkEngine3D(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			s, err := NewSolver(Config{
				Dims: []int{66, 66, 66}, Timesteps: 10, Scheme: NuCORALS,
				Workers: workers, NUMANodes: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.SetInitial(func(pt []int) float64 { return float64(pt[0] % 5) })
			if _, err := s.Execute(nil, RunSpec{Timesteps: 10}); err != nil { // warm the plan cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var updates int64
			for i := 0; i < b.N; i++ {
				out, err := s.Execute(nil, RunSpec{Timesteps: 10})
				if err != nil {
					b.Fatal(err)
				}
				updates += out.Report.Updates
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds()/1e9, "Gupdates/s")
		})
	}
}

// BenchmarkEngineOverhead measures pure scheduler cost: a 16k-tile nuCORALS
// tiling executed with a no-op Exec, so all time is queue traffic,
// dependency resolution and worker wakeups. Deps are prebuilt, as the
// solver's plan cache does after its first Execute call.
func BenchmarkEngineOverhead(b *testing.B) {
	g := grid.New([]int{514, 66, 66})
	p := &tiling.Problem{
		Grid:              g,
		Stencil:           stencil.NewStar(3, 1),
		Timesteps:         256,
		Workers:           64,
		Topo:              affinity.Fixed{Cores: 64, Nodes: 4},
		LLCBytesPerWorker: 1 << 16,
	}
	sch := nucorals.New()
	sch.Distribute(p)
	tiles, err := sch.Tiles(p)
	if err != nil {
		b.Fatal(err)
	}
	spacetime.AssignIDs(tiles)
	deps := engine.BuildDeps(tiles, 1, nil)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			// Allocations are part of the contract here: the scheduler
			// allocates O(1) per run, which TestCachedPlanRunAllocs pins
			// through the solver.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := engine.Run(tiles, engine.Config{
					Workers: workers,
					Deps:    deps,
					Exec:    func(int, *spacetime.Tile) int64 { return 1 },
				})
				if err != nil || stats.TotalUpdates != int64(len(tiles)) {
					b.Fatalf("run: %v updates=%d", err, stats.TotalUpdates)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tiles)), "ns/tile")
		})
	}
}
