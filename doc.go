// Package nustencil is a NUMA-aware iterative stencil computation library:
// a from-scratch Go reproduction of "NUMA Aware Iterative Stencil
// Computations on Many-Core Systems" (Shaheen & Strzodka, IPDPS 2012).
//
// The library provides:
//
//   - Seven tiling schemes for iterative star-stencil computations on
//     double-buffered N-dimensional grids: the paper's NUMA-aware nuCATS
//     and nuCORALS, their predecessors CATS and CORALS, an optimized naive
//     sweep, and stand-ins for the Pochoir (cache-oblivious trapezoids) and
//     PLuTo (static skewed tiling) comparisons. All schemes execute through
//     one dependency-driven space-time engine and produce results
//     bit-identical to a serial reference solve.
//
//   - Constant-coefficient stencils of any order (7-point, 13-point,
//     19-point 3D stars, and their 1D/2D analogues) and variable-coefficient
//     stencils (products with sparse banded matrices).
//
//   - A ccNUMA machine model of the paper's two testbeds (8-socket Opteron
//     8222, 4-socket Xeon X7550) and a cost model that regenerates every
//     figure of the paper's evaluation from the schemes' tiling geometry.
//
// Quick start:
//
//	cfg := nustencil.Config{
//		Dims:      []int{66, 66, 66},
//		Timesteps: 50,
//		Scheme:    nustencil.NuCORALS,
//		Workers:   runtime.NumCPU(),
//	}
//	solver, err := nustencil.NewSolver(cfg)
//	if err != nil { ... }
//	solver.SetInitial(func(pt []int) float64 { ... })
//	report, err := solver.Run()
//
// SetInitial calls its function once per cell. SetInitialRows is the same
// fill for fields that can compute a whole unit-stride row at once: one
// call per row, with the coordinates of the row's first cell and the row's
// cells to set. Every fill (SetInitial, SetInitialRows, SetSource,
// SetCoefficients, Import) is the scheme's Phase I: each worker fills its
// own part of the grid and so first-touches the pages it computes, which
// means the function may be called concurrently from several goroutines.
// A pure function of the coordinates is safe.
//
// Run is the convenience form of Execute, the solver's one execution entry
// point: a RunSpec selects the timestep count and what to collect (trace,
// rendered timeline, simulated performance counters), a RunOutput carries
// the results, and a context bounds the run:
//
//	out, err := solver.Execute(ctx, nustencil.RunSpec{Timesteps: 50, Counters: true})
//	fmt.Println(out.Report.Gupdates(), out.Counters.Bottleneck().Binding)
//
// See the examples directory for complete programs and cmd/stencil-figures
// for the paper-figure regeneration harness.
package nustencil
