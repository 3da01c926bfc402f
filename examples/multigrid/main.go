// Multigrid: a geometric multigrid V-cycle for the 2D Poisson problem
// -∇²u = f whose smoother — the part that dominates runtime — runs through
// the library's temporal-blocking schemes. This is the workload the paper's
// introduction motivates: "to accelerate multiple smoother applications on
// each level of a multigrid solver".
//
// The weighted-Jacobi smoother for A·u = f is exactly a stencil update plus
// a per-cell source: u' = (1-ω)·u + (ω/4)·Σ neighbours + (ω·h²/4)·f, so each
// level owns a Solver with those coefficients and SetSource carries the
// right-hand side (the restricted residual on coarse levels). Restriction
// (full weighting) and prolongation (bilinear) work on Export/Import'ed flat
// arrays.
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"nustencil"
)

const (
	finestN = 129 // grid points per side including the boundary (2^k + 1)
	levels  = 5   // 129 -> 65 -> 33 -> 17 -> 9
	omega   = 0.8
	nu1     = 2  // pre-smoothing sweeps
	nu2     = 2  // post-smoothing sweeps
	coarse  = 60 // smoothing sweeps on the coarsest level
	cycles  = 10
)

// level bundles one grid level: its solver (the smoother), its mesh width,
// and scratch arrays.
type level struct {
	n      int
	h      float64
	solver *nustencil.Solver
	rhs    []float64 // f on the finest level, restricted residual below
	u      []float64
	res    []float64
}

func newLevel(n int, scheme nustencil.SchemeName) *level {
	s, err := nustencil.NewSolver(nustencil.Config{
		Dims:      []int{n, n},
		Coeffs:    []float64{1 - omega, omega / 4, omega / 4, omega / 4, omega / 4},
		Timesteps: nu1,
		Scheme:    scheme,
		Workers:   runtime.NumCPU(),
	})
	if err != nil {
		log.Fatal(err)
	}
	return &level{
		n: n, h: 1 / float64(n-1), solver: s,
		rhs: make([]float64, n*n),
		u:   make([]float64, n*n),
		res: make([]float64, n*n),
	}
}

// smooth runs sweeps weighted-Jacobi iterations on A·u = rhs starting from
// lv.u, leaving the result in lv.u.
func (lv *level) smooth(sweeps int) {
	if err := lv.solver.Import(lv.u); err != nil {
		log.Fatal(err)
	}
	c := omega * lv.h * lv.h / 4
	n := lv.n
	rhs := lv.rhs
	lv.solver.SetSource(func(pt []int) float64 { return c * rhs[pt[0]*n+pt[1]] })
	if _, err := lv.solver.Execute(nil, nustencil.RunSpec{Timesteps: sweeps}); err != nil {
		log.Fatal(err)
	}
	lv.u = lv.solver.Export(lv.u)
}

// residual computes res = rhs - A·u (A = -∇² with 5-point stencil).
func (lv *level) residual() {
	n, h2 := lv.n, lv.h*lv.h
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			k := i*n + j
			au := (4*lv.u[k] - lv.u[k-n] - lv.u[k+n] - lv.u[k-1] - lv.u[k+1]) / h2
			lv.res[k] = lv.rhs[k] - au
		}
	}
	// Boundary residual is zero by construction (Dirichlet).
	for i := 0; i < n; i++ {
		lv.res[i*n] = 0
		lv.res[i*n+n-1] = 0
		lv.res[i] = 0
		lv.res[(n-1)*n+i] = 0
	}
}

// norm2 returns the discrete L2 norm of the residual.
func (lv *level) norm2() float64 {
	var s float64
	for _, v := range lv.res {
		s += v * v
	}
	return math.Sqrt(s) * lv.h
}

// restrictTo transfers fine.res to coarse.rhs by full weighting.
func restrictTo(fine, coarse *level) {
	nf, nc := fine.n, coarse.n
	for I := 1; I < nc-1; I++ {
		for J := 1; J < nc-1; J++ {
			i, j := 2*I, 2*J
			k := i*nf + j
			coarse.rhs[I*nc+J] = 0.25*fine.res[k] +
				0.125*(fine.res[k-1]+fine.res[k+1]+fine.res[k-nf]+fine.res[k+nf]) +
				0.0625*(fine.res[k-nf-1]+fine.res[k-nf+1]+fine.res[k+nf-1]+fine.res[k+nf+1])
		}
	}
}

// prolongAdd adds the bilinear interpolation of coarse.u into fine.u.
func prolongAdd(coarse, fine *level) {
	nc, nf := coarse.n, fine.n
	for I := 0; I < nc-1; I++ {
		for J := 0; J < nc-1; J++ {
			c00 := coarse.u[I*nc+J]
			c01 := coarse.u[I*nc+J+1]
			c10 := coarse.u[(I+1)*nc+J]
			c11 := coarse.u[(I+1)*nc+J+1]
			i, j := 2*I, 2*J
			fine.u[i*nf+j] += c00
			fine.u[i*nf+j+1] += 0.5 * (c00 + c01)
			fine.u[(i+1)*nf+j] += 0.5 * (c00 + c10)
			fine.u[(i+1)*nf+j+1] += 0.25 * (c00 + c01 + c10 + c11)
		}
	}
	// Keep the Dirichlet boundary exact (zero correction there).
	for i := 0; i < nf; i++ {
		fine.u[i*nf] = 0
		fine.u[i*nf+nf-1] = 0
		fine.u[i] = 0
		fine.u[(nf-1)*nf+i] = 0
	}
}

// vcycle performs one V-cycle on lvs[d:].
func vcycle(lvs []*level, d int) {
	lv := lvs[d]
	if d == len(lvs)-1 {
		lv.smooth(coarse)
		return
	}
	lv.smooth(nu1)
	lv.residual()
	next := lvs[d+1]
	restrictTo(lv, next)
	for i := range next.u {
		next.u[i] = 0
	}
	vcycle(lvs, d+1)
	prolongAdd(next, lv)
	lv.smooth(nu2)
}

func main() {
	scheme := nustencil.NuCORALS
	lvs := make([]*level, levels)
	n := finestN
	for d := 0; d < levels; d++ {
		lvs[d] = newLevel(n, scheme)
		n = (n-1)/2 + 1
	}
	fine := lvs[0]

	// Problem: -∇²u = f with a smooth manufactured solution
	// u* = sin(πx)·sin(πy), f = 2π²·sin(πx)·sin(πy), u = 0 on the boundary.
	for i := 0; i < fine.n; i++ {
		for j := 0; j < fine.n; j++ {
			x, y := float64(i)*fine.h, float64(j)*fine.h
			fine.rhs[i*fine.n+j] = 2 * math.Pi * math.Pi *
				math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}

	fine.residual()
	r0 := fine.norm2()
	fmt.Printf("2D Poisson, %d² grid, %d levels, ω=%.1f Jacobi smoothing via %s\n\n",
		finestN, levels, omega, scheme)
	fmt.Printf("%-8s %14s %12s\n", "cycle", "residual L2", "reduction")
	fmt.Printf("%-8d %14.6e %12s\n", 0, r0, "-")

	prev := r0
	for c := 1; c <= cycles; c++ {
		vcycle(lvs, 0)
		fine.residual()
		r := fine.norm2()
		fmt.Printf("%-8d %14.6e %12.3f\n", c, r, r/prev)
		prev = r
	}
	if prev > r0*1e-6 {
		log.Fatalf("multigrid failed to converge: %e -> %e", r0, prev)
	}

	// Accuracy against the manufactured solution.
	var worst float64
	for i := 0; i < fine.n; i++ {
		for j := 0; j < fine.n; j++ {
			x, y := float64(i)*fine.h, float64(j)*fine.h
			exact := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			if d := math.Abs(fine.u[i*fine.n+j] - exact); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("\nmax error vs manufactured solution: %.2e (O(h²) = %.2e)\n",
		worst, fine.h*fine.h)
	if worst > 20*fine.h*fine.h {
		log.Fatalf("discretization error out of range")
	}
	fmt.Println("multigrid with temporally-blocked smoothers converged")
}
