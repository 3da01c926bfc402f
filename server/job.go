// Package server implements stencil-as-a-service: a long-running
// multi-tenant job server over the consolidated nustencil Run API.
//
// Clients POST JSON job specs (a problem Config plus a RunSpec — the
// library's own wire types), a coordinator admits and queues them per
// tenant with quotas and deadlines, and a bounded executor pool runs
// each job on its own Solver via Execute. Results are retrievable by
// job ID; server counters and the simulated performance counters of
// counted jobs are live Prometheus scrape targets.
//
// Isolation is per job by construction: every job gets a fresh Solver,
// so a job that fails mid-plan (deadline expiry, a panicking kernel)
// poisons only its own solver (nustencil.ErrPoisoned) and never another
// tenant's state, and the executor recovers a panic anywhere else in a
// job's body as that job's failure. A multi-rank job runs its
// chare-steps on the same engine, so a panicking chare-step fails that
// job alone too.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"nustencil"
	"nustencil/internal/dist"
)

// Init names for JobSpec.Init.
const (
	// InitSin fills the grid with a reproducible spatially varying pattern
	// (the same one cmd/stencil-run uses). The default.
	InitSin = "sin"
	// InitZero leaves the grid all zeros.
	InitZero = "zero"
	// InitPoint sets a unit impulse at the grid centre.
	InitPoint = "point"
)

// JobSpec is the wire form of one job: what to solve (Problem), how to
// run and observe it (Run), which tenant it bills to, and its deadline.
// It marshals deterministically — struct fields in declaration order,
// Problem.SchemeParams with sorted keys — so an encoded spec replays
// byte for byte (stencil-replay -job).
type JobSpec struct {
	// Tenant is the submitting tenant (empty maps to "default"); quotas
	// and fairness are accounted per tenant.
	Tenant string `json:"tenant,omitempty"`
	// Problem configures the solver (grid, stencil, scheme, workers).
	Problem nustencil.Config `json:"problem"`
	// Run selects timesteps and observability. A zero Run.Timesteps
	// defaults to Problem.Timesteps at admission.
	Run nustencil.RunSpec `json:"run"`
	// Init names the initial condition: "sin" (default), "zero", "point".
	Init string `json:"init,omitempty"`
	// DeadlineMS bounds the job's total latency (queueing included) in
	// milliseconds from submission. Zero uses the server default; the
	// server clamps to its maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// withDefaults resolves the spec's defaulted fields.
func (spec JobSpec) withDefaults() JobSpec {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if spec.Init == "" {
		spec.Init = InitSin
	}
	if spec.Run.Timesteps == 0 {
		spec.Run.Timesteps = spec.Problem.Timesteps
	}
	return spec
}

// ErrInvalidJob wraps admission-time validation failures (HTTP 400).
var ErrInvalidJob = errors.New("server: invalid job spec")

// validate enforces the admission limits a server cannot defer to the
// solver: obviously malformed problems are rejected with 400 at submit
// time instead of becoming failed jobs. Deeper validation (scheme
// parameter names, periodic-scheme compatibility) stays in NewSolver
// and surfaces as a failed job.
func (spec JobSpec) validate(limits Limits) error {
	if len(spec.Problem.Dims) == 0 {
		return fmt.Errorf("%w: problem.dims is required", ErrInvalidJob)
	}
	cells := int64(1)
	for _, d := range spec.Problem.Dims {
		if d < 3 {
			return fmt.Errorf("%w: dimension %d too small", ErrInvalidJob, d)
		}
		if cells > math.MaxInt64/int64(d) {
			return fmt.Errorf("%w: grid cell count overflows", ErrInvalidJob)
		}
		cells *= int64(d)
	}
	if limits.MaxCells > 0 && cells > limits.MaxCells {
		return fmt.Errorf("%w: %d cells exceeds the %d-cell limit", ErrInvalidJob, cells, limits.MaxCells)
	}
	if limits.MaxCells > 0 && spec.Problem.Banded && !bandsFit(cells, len(spec.Problem.Dims), spec.Problem.Order, limits.MaxCells) {
		return fmt.Errorf("%w: banded coefficients of order %d exceed %d times the %d-cell limit",
			ErrInvalidJob, spec.Problem.Order, bandedGrids, limits.MaxCells)
	}
	if p := spec.Problem; p.Workers > maxWorkers || p.Ranks > maxRanks {
		return fmt.Errorf("%w: %d workers on %d ranks exceeds the limit of %d workers and %d ranks",
			ErrInvalidJob, p.Workers, p.Ranks, maxWorkers, maxRanks)
	}
	if !charesFit(spec.Problem.Ranks, spec.Problem.ChareFactor) {
		return fmt.Errorf("%w: %d ranks of chare factor %d exceed the %d-chare limit",
			ErrInvalidJob, spec.Problem.Ranks, spec.Problem.ChareFactor, maxChares)
	}
	if spec.Run.Timesteps < 0 {
		return fmt.Errorf("%w: negative timesteps", ErrInvalidJob)
	}
	if limits.MaxTimesteps > 0 && spec.Run.Timesteps > limits.MaxTimesteps {
		return fmt.Errorf("%w: %d timesteps exceeds the %d-step limit", ErrInvalidJob, spec.Run.Timesteps, limits.MaxTimesteps)
	}
	switch spec.Init {
	case InitSin, InitZero, InitPoint:
	default:
		return fmt.Errorf("%w: unknown init %q (want sin, zero or point)", ErrInvalidJob, spec.Init)
	}
	return nil
}

// bandedGrids bounds a banded spec's coefficients: they store one grid-sized
// band per stencil point, and cells × points may not exceed bandedGrids ×
// MaxCells, which admits every first-order 3D banded spec within MaxCells.
const bandedGrids = 7

// bandsFit reports whether a banded star of the given order on nd
// dimensions, 1 + 2·nd·order points (an order below 1 counts as 1), stores
// at most bandedGrids·maxCells coefficients on cells cells, with no order
// able to overflow the count.
func bandsFit(cells int64, nd, order int, maxCells int64) bool {
	budget := int64(math.MaxInt64)
	if maxCells <= budget/bandedGrids {
		budget = bandedGrids * maxCells
	}
	// points ≤ budget/cells, that is 2·nd·order ≤ budget/cells − 1.
	return int64(max(order, 1)) <= (budget/cells-1)/int64(2*nd)
}

// maxWorkers and maxRanks bound the goroutines a spec makes the executor
// start (ranks × workers-per-rank engine workers, and with pin_threads as
// many OS threads), and maxChares a distributed spec's chares, ranks ×
// chare_factor. They also keep the worker and chare counts that
// tiling.DecomposeCountsFor factors small.
const (
	maxWorkers = 256
	maxRanks   = 256
	maxChares  = 4096
)

// charesFit reports whether ranks × chareFactor (a chareFactor of 0 counts
// as dist.DefaultChareFactor) is at most maxChares, without overflowing the
// product.
func charesFit(ranks, chareFactor int) bool {
	if chareFactor == 0 {
		chareFactor = dist.DefaultChareFactor
	}
	return ranks <= 0 || chareFactor <= maxChares/ranks
}

// Limits are the admission-time resource bounds.
type Limits struct {
	// MaxCells bounds the grid size (cells per buffer; 0 = unlimited). It
	// bounds a banded spec's coefficients too, one per cell and stencil
	// point, at 7 × MaxCells.
	MaxCells int64
	// MaxTimesteps bounds the per-job timestep count (0 = unlimited).
	MaxTimesteps int
}

// RunLocal executes one job spec in-process: build a fresh solver,
// apply the named initial condition, and Execute the run spec under ctx.
// Banded problems keep the normalized Jacobi weights the solver starts
// with. It is the server executor's job body and the replay path
// of stencil-replay -job — a captured spec re-executes identically.
//
// On a failed execution whose solver ended up poisoned, the returned
// error wraps both the execution error and nustencil.ErrPoisoned, so
// callers can test the poison state with errors.Is. The solver itself
// is job-local and dropped — poison never outlives the job.
func RunLocal(ctx context.Context, spec JobSpec) (*nustencil.RunOutput, error) {
	spec = spec.withDefaults()
	sol, err := nustencil.NewSolver(spec.Problem)
	if err != nil {
		return nil, err
	}
	setInitial(sol, spec.Problem.Dims, spec.Init)
	out, err := sol.Execute(ctx, spec.Run)
	if err != nil {
		if perr := sol.Err(); perr != nil {
			return out, fmt.Errorf("%w (%w)", err, perr)
		}
		return out, err
	}
	return out, nil
}

// setInitial applies the initial condition init to sol, a fresh solver
// over dims, a whole row at a time.
func setInitial(sol *nustencil.Solver, dims []int, init string) {
	last := len(dims) - 1
	switch init {
	case InitZero:
		// The fresh grid is already zeroed.
	case InitPoint:
		centre := make([]int, len(dims))
		for k, d := range dims {
			centre[k] = d / 2
		}
		sol.SetInitialRows(func(pt []int, row []float64) {
			clear(row)
			if slices.Equal(pt[:last], centre[:last]) {
				row[centre[last]] = 1
			}
		})
	default: // InitSin
		// Σₖ sin(0.17·pt[k] + k), from one table of sines per dimension,
		// summed from 0 in dimension order, as a per-cell sum would.
		sines := make([][]float64, len(dims))
		for k, d := range dims {
			sines[k] = make([]float64, d)
			for c := range sines[k] {
				sines[k][c] = math.Sin(float64(c)*0.17 + float64(k))
			}
		}
		sol.SetInitialRows(func(pt []int, row []float64) {
			v := 0.0
			for k, c := range pt[:last] {
				v += sines[k][c]
			}
			s := sines[last][:len(row)]
			for i := range row {
				row[i] = v + s[i]
			}
		})
	}
}

// JobState is the lifecycle state of a job.
type JobState string

// The job lifecycle: Queued → Running → Done | Failed. Failed covers
// execution errors, invalid configurations caught at solver
// construction, and deadline expiry (in queue or mid-run).
const (
	Queued  JobState = "queued"
	Running JobState = "running"
	Done    JobState = "done"
	Failed  JobState = "failed"
)

// Job is one admitted job and, once finished, its result. The
// coordinator owns all mutable fields; read them through snapshots.
type Job struct {
	ID       string
	Tenant   string
	Spec     JobSpec
	State    JobState
	Deadline time.Time

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// Output is the run's result (Done jobs; Failed jobs may carry the
	// identity-field report).
	Output *nustencil.RunOutput
	// Err is the failure message (Failed jobs).
	Err string
	// Expired marks a Failed job whose deadline passed (in queue or
	// mid-run).
	Expired bool
}
