package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"nustencil"
	"nustencil/internal/dist"
)

// FuzzJobSpec drives untrusted job specs through admission as the server
// takes them: decode as handleSubmit does, apply the defaults, validate
// under small limits, and for an admitted spec build its solver and
// initial condition. Nothing may panic, an admitted spec's deadline lies
// in (0, MaxDeadline], its workers, ranks and chares are within
// maxWorkers, maxRanks and maxChares, and its encoding survives a decode
// byte for byte, which is the replay contract. It never executes a spec:
// its workers and ranks would start goroutines, and pin_threads would
// lock OS threads. The initial fill does start a goroutine per worker's
// part of the grid, so it runs unpinned: a pinned fill would create and
// end an OS thread per part for every input.
func FuzzJobSpec(f *testing.F) {
	cube := func(n int) []int { return []int{n, n, n} }
	job := func(p nustencil.Config, steps int) JobSpec {
		return JobSpec{Problem: p, Run: nustencil.RunSpec{Timesteps: steps}}
	}
	// serve-mix's four job kinds.
	for _, spec := range []JobSpec{
		job(nustencil.Config{Dims: cube(34), Scheme: nustencil.NuCORALS, Workers: 1}, 8),
		job(nustencil.Config{Dims: cube(34), Banded: true, Scheme: nustencil.NuCATS, Workers: 1}, 8),
		job(nustencil.Config{Dims: cube(50), Order: 2, Scheme: nustencil.Naive, Workers: 1}, 4),
		job(nustencil.Config{Dims: cube(34), Scheme: nustencil.NuCORALS, Workers: 2, Ranks: 2}, 8),
	} {
		seed, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, seed := range crashSpecs {
		f.Add([]byte(seed))
	}
	for _, spec := range executorSpecs {
		seed, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"problem":{"dims":[8,8]},"run":{"timesteps":1},"deadline_ms":9223372036855}`))
	// 4095 grid-sized coefficient bands within a 4096-cell limit.
	f.Add([]byte(`{"problem":{"dims":[4096],"order":2047,"banded":true},"run":{"timesteps":1}}`))

	cfg := Config{Limits: Limits{MaxCells: 4096, MaxTimesteps: 64}}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		spec = spec.withDefaults()
		if err := spec.validate(cfg.Limits); err != nil {
			return
		}
		if d := cfg.deadline(spec.DeadlineMS); d <= 0 || d > cfg.MaxDeadline {
			t.Fatalf("deadline_ms %d admitted as %v, want (0, %v]", spec.DeadlineMS, d, cfg.MaxDeadline)
		}
		p := spec.Problem
		factor := p.ChareFactor
		if factor == 0 {
			factor = dist.DefaultChareFactor
		}
		if p.Workers > maxWorkers || p.Ranks > maxRanks || float64(p.Ranks)*float64(factor) > maxChares {
			t.Fatalf("admitted %d workers on %d ranks of chare factor %d", p.Workers, p.Ranks, p.ChareFactor)
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var decoded JobSpec
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n%s\n%s", first, second)
		}
		p.PinThreads = false
		sol, err := nustencil.NewSolver(p)
		if err != nil {
			return
		}
		setInitial(sol, p.Dims, spec.Init)
	})
}
