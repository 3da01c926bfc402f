package nustencil

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	mk := func() *Solver {
		s, err := NewSolver(Config{Dims: []int{10, 10, 10}, Timesteps: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0] + pt[1]*pt[2]) })
		s.SetSource(func(pt []int) float64 { return 0.01 })
		return s
	}
	full := mk()
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil { // 8 steps total
		t.Fatal(err)
	}

	half := mk()
	if _, err := half.Run(); err != nil { // 4 steps
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := half.Save(&buf); err != nil {
		t.Fatal(err)
	}

	resumed := mk()
	if err := resumed.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if resumed.StepsRun() != 4 {
		t.Fatalf("StepsRun = %d, want 4", resumed.StepsRun())
	}
	if _, err := resumed.Run(); err != nil { // +4 = 8
		t.Fatal(err)
	}
	probe := []int{5, 5, 5}
	if a, b := resumed.Value(probe), full.Value(probe); a != b {
		t.Fatalf("resumed %v != uninterrupted %v", a, b)
	}
}

func TestCheckpointBandedRoundTrip(t *testing.T) {
	mk := func() *Solver {
		s, err := NewSolver(Config{Dims: []int{8, 8}, Banded: true, Timesteps: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk()
	if err := a.SetCoefficients(func(p int, pt []int) float64 {
		if p == 0 {
			return 0.6
		}
		return 0.1
	}); err != nil {
		t.Fatal(err)
	}
	a.SetInitial(func(pt []int) float64 { return float64(pt[0]) })
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	b := mk() // coefficients NOT set: must come from the checkpoint
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if va, vb := a.Value([]int{4, 4}), b.Value([]int{4, 4}); va != vb {
		t.Fatalf("banded resume diverged: %v vs %v", va, vb)
	}
}

// The full resume path for the hardest solver configuration: banded
// per-cell coefficients AND a source term. Save mid-run, load into a fresh
// solver, continue — the result must be bit-exact against an
// uninterrupted run.
func TestCheckpointBandedSourceRoundTrip(t *testing.T) {
	mk := func() *Solver {
		s, err := NewSolver(Config{Dims: []int{9, 9}, Banded: true, Timesteps: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetCoefficients(func(p int, pt []int) float64 {
			if p == 0 {
				return 0.55 + 0.01*float64(pt[0])
			}
			return 0.45 / 4 * (1 + 0.02*float64(pt[1]))
		}); err != nil {
			t.Fatal(err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0]*pt[1]) * 0.125 })
		s.SetSource(func(pt []int) float64 { return 0.003 * float64(pt[0]+2*pt[1]) })
		return s
	}
	full := mk()
	if _, err := full.Execute(nil, RunSpec{Timesteps: 6}); err != nil {
		t.Fatal(err)
	}

	half := mk()
	if _, err := half.Execute(nil, RunSpec{Timesteps: 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := half.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// The fresh solver gets NO coefficients, NO source, NO initial state:
	// everything must come from the checkpoint.
	resumed, err := NewSolver(Config{Dims: []int{9, 9}, Banded: true, Timesteps: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if resumed.StepsRun() != 3 {
		t.Fatalf("StepsRun = %d, want 3", resumed.StepsRun())
	}
	if _, err := resumed.Execute(nil, RunSpec{Timesteps: 3}); err != nil {
		t.Fatal(err)
	}
	want, got := full.Export(nil), resumed.Export(nil)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resumed diverged at cell %d: %v != %v (bit-exactness required)", i, got[i], want[i])
		}
	}
}

// Corrupted checkpoints: every validation Load performs must fire, and a
// rejected load must leave the solver completely untouched.
func TestCheckpointCorruptedRejected(t *testing.T) {
	mkBuf := func(banded bool, mutate func(*checkpoint)) *bytes.Reader {
		cfg := Config{Dims: []int{8, 8}, Banded: banded, Timesteps: 2, Workers: 2}
		src, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if banded {
			if err := src.SetCoefficients(func(p int, pt []int) float64 { return 0.2 }); err != nil {
				t.Fatal(err)
			}
		}
		src.SetSource(func(pt []int) float64 { return 0.01 })
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var cp checkpoint
		if err := gob.NewDecoder(&buf).Decode(&cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&cp); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(out.Bytes())
	}

	cases := []struct {
		name   string
		banded bool
		mutate func(*checkpoint)
	}{
		{"short source", false, func(cp *checkpoint) { cp.Source = cp.Source[:3] }},
		{"long source", false, func(cp *checkpoint) { cp.Source = append(cp.Source, 1, 2, 3) }},
		{"stencil points mismatch", false, func(cp *checkpoint) { cp.StencilNP = 99 }},
		{"short state", false, func(cp *checkpoint) { cp.State = cp.State[:10] }},
		{"negative steps", false, func(cp *checkpoint) { cp.StepsRun = -4 }},
		{"unsupported version", false, func(cp *checkpoint) { cp.Version = 42 }},
		{"coefficient slab count", true, func(cp *checkpoint) { cp.Coeffs = cp.Coeffs[:2] }},
		{"coefficient slab length", true, func(cp *checkpoint) { cp.Coeffs[1] = cp.Coeffs[1][:5] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := NewSolver(Config{Dims: []int{8, 8}, Banded: tc.banded, Timesteps: 2, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if tc.banded {
				if err := dst.SetCoefficients(func(p int, pt []int) float64 { return 0.2 }); err != nil {
					t.Fatal(err)
				}
			}
			const sentinel = 7.25
			dst.SetInitial(func(pt []int) float64 { return sentinel })
			if err := dst.Load(mkBuf(tc.banded, tc.mutate)); err == nil {
				t.Fatal("corrupted checkpoint accepted")
			}
			// Validate-before-mutate: the failed load changed nothing.
			if got := dst.Value([]int{4, 4}); got != sentinel {
				t.Errorf("failed Load mutated the grid: %v", got)
			}
			if dst.StepsRun() != 0 {
				t.Errorf("failed Load mutated the step count: %d", dst.StepsRun())
			}
			if dst.source != nil {
				t.Error("failed Load installed a source term")
			}
		})
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	src, _ := NewSolver(Config{Dims: []int{8, 8}, Timesteps: 1})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Dims: []int{8, 8, 8}, Timesteps: 1},            // wrong dimensionality
		{Dims: []int{8, 9}, Timesteps: 1},               // wrong shape
		{Dims: []int{8, 8}, Order: 2, Timesteps: 1},     // wrong order
		{Dims: []int{8, 8}, Banded: true, Timesteps: 1}, // wrong kind
	}
	for i, cfg := range cases {
		dst, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.NewReader(buf.Bytes())
		if err := dst.Load(data); err == nil {
			t.Errorf("mismatched checkpoint %d accepted", i)
		}
	}
	// Garbage input.
	dst, _ := NewSolver(Config{Dims: []int{8, 8}, Timesteps: 1})
	if err := dst.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("garbage accepted")
	}
}
