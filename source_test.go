package nustencil

import (
	"math"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{6, 6}, Timesteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]*10 + pt[1]) })
	data := s.Export(nil)
	if len(data) != s.Len() || s.Len() != 36 {
		t.Fatalf("export length %d", len(data))
	}
	if data[15] != 12 { // pt (1,3) -> 1*10+3? index 15 = (2,3) -> 23
		// index 15 = row 2, col 3 in 6x6 -> value 23
		if data[15] != 23 {
			t.Fatalf("export order wrong: data[15] = %v", data[15])
		}
	}
	// Mutate and re-import.
	data[0] = 99
	if err := s.Import(data); err != nil {
		t.Fatal(err)
	}
	if got := s.Value([]int{0, 0}); got != 99 {
		t.Fatalf("import did not land: %v", got)
	}
	if err := s.Import(data[:10]); err == nil {
		t.Error("short import accepted")
	}
	// Export into a provided buffer reuses it.
	buf := make([]float64, 64)
	out := s.Export(buf)
	if &out[0] != &buf[0] {
		t.Error("provided buffer not reused")
	}
}

func TestImportConsistentAcrossParity(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{8, 8}, Timesteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil { // steps now odd
		t.Fatal(err)
	}
	data := make([]float64, s.Len())
	for i := range data {
		data[i] = float64(i)
	}
	if err := s.Import(data); err != nil {
		t.Fatal(err)
	}
	if got := s.Value([]int{1, 1}); got != 9 {
		t.Fatalf("value after import at odd parity: %v", got)
	}
	// Running again must start from the imported state in both buffers.
	if _, err := s.Execute(nil, RunSpec{Timesteps: 1}); err != nil {
		t.Fatal(err)
	}
}

// A constant field with weights summing to 1 and a constant source grows by
// exactly the source each step.
func TestSetSourceLinearGrowth(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{14, 14, 14}, Timesteps: 5, Scheme: NuCORALS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return 2 })
	s.SetSource(func(pt []int) float64 { return 0.25 })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The centre sits 7 cells from the boundary ring, so after 6 total
	// steps of an order-1 stencil no boundary influence has reached it:
	// the uniform region grows by exactly the source each step.
	got := s.Value([]int{7, 7, 7})
	want := 2 + 5*0.25
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("centre = %v, want %v", got, want)
	}
	// Clearing the source freezes the uniform region again.
	s.SetSource(nil)
	if _, err := s.Execute(nil, RunSpec{Timesteps: 1}); err != nil {
		t.Fatal(err)
	}
	if g2 := s.Value([]int{7, 7, 7}); math.Abs(g2-want) > 1e-9 {
		t.Fatalf("after clearing source: %v", g2)
	}
}

// All schemes agree when a source term is present.
func TestSchemesAgreeWithSource(t *testing.T) {
	probe := []int{5, 5, 5}
	var want float64
	for i, scheme := range Schemes() {
		s, err := NewSolver(Config{Dims: []int{11, 11, 11}, Timesteps: 6, Scheme: scheme, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0]) * 0.1 })
		s.SetSource(func(pt []int) float64 { return float64(pt[1]) * 0.01 })
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		v := s.Value(probe)
		if i == 0 {
			want = v
		} else if v != want {
			t.Fatalf("%s: %v != %v", scheme, v, want)
		}
	}
}

func TestHostMachineSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the host")
	}
	d, err := MachineDescription(Host)
	if err != nil {
		t.Fatalf("host description: %v", err)
	}
	if d == "" {
		t.Fatal("empty host description")
	}
	res, err := Simulate(SimConfig{Machine: Host, Scheme: NuCORALS, Dims: []int{130, 130, 130}})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 {
		t.Errorf("host simulation degenerate: %+v", res)
	}
}
