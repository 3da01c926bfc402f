package nustencil

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewSolverValidation(t *testing.T) {
	bad := []Config{
		{},                                 // no dims
		{Dims: []int{8, 8}, Timesteps: -1}, // negative steps
		{Dims: []int{2, 8}, Timesteps: 1},  // dim too small for order 1
		{Dims: []int{8, 8}, Timesteps: 1, Scheme: "bogus"},
		{Dims: []int{8, 8}, Timesteps: 1, Workers: -2},
	}
	for i, cfg := range bad {
		if _, err := NewSolver(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewSolver(Config{Dims: []int{8, 8, 8}, Timesteps: 3}); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestSolverDefaults(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{8, 8, 8}, Timesteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPoints() != 7 {
		t.Errorf("default 3D order-1 star has %d points", s.NumPoints())
	}
	if !strings.Contains(s.StencilDescription(), "7-point") {
		t.Errorf("description = %q", s.StencilDescription())
	}
}

// All schemes through the public API agree with each other exactly.
func TestAllSchemesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	init := make([]float64, 12*12*12)
	for i := range init {
		init[i] = r.Float64()
	}
	results := map[SchemeName]float64{}
	probe := []int{6, 6, 6}
	for _, scheme := range Schemes() {
		s, err := NewSolver(Config{
			Dims: []int{12, 12, 12}, Timesteps: 8, Scheme: scheme,
			Workers: 4, NUMANodes: 2, LLCBytesPerWorker: 2 << 10,
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		idx := 0
		s.SetInitial(func(pt []int) float64 { v := init[idx]; idx++; return v })
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if rep.Updates != int64(10*10*10*8) {
			t.Errorf("%s: %d updates, want %d", scheme, rep.Updates, 10*10*10*8)
		}
		results[scheme] = s.Value(probe)
	}
	want := results[Naive]
	for scheme, got := range results {
		if got != want {
			t.Errorf("%s result %v differs from naive %v", scheme, got, want)
		}
	}
}

func TestSolverRunStepsAccumulates(t *testing.T) {
	mk := func() *Solver {
		s, err := NewSolver(Config{Dims: []int{10, 10}, Timesteps: 6, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0]) - float64(pt[1])/2 })
		return s
	}
	oneShot := mk()
	if _, err := oneShot.Run(); err != nil {
		t.Fatal(err)
	}
	split := mk()
	for i := 0; i < 3; i++ {
		if _, err := split.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
			t.Fatal(err)
		}
	}
	pt := []int{5, 5}
	if a, b := oneShot.Value(pt), split.Value(pt); a != b {
		t.Errorf("6 steps at once (%v) != 3x2 steps (%v)", a, b)
	}
}

func TestBandedSolver(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{9, 9, 9}, Timesteps: 4, Banded: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCoefficients(func(point int, pt []int) float64 {
		if point == 0 {
			return 0.4
		}
		return 0.1
	}); err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return 1 })
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients sum to 1, so the constant field is a fixed point.
	if v := s.Value([]int{4, 4, 4}); math.Abs(v-1) > 1e-12 {
		t.Errorf("fixed point drifted: %v", v)
	}
	if rep.FlopsPerUpdate != 13 {
		t.Errorf("banded 7-point flops = %d", rep.FlopsPerUpdate)
	}
	// Constant solver must reject SetCoefficients.
	c, _ := NewSolver(Config{Dims: []int{8, 8}, Timesteps: 1})
	if err := c.SetCoefficients(func(int, []int) float64 { return 0 }); err == nil {
		t.Error("SetCoefficients on constant solver should fail")
	}
}

func TestZeroTimesteps(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{8, 8}, Timesteps: 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil || rep.Updates != 0 {
		t.Errorf("zero-step run: %+v, %v", rep, err)
	}
}

func TestReportRates(t *testing.T) {
	r := Report{Updates: 26e9, Seconds: 2, FlopsPerUpdate: 13}
	if got := r.Gupdates(); math.Abs(got-13) > 1e-9 {
		t.Errorf("Gupdates = %v", got)
	}
	if got := r.GFLOPS(); math.Abs(got-169) > 1e-9 {
		t.Errorf("GFLOPS = %v", got)
	}
	if (Report{}).Gupdates() != 0 {
		t.Error("zero report should have zero rate")
	}
}

func TestSimulate(t *testing.T) {
	res, err := Simulate(SimConfig{
		Machine: XeonX7550, Scheme: NuCORALS,
		Dims: []int{502, 502, 502}, Cores: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS < 40 || res.GFLOPS > 160 {
		t.Errorf("nuCORALS Xeon GFLOPS = %.1f, expected the paper's regime", res.GFLOPS)
	}
	if res.Bottleneck == "" || res.LocalFraction <= 0 {
		t.Errorf("attribution missing: %+v", res)
	}
	// Errors.
	if _, err := Simulate(SimConfig{Machine: "vax", Scheme: NuCORALS, Dims: []int{8, 8, 8}}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := Simulate(SimConfig{Machine: XeonX7550, Scheme: "bogus", Dims: []int{8, 8, 8}}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Simulate(SimConfig{Machine: XeonX7550, Scheme: Naive, Dims: []int{8, 8}}); err == nil {
		t.Error("2D simulation accepted")
	}
	if _, err := Simulate(SimConfig{Machine: XeonX7550, Scheme: Naive, Dims: []int{8, 8, 8}, Cores: 99}); err == nil {
		t.Error("out-of-range cores accepted")
	}
}

func TestRenderFigures(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 20 { // fig03 + fig04..fig22
		t.Fatalf("FigureIDs = %v", ids)
	}
	for _, id := range []string{"fig03", "fig05", "fig22"} {
		out, err := RenderFigure(id)
		if err != nil || !strings.Contains(out, strings.ToUpper(id)) {
			t.Errorf("RenderFigure(%s): %v, %q", id, err, firstLine(out))
		}
	}
	if _, err := RenderFigure("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
	if !strings.Contains(RenderTableI(), "Opteron") {
		t.Error("Table I should mention the Opteron")
	}
}

func TestMachineDescription(t *testing.T) {
	d, err := MachineDescription(Opteron8222)
	if err != nil || !strings.Contains(d, "8 sockets") {
		t.Errorf("description = %q, %v", d, err)
	}
	if _, err := MachineDescription("pdp11"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func TestRenderFigureCSV(t *testing.T) {
	out, err := RenderFigureCSV("fig22")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 { // header + 6 core counts
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "cores,nuCORALS") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[6], "32,") {
		t.Errorf("last row = %q", lines[6])
	}
	if _, err := RenderFigureCSV("fig03"); err == nil {
		t.Error("fig03 has no CSV form and must be rejected")
	}
}

func TestRenderAttribution(t *testing.T) {
	out, err := RenderAttribution("fig21")
	if err != nil || !strings.Contains(out, "controller") {
		t.Errorf("attribution: %v, %q", err, firstLine(out))
	}
	if _, err := RenderAttribution("fig03"); err == nil {
		t.Error("fig03 must be rejected")
	}
}
