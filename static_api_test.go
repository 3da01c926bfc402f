package nustencil

import (
	"testing"
)

// The static spin-flag schedule produces the same results as the
// dependency-driven scheduler through the public API. A small cache hint
// cuts nuCATS' slabs into wavefront chunks, so the chunked plan's emission
// order is run as a static schedule too.
func TestStaticScheduleAgrees(t *testing.T) {
	probe := []int{6, 6, 6}
	run := func(static bool, scheme SchemeName, llc int64) (float64, int) {
		s, err := NewSolver(Config{
			Dims: []int{13, 13, 13}, Timesteps: 6, Scheme: scheme,
			Workers: 3, StaticSchedule: static, LLCBytesPerWorker: llc,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0]*2 - pt[1] + pt[2]%3) })
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("static=%v %s: %v", static, scheme, err)
		}
		return s.Value(probe), rep.Tiles
	}
	for _, c := range []struct {
		scheme SchemeName
		llc    int64 // 0 takes the default
	}{{Naive, 0}, {NuCATS, 0}, {NuCATS, 4 << 10}, {NuCORALS, 0}, {CATS, 0}, {PLuTo, 0}} {
		a, _ := run(false, c.scheme, c.llc)
		b, tiles := run(true, c.scheme, c.llc)
		if a != b {
			t.Errorf("%s llc=%d: static %v != scheduled %v", c.scheme, c.llc, b, a)
		}
		// 3 slabs × 2 segments unchunked; chunks multiply the count.
		if c.llc != 0 && tiles <= 6 {
			t.Errorf("%s llc=%d: %d tiles, want a chunked plan", c.scheme, c.llc, tiles)
		}
	}
}

// Shared-queue schemes cannot run statically and must say so.
func TestStaticScheduleRejectsSharedQueueSchemes(t *testing.T) {
	for _, scheme := range []SchemeName{CORALS, Pochoir} {
		s, err := NewSolver(Config{
			Dims: []int{10, 10, 10}, Timesteps: 2, Scheme: scheme,
			Workers: 2, StaticSchedule: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil {
			t.Errorf("%s accepted a static schedule despite unowned tiles", scheme)
		}
	}
}
