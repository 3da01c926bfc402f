package stencil

import (
	"math"
	"math/rand"
	"testing"

	"nustencil/internal/vec"
)

// The internal/vec row routines against the Go loops that finish their
// rows: bit for bit, on rows of 0 to 130 cells starting at every alignment,
// with inputs that include ±0, subnormals, ±Inf and NaN.

var specialValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -1e300, 1e-300,
}

// randomValues returns n values, a quarter of them special.
func randomValues(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = specialValues[r.Intn(len(specialValues))]
		} else {
			v[i] = r.NormFloat64()
		}
	}
	return v
}

// randomRow returns n random values starting 0 to 3 cells into a fresh
// array, so rows start at every 32-byte alignment.
func randomRow(r *rand.Rand, n int) []float64 {
	lead := r.Intn(4)
	return append(make([]float64, lead, lead+n), randomValues(r, n)...)[lead:]
}

func randomRows7(r *rand.Rand, n int) [7][]float64 {
	var s [7][]float64
	for i := range s {
		s[i] = randomRow(r, n)
	}
	return s
}

// sameFloat reports whether a and b are the same float64 bit for bit; any
// two NaNs count as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// compareRoutine runs a vector routine, then the Go loop from the prefix it
// returns, on one copy of a random n-cell row, and the Go loop alone on
// another. The prefix must cover every full group of 4 cells, the copies
// must agree bit for bit, and the cells around the row must stay as they
// were.
func compareRoutine(t *testing.T, name string, r *rand.Rand, n int,
	vector func(d []float64) int, goLoop func(k int, d []float64)) {
	t.Helper()
	const guard = 4
	lead := r.Intn(4)
	back := make([]float64, lead+n+guard)
	for i := range back {
		back[i] = -7.25
	}
	got := back[lead : lead+n : lead+n]
	copy(got, randomValues(r, n))
	want := append([]float64(nil), got...)

	k := vector(got)
	if k != n&^3 {
		t.Fatalf("%s, %d cells: vector prefix %d, want %d", name, n, k, n&^3)
	}
	goLoop(k, got)
	goLoop(0, want)
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s, %d cells: cell %d is %v (%#x), the Go loop gives %v (%#x)",
				name, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i, v := range back {
		if (i < lead || i >= lead+n) && v != -7.25 {
			t.Fatalf("%s, %d cells: wrote outside the row, at %d", name, n, i-lead)
		}
	}
}

func skipWithoutAVX2(t *testing.T) {
	if vec.Kernel() != "avx2" {
		t.Skip("no AVX2: the Go loops run alone")
	}
}

func TestVecStar7MatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	r := rand.New(rand.NewSource(71))
	for n := 0; n <= 130; n++ {
		s := randomRows7(r, n)
		c := (*[7]float64)(randomValues(r, 7))
		compareRoutine(t, "Star7", r, n,
			func(d []float64) int { return vec.Star7(d, &s, c) },
			func(k int, d []float64) { star7(k, d, &s, c) })
	}
}

func TestVecMulMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	r := rand.New(rand.NewSource(73))
	for n := 0; n <= 130; n++ {
		s := randomRow(r, n)
		c := randomValues(r, 1)[0]
		compareRoutine(t, "Mul", r, n,
			func(d []float64) int { return vec.Mul(d, s, c) },
			func(k int, d []float64) { mul(k, d, s, c) })
	}
}

// MulAdd with a coefficient of 1 is how the constant-coefficient row
// kernels add the source term.
func TestVecMulAddMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	r := rand.New(rand.NewSource(74))
	for n := 0; n <= 130; n++ {
		s := randomRow(r, n)
		for _, c := range []float64{randomValues(r, 1)[0], 1} {
			compareRoutine(t, "MulAdd", r, n,
				func(d []float64) int { return vec.MulAdd(d, s, c) },
				func(k int, d []float64) { mulAdd(k, d, s, c) })
		}
	}
}
