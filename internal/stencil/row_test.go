package stencil

import (
	"math"
	"math/rand"
	"testing"

	"nustencil/internal/vec"
)

// The internal/vec routines against the Go loops they stand for: bit for
// bit, on rows of 0 to 130 cells starting at every alignment, and on boxes
// of such rows, with inputs that include ±0, subnormals, ±Inf and NaN.

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

// randomStar7Box returns a box of n-cell rows, 1 to 4 rows by 1 to 4
// planes, whose strides leave gaps of 0 to 3 cells between rows and between
// planes.
func randomStar7Box(r *rand.Rand, n int) vec.Box {
	b := vec.Box{N: n, Rows: 1 + r.Intn(4), Planes: 1 + r.Intn(4)}
	b.SY = n + r.Intn(4)
	b.SZ = b.Rows*b.SY + r.Intn(4)
	return b
}

// TestVecStar7BoxMatchesGoLoop runs Star7Box on random boxes and star7 on
// each of their rows, and checks that the two agree bit for bit and that
// Star7Box left every cell outside the box as it was, gaps included.
func TestVecStar7BoxMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	const sentinel = -7.25
	r := rand.New(rand.NewSource(71))
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 4; trial++ {
			b := randomStar7Box(r, n)
			end := b.Span()
			c := (*[7]float64)(randomValues(r, 7))
			s := randomRow(r, end+2*b.SZ)
			const guard = 4
			lead := r.Intn(4)
			back := make([]float64, lead+end+guard)
			for i := range back {
				back[i] = sentinel
			}
			d := back[lead : lead+end : lead+end]
			if !vec.Star7Box(d, s, &b, c) {
				t.Fatalf("%+v: Star7Box did not run", b)
			}
			inBox := make([]bool, end)
			want := make([]float64, n)
			for p := 0; p < b.Planes; p++ {
				for q := 0; q < b.Rows; q++ {
					j := p*b.SZ + q*b.SY
					at := func(o int) []float64 { return s[b.SZ+j+o:][:n] }
					rows := [7][]float64{at(0), at(-b.SZ), at(b.SZ), at(-b.SY), at(b.SY), at(-1), at(1)}
					star7(want, &rows, c)
					for i, w := range want {
						inBox[j+i] = true
						if got := d[j+i]; !sameFloat(got, w) {
							t.Fatalf("%+v: plane %d row %d cell %d is %v (%#x), the Go loop gives %v (%#x)",
								b, p, q, i, got, math.Float64bits(got), w, math.Float64bits(w))
						}
					}
				}
			}
			for i, v := range back {
				if j := i - lead; (j < 0 || j >= end || !inBox[j]) && v != sentinel {
					t.Fatalf("%+v: wrote outside the box, at %d", b, j)
				}
			}
		}
	}
}

// Star7Box checks its shape before it looks for AVX2, so these hold on
// every host.
func TestVecStar7BoxChecksShape(t *testing.T) {
	b := vec.Box{N: 5, Rows: 2, Planes: 3, SY: 7, SZ: 16}
	end := b.Span()
	d, s := make([]float64, end), make([]float64, end+2*b.SZ)
	var c [7]float64
	mustPanic := func(name string, b vec.Box, d, s []float64) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Star7Box did not panic", name)
			}
		}()
		vec.Star7Box(d, s, &b, &c)
	}
	mustPanic("d one cell short", b, d[:end-1], s)
	mustPanic("s one cell short", b, d, s[:end+2*b.SZ-1])
	for name, bad := range map[string]func(*vec.Box){
		"no cells":        func(b *vec.Box) { b.N = 0 },
		"no rows":         func(b *vec.Box) { b.Rows = 0 },
		"no planes":       func(b *vec.Box) { b.Planes = 0 },
		"zero row stride": func(b *vec.Box) { b.SY = 0 },
		"SY above SZ":     func(b *vec.Box) { b.SY = b.SZ + 1 },
		"overflowing":     func(b *vec.Box) { b.Planes = math.MaxInt / 8 },
	} {
		bb := b
		bad(&bb)
		mustPanic(name, bb, d, s)
	}
	// The exact lengths pass.
	vec.Star7Box(d, s, &b, &c)
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
