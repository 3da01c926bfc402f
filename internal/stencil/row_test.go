package stencil

import (
	"math"
	"math/rand"
	"slices"
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
	// Slices of 4 times the length fit every bad shape below except the
	// overflowing one, so each fails its own check.
	d, s = make([]float64, 4*len(d)), make([]float64, 4*len(s))
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
	vec.Star7Box(d[:end], s[:end+2*b.SZ], &b, &c)
}

// starOffsets returns the flat offsets of the nd-dimensional star of the
// given order on a layout with row stride sy and plane stride sz, shifted
// up by the star's reach so that the lowest is 0, as vec.StarBox takes
// them, and the coefficients of a random star of that shape.
func starOffsets(r *rand.Rand, nd, order, sy, sz int) (o []int, c []float64) {
	strides := []int{sz, sy, 1}[3-nd:]
	for _, p := range NewStar(nd, order).Points() {
		off := 0
		for k, x := range p {
			off += x * strides[k]
		}
		o = append(o, off+order*strides[0])
	}
	return o, randomValues(r, len(o))
}

// checkStarBox checks box b of d against star run on each of its rows, bit
// for bit, and that every other cell of back, the array around d, still
// holds sentinel, the cells between the box's rows and planes included.
// d starts lead cells into back.
func checkStarBox(t *testing.T, b vec.Box, back []float64, lead int, s []float64, o []int, c []float64, sentinel float64) {
	t.Helper()
	end := b.Span()
	d := back[lead : lead+end]
	inBox := make([]bool, end)
	want := make([]float64, b.N)
	for p := 0; p < b.Planes; p++ {
		for q := 0; q < b.Rows; q++ {
			j := p*b.SZ + q*b.SY
			star(want, s[j:], o, c)
			for i, w := range want {
				inBox[j+i] = true
				if got := d[j+i]; !sameFloat(got, w) {
					t.Fatalf("%+v, offsets %v: plane %d row %d cell %d is %v (%#x), the Go loop gives %v (%#x)",
						b, o, p, q, i, got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
		}
	}
	for i, v := range back {
		if j := i - lead; (j < 0 || j >= end || !inBox[j]) && !sameFloat(v, sentinel) {
			t.Fatalf("%+v, offsets %v: wrote outside the box, at %d", b, o, j)
		}
	}
}

// TestVecStarBoxMatchesGoLoop runs StarBox with the offsets of 1D, 2D and
// 3D stars of orders 1 to 3 on random boxes (see randomStar7Box), rows of
// 1 to 130 cells, and checks them against star row by row.
func TestVecStarBoxMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	const sentinel = -7.25
	r := rand.New(rand.NewSource(72))
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 5; trial++ {
			b := randomStar7Box(r, n)
			nd, order := 3, 1+trial%3
			if trial >= 3 {
				nd, order = trial-2, 1+r.Intn(3)
			}
			o, c := starOffsets(r, nd, order, b.SY, b.SZ)
			end := b.Span()
			s := randomRow(r, end+slices.Max(o))
			const guard = 4
			lead := r.Intn(4)
			back := make([]float64, lead+end+guard)
			for i := range back {
				back[i] = sentinel
			}
			if !vec.StarBox(back[lead:lead+end:lead+end], s, &b, o, c) {
				t.Fatalf("%+v: StarBox did not run", b)
			}
			checkStarBox(t, b, back, lead, s, o, c, sentinel)
		}
	}
}

// StarBox checks its arguments before it looks for AVX2, so these hold on
// every host.
func TestVecStarBoxChecksShape(t *testing.T) {
	b := vec.Box{N: 5, Rows: 2, Planes: 3, SY: 7, SZ: 16}
	o, c := starOffsets(rand.New(rand.NewSource(75)), 3, 2, b.SY, b.SZ)
	end, extra := b.Span(), slices.Max(o)
	d, s := make([]float64, end), make([]float64, end+extra)
	mustPanic := func(name string, b vec.Box, d, s []float64, o []int, c []float64) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: StarBox did not panic", name)
			}
		}()
		vec.StarBox(d, s, &b, o, c)
	}
	with := func(p, v int) []int {
		o := slices.Clone(o)
		o[p] = v
		return o
	}
	mustPanic("one coefficient short", b, d, s, o, c[1:])
	mustPanic("no points", b, d, s, nil, nil)
	mustPanic("negative offset", b, d, s, with(3, -1), c)
	mustPanic("offset past s", b, d, s, with(0, len(s)), c)
	mustPanic("d one cell short", b, d[:end-1], s, o, c)
	mustPanic("s one cell short", b, d, s[:end+extra-1], o, c)
	// Slices of 4 times the length fit every bad shape below except the
	// overflowing ones, so each fails its own check.
	d, s = make([]float64, 4*len(d)), make([]float64, 4*len(s))
	for name, bad := range map[string]func(*vec.Box){
		"no cells":            func(b *vec.Box) { b.N = 0 },
		"no rows":             func(b *vec.Box) { b.Rows = 0 },
		"no planes":           func(b *vec.Box) { b.Planes = 0 },
		"zero row stride":     func(b *vec.Box) { b.SY = 0 },
		"SY above SZ":         func(b *vec.Box) { b.SY = b.SZ + 1 },
		"overflowing rows":    func(b *vec.Box) { b.Rows = math.MaxInt / 4 },
		"overflowing planes":  func(b *vec.Box) { b.Planes = math.MaxInt / 8 },
		"overflowing strides": func(b *vec.Box) { b.Rows, b.SY, b.SZ = 3, math.MaxInt/2, math.MaxInt/2 },
	} {
		bb := b
		bad(&bb)
		mustPanic(name, bb, d, s, o, c)
	}
	// The exact lengths pass.
	vec.StarBox(d[:end], s[:end+extra], &b, o, c)
}

// FuzzBoxRoutines checks the bounds contract of the two box routines, the
// only code here without bounds checks. From its input it builds a box, a
// star and slices up to 3 cells shorter than the box needs, and checks
// that Star7Box (for the 3D 7-point star) and StarBox panic exactly when
// the documented shape condition fails, and otherwise compute what star
// computes row by row, writing nothing outside the box.
func FuzzBoxRoutines(f *testing.F) {
	// N = 1 to 4 on every star, with exact slices and with d or s one
	// cell short, and with SZ below SY.
	for n := uint8(1); n <= 4; n++ {
		for shape := uint8(0); shape < 9; shape++ {
			for _, short := range []uint8{0, 1, 1 << 2} {
				f.Add(n, uint8(2), uint8(2), uint8(0b0110), shape, short, int64(n))
			}
			f.Add(n, uint8(2), uint8(2), uint8(0b10110), shape, uint8(0), int64(n))
		}
	}
	f.Fuzz(func(t *testing.T, n, rows, planes, gaps, shape, short uint8, seed int64) {
		r := rand.New(rand.NewSource(seed))
		b := vec.Box{N: int(n % 131), Rows: int(rows % 5), Planes: int(planes % 5)}
		b.SY = b.N + int(gaps&3)
		b.SZ = b.Rows*b.SY + int(gaps>>2&3)
		if gaps&16 != 0 {
			b.SZ = b.SY - 1
		}
		nd, order := 1+int(shape%3), 1+int(shape/3%3)
		o, c := starOffsets(r, nd, order, b.SY, b.SZ)
		// Lengths the box would need, which the checks below compare
		// against directly: every term here is small.
		span := b.Span()
		shortD, shortS := int(short&3), int(short>>2&3)
		sLen := max(0, span+slices.Max(o)-shortS)
		s := randomRow(r, sLen)
		valid := b.N >= 1 && b.Rows >= 1 && b.Planes >= 1 && b.SY >= 1 && b.SY <= b.SZ
		const sentinel, guard = -7.25, 4
		dLen := max(0, span-shortD)
		back := make([]float64, guard+dLen+guard)
		run := func(name string, need int, call func(d []float64) bool) {
			for i := range back {
				back[i] = sentinel
			}
			want := valid && dLen >= span && sLen >= span+need
			if name == "StarBox" {
				want = want && slices.Min(o) >= 0 && slices.Max(o) < sLen
			}
			panicked := true
			var ran bool
			func() {
				defer func() { _ = recover() }()
				ran = call(back[guard : guard+dLen : guard+dLen])
				panicked = false
			}()
			if panicked == want {
				t.Fatalf("%s on %+v, offsets %v, %d and %d cells: panicked %v, want %v",
					name, b, o, dLen, sLen, panicked, !want)
			}
			if ran {
				checkStarBox(t, b, back, guard, s, o, c, sentinel)
				return
			}
			for i, v := range back {
				if !sameFloat(v, sentinel) {
					t.Fatalf("%s on %+v: wrote cell %d without running", name, b, i-guard)
				}
			}
		}
		run("StarBox", slices.Max(o), func(d []float64) bool { return vec.StarBox(d, s, &b, o, c) })
		if nd == 3 && order == 1 {
			run("Star7Box", 2*b.SZ, func(d []float64) bool { return vec.Star7Box(d, s, &b, (*[7]float64)(c)) })
		}
	})
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
