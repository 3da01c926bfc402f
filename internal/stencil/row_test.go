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

// checkBox checks box b of d against ref run on each of its rows, bit for
// bit, and that every other cell of back, the array around d, still holds
// sentinel, the cells between the box's rows and planes included. d starts
// lead cells into back, and ref(want, j) computes the row whose first cell
// is cell j of the box.
func checkBox(t *testing.T, b vec.Box, back []float64, lead int, ref func(want []float64, j int), sentinel float64) {
	t.Helper()
	end := b.Span()
	d := back[lead : lead+end]
	inBox := make([]bool, end)
	want := make([]float64, b.N)
	for p := 0; p < b.Planes; p++ {
		for q := 0; q < b.Rows; q++ {
			j := p*b.SZ + q*b.SY
			ref(want, j)
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
		if j := i - lead; (j < 0 || j >= end || !inBox[j]) && !sameFloat(v, sentinel) {
			t.Fatalf("%+v: wrote outside the box, at %d", b, j)
		}
	}
}

// starRef returns the reference for StarBox: star on the row at cell j.
func starRef(s []float64, o []int, c []float64) func(want []float64, j int) {
	return func(want []float64, j int) { star(want, s[j:], o, c) }
}

// bandRef returns the reference for BandBox: band on the row at cell j.
func bandRef(s []float64, o []int, w [][]float64, at int) func(want []float64, j int) {
	return func(want []float64, j int) { band(want, s[j:], o, w, at+j) }
}

// randomBands returns np bands of n random values, each from randomRow.
func randomBands(r *rand.Rand, np, n int) [][]float64 {
	w := make([][]float64, np)
	for p := range w {
		w[p] = randomRow(r, n)
	}
	return w
}

// randomStarBoxes calls f on random boxes (see randomStar7Box), five for
// each row length from 1 to 130 cells, with the offsets and coefficients of
// 3D stars of orders 1 to 3 and of 1D and 2D stars of random order.
func randomStarBoxes(seed int64, f func(r *rand.Rand, b vec.Box, o []int, c []float64)) {
	r := rand.New(rand.NewSource(seed))
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 5; trial++ {
			b := randomStar7Box(r, n)
			nd, order := 3, 1+trial%3
			if trial >= 3 {
				nd, order = trial-2, 1+r.Intn(3)
			}
			o, c := starOffsets(r, nd, order, b.SY, b.SZ)
			f(r, b, o, c)
		}
	}
}

// runBoxRoutine runs a box routine on a d that spans box b and starts 0 to
// 3 cells into an array of sentinels, and checks it against ref with
// checkBox.
func runBoxRoutine(t *testing.T, r *rand.Rand, name string, b vec.Box, call func(d []float64) bool, ref func(want []float64, j int)) {
	t.Helper()
	const sentinel, guard = -7.25, 4
	end := b.Span()
	lead := r.Intn(4)
	back := make([]float64, lead+end+guard)
	for i := range back {
		back[i] = sentinel
	}
	if !call(back[lead : lead+end : lead+end]) {
		t.Fatalf("%+v: %s did not run", b, name)
	}
	checkBox(t, b, back, lead, ref, sentinel)
}

// TestVecStarBoxMatchesGoLoop runs StarBox on randomStarBoxes and checks
// it against star row by row.
func TestVecStarBoxMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	randomStarBoxes(72, func(r *rand.Rand, b vec.Box, o []int, c []float64) {
		s := randomRow(r, b.Span()+slices.Max(o))
		runBoxRoutine(t, r, "StarBox", b, func(d []float64) bool { return vec.StarBox(d, s, &b, o, c) }, starRef(s, o, c))
	})
}

// TestVecBandBoxMatchesGoLoop runs BandBox on randomStarBoxes, with bands
// that hold 0 to 3 cells before the box's first, and checks it against
// band row by row.
func TestVecBandBoxMatchesGoLoop(t *testing.T) {
	skipWithoutAVX2(t)
	randomStarBoxes(76, func(r *rand.Rand, b vec.Box, o []int, _ []float64) {
		at := r.Intn(4)
		w := randomBands(r, len(o), at+b.Span())
		s := randomRow(r, b.Span()+slices.Max(o))
		runBoxRoutine(t, r, "BandBox", b, func(d []float64) bool { return vec.BandBox(d, s, &b, o, w, at) }, bandRef(s, o, w, at))
	})
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
	// Slices of 4 times the length fit every bad shape except the
	// overflowing ones, so each fails its own check.
	d, s = make([]float64, 4*len(d)), make([]float64, 4*len(s))
	for name, bad := range badShapes {
		bb := b
		bad(&bb)
		mustPanic(name, bb, d, s, o, c)
	}
	// The exact lengths pass.
	vec.StarBox(d[:end], s[:end+extra], &b, o, c)
}

// badShapes breaks a valid box shape every way StarBox and BandBox check.
var badShapes = map[string]func(*vec.Box){
	"no cells":            func(b *vec.Box) { b.N = 0 },
	"no rows":             func(b *vec.Box) { b.Rows = 0 },
	"no planes":           func(b *vec.Box) { b.Planes = 0 },
	"zero row stride":     func(b *vec.Box) { b.SY = 0 },
	"SY above SZ":         func(b *vec.Box) { b.SY = b.SZ + 1 },
	"overflowing rows":    func(b *vec.Box) { b.Rows = math.MaxInt / 4 },
	"overflowing planes":  func(b *vec.Box) { b.Planes = math.MaxInt / 8 },
	"overflowing strides": func(b *vec.Box) { b.Rows, b.SY, b.SZ = 3, math.MaxInt/2, math.MaxInt/2 },
}

// BandBox checks its arguments before it looks for AVX2, so these hold on
// every host.
func TestVecBandBoxChecksShape(t *testing.T) {
	b := vec.Box{N: 5, Rows: 2, Planes: 3, SY: 7, SZ: 16}
	o, _ := starOffsets(rand.New(rand.NewSource(77)), 3, 2, b.SY, b.SZ)
	end, extra, at := b.Span(), slices.Max(o), 2
	d, s := make([]float64, end), make([]float64, end+extra)
	bands := func(n int) [][]float64 {
		w := make([][]float64, len(o))
		for p := range w {
			w[p] = make([]float64, n)
		}
		return w
	}
	w := bands(at + end)
	mustPanic := func(name string, b vec.Box, d, s []float64, o []int, w [][]float64, at int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: BandBox did not panic", name)
			}
		}()
		vec.BandBox(d, s, &b, o, w, at)
	}
	with := func(p, v int) []int {
		o := slices.Clone(o)
		o[p] = v
		return o
	}
	short := slices.Clone(w)
	short[4] = short[4][:at+end-1]
	mustPanic("one band missing", b, d, s, o, w[1:], at)
	mustPanic("no points", b, d, s, nil, nil, at)
	mustPanic("one band a cell short", b, d, s, o, short, at)
	mustPanic("negative first cell", b, d, s, o, w, -1)
	mustPanic("first cell a cell late", b, d, s, o, w, at+1)
	mustPanic("overflowing first cell", b, d, s, o, w, math.MaxInt)
	mustPanic("negative offset", b, d, s, with(3, -1), w, at)
	mustPanic("offset past s", b, d, s, with(0, len(s)), w, at)
	mustPanic("d one cell short", b, d[:end-1], s, o, w, at)
	mustPanic("s one cell short", b, d, s[:end+extra-1], o, w, at)
	// Slices and bands of 4 times the length fit every bad shape except
	// the overflowing ones, so each fails its own check.
	d, s = make([]float64, 4*len(d)), make([]float64, 4*len(s))
	long := bands(4 * (at + end))
	for name, bad := range badShapes {
		bb := b
		bad(&bb)
		mustPanic(name, bb, d, s, o, long, at)
	}
	// The exact lengths pass.
	vec.BandBox(d[:end], s[:end+extra], &b, o, w, at)
}

// FuzzBoxRoutines checks the bounds contract of the three box routines, the
// only code here without bounds checks. From its input it builds a box, a
// star, bands for it and slices up to 3 cells shorter than the box needs,
// and checks that Star7Box (for the 3D 7-point star), StarBox and BandBox
// panic exactly when the documented shape condition fails, and otherwise
// compute what star and band compute row by row, writing nothing outside
// the box.
//
// short packs the shortfalls: bits 0–1 of d, 2–3 of s, 4–5 of one band,
// and 6–7 pick that band.
func FuzzBoxRoutines(f *testing.F) {
	// N = 1 to 4 on every star, with exact slices and with d, s or a band
	// one cell short, and with SZ below SY.
	for n := uint8(1); n <= 4; n++ {
		for shape := uint8(0); shape < 9; shape++ {
			for _, short := range []uint8{0, 1, 1 << 2, 1 << 4, 1<<4 | 1<<6} {
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
		shortD, shortS, shortW := int(short&3), int(short>>2&3), int(short>>4&3)
		sLen := max(0, span+slices.Max(o)-shortS)
		s := randomRow(r, sLen)
		at := r.Intn(4)
		w := randomBands(r, len(o), max(0, at+span))
		p := int(short>>6) % len(w)
		w[p] = w[p][:max(0, at+span-shortW)]
		valid := b.N >= 1 && b.Rows >= 1 && b.Planes >= 1 && b.SY >= 1 && b.SY <= b.SZ
		const sentinel, guard = -7.25, 4
		dLen := max(0, span-shortD)
		back := make([]float64, guard+dLen+guard)
		fits := func(need int) bool { return valid && dLen >= span && sLen >= span+need }
		offsetsFit := fits(slices.Max(o)) && slices.Min(o) >= 0 && slices.Max(o) < sLen
		bandsFit := true
		for _, wp := range w {
			bandsFit = bandsFit && len(wp)-at >= span
		}
		run := func(name string, want bool, ref func(want []float64, j int), call func(d []float64) bool) {
			for i := range back {
				back[i] = sentinel
			}
			panicked := true
			var ran bool
			func() {
				defer func() { _ = recover() }()
				ran = call(back[guard : guard+dLen : guard+dLen])
				panicked = false
			}()
			if panicked == want {
				t.Fatalf("%s on %+v, offsets %v, %d and %d cells, bands %d cells short from cell %d: panicked %v, want %v",
					name, b, o, dLen, sLen, shortW, at, panicked, !want)
			}
			if ran {
				checkBox(t, b, back, guard, ref, sentinel)
				return
			}
			for i, v := range back {
				if !sameFloat(v, sentinel) {
					t.Fatalf("%s on %+v: wrote cell %d without running", name, b, i-guard)
				}
			}
		}
		run("StarBox", offsetsFit, starRef(s, o, c), func(d []float64) bool { return vec.StarBox(d, s, &b, o, c) })
		run("BandBox", offsetsFit && bandsFit, bandRef(s, o, w, at), func(d []float64) bool { return vec.BandBox(d, s, &b, o, w, at) })
		if nd == 3 && order == 1 {
			run("Star7Box", fits(2*b.SZ), starRef(s, o, c), func(d []float64) bool { return vec.Star7Box(d, s, &b, (*[7]float64)(c)) })
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
