// Package vec holds the AVX2 assembly behind the stencil row kernels and
// the peak-FLOPS loop, and the CPU probe that selects it once, when the
// program starts.
//
// Each row routine computes a prefix of its output row d, a multiple of 4
// cells, and returns the prefix length. The caller's Go loop finishes the
// row; that loop is also the reference every routine matches bit for bit.
// Without AVX2 (another architecture, or a CPU or OS without it) the prefix
// is 0 and the Go loop runs the whole row.
//
// The routines multiply and add in the order of the Go expression they
// stand for, with one VMULPD per product and one VADDPD per sum. They never
// use FMA: a fused multiply-add rounds once where the Go loop rounds twice,
// so its results would differ in the last bit.
//
// The assembly does no bounds checks. Every slice a routine reads must be
// at least as long as d. The callers slice each range to exactly len(d)
// before the call, so a bad row panics in Go before any assembly runs.
package vec

// Kernel names the row kernels in use: "avx2", or "go" when the Go loops
// run alone.
func Kernel() string {
	if hasAVX2 {
		return "avx2"
	}
	return "go"
}

// Star7 sets d[i] = c[0]·s[0][i] + c[1]·s[1][i] + … + c[6]·s[6][i], summed
// left to right, on a prefix of d and returns its length.
func Star7(d []float64, s *[7][]float64, c *[7]float64) int {
	if !hasAVX2 {
		return 0
	}
	return star7(d, s, c)
}

// Mul sets d[i] = c·s[i] on a prefix of d and returns its length.
func Mul(d, s []float64, c float64) int {
	if !hasAVX2 {
		return 0
	}
	return mul(d, s, c)
}

// MulAdd sets d[i] = d[i] + c·s[i] on a prefix of d and returns its length.
func MulAdd(d, s []float64, c float64) int {
	if !hasAVX2 {
		return 0
	}
	return mulAdd(d, s, c)
}

// PeakLanes is the number of independent chains PeakLoop runs: 12 registers
// of 4 lanes.
const PeakLanes = 48

// PeakLoop runs iters rounds of a[i] = a[i]·m + c on every lane, one VMULPD
// then one VADDPD per register, and reports whether it ran. Without AVX2 it
// leaves a as it is and returns false.
func PeakLoop(a *[PeakLanes]float64, m, c float64, iters int64) bool {
	if !hasAVX2 {
		return false
	}
	// The runtime cannot preempt assembly, so a long call would hold up a
	// stop-the-world pause for its whole length. Slices of peakSlice rounds
	// take well under a millisecond; the lanes pass between them through
	// memory, exactly.
	for ; iters > 0; iters -= peakSlice {
		peakLoop(a, m, c, min(iters, peakSlice))
	}
	return true
}

const peakSlice = 1 << 16
