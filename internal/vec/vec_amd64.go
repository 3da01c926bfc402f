package vec

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers. It is probed once, at package initialization.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID and XGETBV (vec_amd64.s).
func cpuHasAVX2() bool

//go:noescape
func star7Box(d, s []float64, b *Box, c *[7]float64)

//go:noescape
func starBox(d, s []float64, b *Box, o []int, c []float64)

//go:noescape
func bandBox(d, s []float64, b *Box, o []int, w [][]float64, at int)

//go:noescape
func mulAdd(d, s []float64, c float64) int

//go:noescape
func peakLoop(a *[PeakLanes]float64, m, c float64, iters int64)
