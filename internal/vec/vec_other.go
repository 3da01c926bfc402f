//go:build !amd64

package vec

// Without the amd64 assembly there is no vector path: the box routines run
// nothing, MulAdd computes an empty prefix, and the Go loops do all the
// work.
const hasAVX2 = false

func star7Box(d, s []float64, b *Box, c *[7]float64) {}

func starBox(d, s []float64, b *Box, o []int, c []float64) {}

func bandBox(d, s []float64, b *Box, o []int, w [][]float64, at int) {}

func mulAdd(d, s []float64, c float64) int { return 0 }

func peakLoop(a *[PeakLanes]float64, m, c float64, iters int64) {}
