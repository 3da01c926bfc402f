//go:build !amd64

package vec

// Without the amd64 assembly there is no vector path: every routine
// computes an empty prefix and the Go loops run whole rows.
const hasAVX2 = false

func star7(d []float64, s *[7][]float64, c *[7]float64) int { return 0 }

func mul(d, s []float64, c float64) int { return 0 }

func mulAdd(d, s []float64, c float64) int { return 0 }

func peakLoop(a *[PeakLanes]float64, m, c float64, iters int64) {}
