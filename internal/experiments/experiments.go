// Package experiments defines one reproducible definition per table and
// figure of the paper's evaluation (Table I, Figures 3–22): the workload,
// the core-count sweep, the schemes and analytic bounds plotted, and the
// machinery to regenerate each as a data series from the machine model and
// the cost model.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"nustencil/internal/machine"
	"nustencil/internal/memsim"
	"nustencil/internal/metrics"
	"nustencil/internal/stencil"
)

// Domain describes the figure's domain sizing.
type Domain struct {
	// Weak: one cube of volume cores·SidePerCore³ (Section IV-B).
	Weak bool
	// Side: fixed cube side for strong scaling; SidePerCore for weak.
	Side int
}

func (d Domain) sideFor(cores int) int {
	if d.Weak {
		return int(math.Round(float64(d.Side) * math.Cbrt(float64(cores))))
	}
	return d.Side
}

// Line identifies one curve of a figure: a scheme (or bound) at a stencil
// order.
type Line struct {
	Label string
	// Scheme is the memsim model name, or "" when Bound is set.
	Scheme string
	// Bound is one of "PeakDP", "LL1Band0C", "SysBandIC", "SysBand0C".
	Bound string
	// Order is the stencil order of this line (figures 16–19 mix orders).
	Order int
}

// Figure is one reproducible evaluation artifact.
type Figure struct {
	ID      string
	Title   string
	Machine func() *machine.Machine
	// Banded selects the variable-coefficient stencil.
	Banded bool
	Domain Domain
	Lines  []Line
	// Timesteps is 100 everywhere in the paper.
	Timesteps int
}

// Cores returns the figure's x-axis: 1,2,4,… up to the machine size.
func (f *Figure) Cores() []int {
	m := f.Machine()
	var cs []int
	for n := 1; n <= m.NumCores(); n *= 2 {
		cs = append(cs, n)
	}
	return cs
}

func (f *Figure) stencilFor(order int) *stencil.Stencil {
	if f.Banded {
		return stencil.NewBandedStar(3, order)
	}
	return stencil.NewStar(3, order)
}

// Data is a regenerated figure: per-core Gupdates/s per line per core count
// (the figures' left y-axis) plus the aggregate GFLOPS at full machine size
// (the captions).
type Data struct {
	Figure *Figure
	Cores  []int
	// PerCore[i][j] is line i's Gupdates/s per core at Cores[j].
	PerCore [][]float64
	// CaptionGFLOPS[i] is line i's aggregate GFLOPS at the maximum cores.
	CaptionGFLOPS []float64
	// Results[i][j] carries the full prediction for line i at Cores[j]
	// (nil Traffic for analytic bounds), for bottleneck attribution.
	Results [][]metrics.Result
}

// Workload builds the memsim workload of line ln at n cores — the exact
// configuration Run prices, exposed so the counter subsystem can predict
// and attribute the same workloads the figures are built from.
func (f *Figure) Workload(ln Line, n int) *memsim.Workload {
	order := ln.Order
	if order == 0 {
		order = 1
	}
	side := f.Domain.sideFor(n)
	return &memsim.Workload{
		Machine:   f.Machine(),
		Stencil:   f.stencilFor(order),
		Dims:      cube(side + 2*order),
		Timesteps: f.Timesteps,
		Cores:     n,
	}
}

// Run regenerates the figure from the machine and cost models.
func (f *Figure) Run() *Data {
	cores := f.Cores()
	models := memsim.Models()
	d := &Data{Figure: f, Cores: cores}
	for _, ln := range f.Lines {
		row := make([]float64, len(cores))
		results := make([]metrics.Result, len(cores))
		var caption float64
		for j, n := range cores {
			w := f.Workload(ln, n)
			var res metrics.Result
			if ln.Bound != "" {
				res = memsim.BoundResult(ln.Bound, boundGupdates(w.Machine, w.Stencil, ln.Bound, n), w)
			} else {
				res = memsim.Predict(models[ln.Scheme], w)
			}
			row[j] = res.GupdatesPerCore()
			results[j] = res
			if j == len(cores)-1 {
				caption = res.GFLOPS()
			}
		}
		d.Results = append(d.Results, results)
		d.PerCore = append(d.PerCore, row)
		d.CaptionGFLOPS = append(d.CaptionGFLOPS, caption)
	}
	return d
}

// Bottleneck returns the limiting resource of the labelled scheme line at
// n cores ("" for bound lines or unknown labels).
func (d *Data) Bottleneck(label string, n int) string {
	for i, ln := range d.Figure.Lines {
		if ln.Label != label {
			continue
		}
		for j, c := range d.Cores {
			if c == n && d.Results[i][j].Traffic != nil {
				return d.Results[i][j].Traffic.Bottleneck
			}
		}
	}
	return ""
}

// Value returns the per-core Gupdates/s of the labelled line at n cores.
func (d *Data) Value(label string, n int) (float64, bool) {
	li := -1
	for i, ln := range d.Figure.Lines {
		if ln.Label == label {
			li = i
			break
		}
	}
	if li < 0 {
		return 0, false
	}
	for j, c := range d.Cores {
		if c == n {
			return d.PerCore[li][j], true
		}
	}
	return 0, false
}

func boundGupdates(m *machine.Machine, st *stencil.Stencil, bound string, n int) float64 {
	switch bound {
	case "PeakDP":
		return m.PeakDPUpdates(st, n)
	case "LL1Band0C":
		return m.LL1Band0C(st, n)
	case "SysBandIC":
		return m.SysBandIC(st, n)
	case "SysBand0C":
		return m.SysBand0C(st, n)
	default:
		panic(fmt.Sprintf("experiments: unknown bound %q", bound))
	}
}

func cube(side int) []int { return []int{side, side, side} }

// scalingLines is the legend of Figures 4–9 (constant stencil scaling).
func scalingLines() []Line {
	return []Line{
		{Label: "PeakDP", Bound: "PeakDP"},
		{Label: "LL1Band0C", Bound: "LL1Band0C"},
		{Label: "nuCORALS", Scheme: "nuCORALS"},
		{Label: "nuCATS", Scheme: "nuCATS"},
		{Label: "SysBandIC", Bound: "SysBandIC"},
		{Label: "NaiveSSE", Scheme: "NaiveSSE"},
		{Label: "SysBand0C", Bound: "SysBand0C"},
	}
}

// bandedLines drops PeakDP (Section IV-E: it would compress the graphs).
func bandedLines() []Line {
	return scalingLines()[1:]
}

// orderLines is the legend of Figures 16–19.
func orderLines() []Line {
	var lines []Line
	for _, s := range []int{1, 2, 3} {
		lines = append(lines,
			Line{Label: fmt.Sprintf("nuCORALS s=%d", s), Scheme: "nuCORALS", Order: s},
			Line{Label: fmt.Sprintf("nuCATS s=%d", s), Scheme: "nuCATS", Order: s},
		)
	}
	return lines
}

// comparisonLines is the legend of Figures 20–22.
func comparisonLines() []Line {
	return []Line{
		{Label: "nuCORALS", Scheme: "nuCORALS"},
		{Label: "nuCATS", Scheme: "nuCATS"},
		{Label: "CATS", Scheme: "CATS"},
		{Label: "CORALS", Scheme: "CORALS"},
		{Label: "Pochoir", Scheme: "Pochoir"},
		{Label: "PLuTo", Scheme: "PLuTo"},
		{Label: "NaiveSSE", Scheme: "NaiveSSE"},
	}
}

// All returns every figure reproduction, keyed "fig04".."fig22".
func All() map[string]*Figure {
	opteron := machine.Opteron8222
	xeon := machine.XeonX7550
	figs := map[string]*Figure{
		"fig04": {Title: "Constant stencil weak scalability, 200³/core, Opteron 8222",
			Machine: opteron, Domain: Domain{Weak: true, Side: 200}, Lines: scalingLines()},
		"fig05": {Title: "Constant stencil weak scalability, 200³/core, Xeon X7550",
			Machine: xeon, Domain: Domain{Weak: true, Side: 200}, Lines: scalingLines()},
		"fig06": {Title: "Constant stencil strong scalability, 160³, Opteron 8222",
			Machine: opteron, Domain: Domain{Side: 160}, Lines: scalingLines()},
		"fig07": {Title: "Constant stencil strong scalability, 160³, Xeon X7550",
			Machine: xeon, Domain: Domain{Side: 160}, Lines: scalingLines()},
		"fig08": {Title: "Constant stencil strong scalability, 500³, Opteron 8222",
			Machine: opteron, Domain: Domain{Side: 500}, Lines: scalingLines()},
		"fig09": {Title: "Constant stencil strong scalability, 500³, Xeon X7550",
			Machine: xeon, Domain: Domain{Side: 500}, Lines: scalingLines()},
		"fig10": {Title: "Banded matrix weak scalability, 200³/core, Opteron 8222",
			Machine: opteron, Banded: true, Domain: Domain{Weak: true, Side: 200}, Lines: bandedLines()},
		"fig11": {Title: "Banded matrix weak scalability, 200³/core, Xeon X7550",
			Machine: xeon, Banded: true, Domain: Domain{Weak: true, Side: 200}, Lines: bandedLines()},
		"fig12": {Title: "Banded matrix strong scalability, 160³, Opteron 8222",
			Machine: opteron, Banded: true, Domain: Domain{Side: 160}, Lines: bandedLines()},
		"fig13": {Title: "Banded matrix strong scalability, 160³, Xeon X7550",
			Machine: xeon, Banded: true, Domain: Domain{Side: 160}, Lines: bandedLines()},
		"fig14": {Title: "Banded matrix strong scalability, 500³, Opteron 8222",
			Machine: opteron, Banded: true, Domain: Domain{Side: 500}, Lines: bandedLines()},
		"fig15": {Title: "Banded matrix strong scalability, 500³, Xeon X7550",
			Machine: xeon, Banded: true, Domain: Domain{Side: 500}, Lines: bandedLines()},
		"fig16": {Title: "High order stencils strong scalability, 160³, Opteron 8222",
			Machine: opteron, Domain: Domain{Side: 160}, Lines: orderLines()},
		"fig17": {Title: "High order stencils strong scalability, 160³, Xeon X7550",
			Machine: xeon, Domain: Domain{Side: 160}, Lines: orderLines()},
		"fig18": {Title: "High order stencils strong scalability, 500³, Opteron 8222",
			Machine: opteron, Domain: Domain{Side: 500}, Lines: orderLines()},
		"fig19": {Title: "High order stencils strong scalability, 500³, Xeon X7550",
			Machine: xeon, Domain: Domain{Side: 500}, Lines: orderLines()},
		"fig20": {Title: "Scheme comparison, weak scalability 200³/core, Xeon X7550",
			Machine: xeon, Domain: Domain{Weak: true, Side: 200}, Lines: comparisonLines()},
		"fig21": {Title: "Scheme comparison, strong scalability 500³, Xeon X7550",
			Machine: xeon, Domain: Domain{Side: 500}, Lines: comparisonLines()},
		"fig22": {Title: "Scheme comparison, strong scalability 160³, Xeon X7550",
			Machine: xeon, Domain: Domain{Side: 160}, Lines: comparisonLines()},
	}
	for id, f := range figs {
		f.ID = id
		f.Timesteps = 100
	}
	return figs
}

// IDs returns the figure ids in ascending order.
func IDs() []string {
	figs := All()
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// BandwidthScaling regenerates Figure 3: per-core system and LLC bandwidth
// for both machines across the core sweep.
type BandwidthScaling struct {
	Machine *machine.Machine
	Cores   []int
	// SysPerCore and LLCPerCore are GB/s per core.
	SysPerCore []float64
	LLCPerCore []float64
}

// Fig3 returns the bandwidth scaling curves of both machines.
func Fig3() []BandwidthScaling {
	var out []BandwidthScaling
	for _, m := range []*machine.Machine{machine.Opteron8222(), machine.XeonX7550()} {
		bs := BandwidthScaling{Machine: m}
		for n := 1; n <= m.NumCores(); n *= 2 {
			bs.Cores = append(bs.Cores, n)
			bs.SysPerCore = append(bs.SysPerCore, m.SysBandwidth(n)/float64(n))
			bs.LLCPerCore = append(bs.LLCPerCore, m.LLCBandwidth(n)/float64(n))
		}
		out = append(out, bs)
	}
	return out
}
