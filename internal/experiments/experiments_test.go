package experiments

import (
	"strings"
	"testing"
)

func runFig(t *testing.T, id string) *Data {
	t.Helper()
	f, ok := All()[id]
	if !ok {
		t.Fatalf("figure %s missing", id)
	}
	return f.Run()
}

func val(t *testing.T, d *Data, label string, n int) float64 {
	t.Helper()
	v, ok := d.Value(label, n)
	if !ok {
		t.Fatalf("%s: no value for %s at %d cores", d.Figure.ID, label, n)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 19 {
		t.Fatalf("got %d figures, want 19 (fig04..fig22): %v", len(ids), ids)
	}
	if ids[0] != "fig04" || ids[len(ids)-1] != "fig22" {
		t.Errorf("id range wrong: %v", ids)
	}
	for id, f := range All() {
		if f.ID != id || f.Timesteps != 100 {
			t.Errorf("%s: metadata wrong (%s, %d steps)", id, f.ID, f.Timesteps)
		}
		if len(f.Cores()) == 0 {
			t.Errorf("%s: empty core sweep", id)
		}
	}
}

func TestCoreSweeps(t *testing.T) {
	figs := All()
	op := figs["fig04"].Cores()
	if len(op) != 5 || op[len(op)-1] != 16 {
		t.Errorf("Opteron sweep = %v", op)
	}
	xe := figs["fig05"].Cores()
	if len(xe) != 6 || xe[len(xe)-1] != 32 {
		t.Errorf("Xeon sweep = %v", xe)
	}
}

// Figures 4–9: the constant-stencil ordering the paper shows at full
// machine size — PeakDP > LL1Band0C > {nuCORALS, nuCATS} > SysBandIC >
// NaiveSSE > SysBand0C.
func TestConstantScalingOrdering(t *testing.T) {
	for _, id := range []string{"fig04", "fig05", "fig06", "fig07", "fig08", "fig09"} {
		d := runFig(t, id)
		n := d.Cores[len(d.Cores)-1]
		peak := val(t, d, "PeakDP", n)
		ll1 := val(t, d, "LL1Band0C", n)
		nucorals := val(t, d, "nuCORALS", n)
		nucats := val(t, d, "nuCATS", n)
		ic := val(t, d, "SysBandIC", n)
		naive := val(t, d, "NaiveSSE", n)
		b0 := val(t, d, "SysBand0C", n)
		if !(peak > ll1) {
			t.Errorf("%s: PeakDP %.3f ≤ LL1Band0C %.3f", id, peak, ll1)
		}
		for _, s := range []struct {
			name string
			v    float64
		}{{"nuCORALS", nucorals}, {"nuCATS", nucats}} {
			if s.v <= ic {
				t.Errorf("%s: %s %.3f must beat SysBandIC %.3f (temporal blocking!)", id, s.name, s.v, ic)
			}
			if s.v >= peak {
				t.Errorf("%s: %s %.3f above PeakDP %.3f", id, s.name, s.v, peak)
			}
		}
		if !(ic > naive && naive > b0) {
			t.Errorf("%s: NaiveSSE %.3f not between SysBandIC %.3f and SysBand0C %.3f",
				id, naive, ic, b0)
		}
	}
}

// The paper: nuCATS wins on the large domains, nuCORALS on the small 160³
// (higher-level caches pay off there). Check both machines' 160³ vs 500³.
func TestNuCORALSvsNuCATSCrossover(t *testing.T) {
	small := runFig(t, "fig07") // Xeon 160³
	big := runFig(t, "fig09")   // Xeon 500³
	if val(t, small, "nuCORALS", 32) <= val(t, small, "nuCATS", 32) {
		t.Error("on 160³ nuCORALS should beat nuCATS")
	}
	if val(t, big, "nuCATS", 32) <= val(t, big, "nuCORALS", 32) {
		t.Error("on 500³ nuCATS should beat nuCORALS")
	}
}

// Figures 10–15: banded matrices make the problem more memory-bound; both
// schemes stay above SysBandIC, below LL1Band0C, and nuCORALS wins the
// banded comparison on the Xeon at 32 cores.
func TestBandedOrdering(t *testing.T) {
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15"} {
		d := runFig(t, id)
		n := d.Cores[len(d.Cores)-1]
		ll1 := val(t, d, "LL1Band0C", n)
		nucorals := val(t, d, "nuCORALS", n)
		nucats := val(t, d, "nuCATS", n)
		ic := val(t, d, "SysBandIC", n)
		if nucorals <= ic || nucats <= ic {
			t.Errorf("%s: banded temporal blocking must beat SysBandIC", id)
		}
		if nucorals >= ll1 || nucats >= ll1 {
			t.Errorf("%s: banded schemes cannot beat LL1Band0C (extra coefficient traffic)", id)
		}
	}
	// nuCORALS is the clear banded winner on the Xeon (Section IV-E).
	for _, id := range []string{"fig11", "fig13", "fig15"} {
		d := runFig(t, id)
		if val(t, d, "nuCORALS", 32) <= val(t, d, "nuCATS", 32) {
			t.Errorf("%s: nuCORALS must win the banded comparison", id)
		}
	}
}

// The banded aggregate performance drop vs the constant case (Section IV-E:
// ≈6.6–7.6x on the Opteron, ≈3–5x on the Xeon).
func TestBandedDropFactors(t *testing.T) {
	constOp, bandOp := runFig(t, "fig08"), runFig(t, "fig14")
	drop := val(t, constOp, "nuCORALS", 16) / val(t, bandOp, "nuCORALS", 16)
	if drop < 3 || drop > 12 {
		t.Errorf("Opteron banded drop = %.1fx, paper ≈6.6x", drop)
	}
	constXe, bandXe := runFig(t, "fig09"), runFig(t, "fig15")
	dropXe := val(t, constXe, "nuCORALS", 32) / val(t, bandXe, "nuCORALS", 32)
	if dropXe < 1.5 || dropXe > 6 {
		t.Errorf("Xeon banded drop = %.1fx, paper ≈3x", dropXe)
	}
	if dropXe >= drop {
		t.Errorf("the Xeon's large L3 must mitigate the banded drop (%.1fx vs %.1fx)", dropXe, drop)
	}
}

// Figures 16–19: raising the order degrades Gupdates/s sub-proportionally.
// Section IV-F states "less than 2x" (s=2) and "less than 3x" (s=3); the
// paper's own Figure 18 caption data works out to 1.99x and 3.24x for
// nuCATS, so the accepted bands here follow the measured captions, not the
// prose: ≤2.3x and ≤3.6x, and the convex-hull growth (cubic in s) must not
// show (drop far below s³).
func TestHighOrderDegradation(t *testing.T) {
	for _, id := range []string{"fig16", "fig17", "fig18", "fig19"} {
		d := runFig(t, id)
		n := d.Cores[len(d.Cores)-1]
		for _, scheme := range []string{"nuCORALS", "nuCATS"} {
			s1 := val(t, d, scheme+" s=1", n)
			s2 := val(t, d, scheme+" s=2", n)
			s3 := val(t, d, scheme+" s=3", n)
			if s2 <= 0 || s1/s2 > 2.3 {
				t.Errorf("%s %s: s=1→s=2 drop %.2fx, want ≤ 2.3x", id, scheme, s1/s2)
			}
			if s3 <= 0 || s1/s3 > 3.6 {
				t.Errorf("%s %s: s=1→s=3 drop %.2fx, want ≤ 3.6x", id, scheme, s1/s3)
			}
		}
	}
}

// Figures 20–22: beyond one NUMA node the NUMA-aware schemes hold per-core
// performance while every NUMA-ignorant scheme drops; on the small strong
// scaling domain the naive scheme beats all NUMA-ignorant temporal blockers
// except CATS.
func TestComparisonFigures(t *testing.T) {
	for _, id := range []string{"fig20", "fig21", "fig22"} {
		d := runFig(t, id)
		for _, ignorant := range []string{"CATS", "CORALS", "Pochoir", "PLuTo"} {
			at8 := val(t, d, ignorant, 8)
			at32 := val(t, d, ignorant, 32)
			if at32 > 0.75*at8 {
				t.Errorf("%s: %s per-core at 32 (%.3f) did not collapse vs 8 (%.3f)",
					id, ignorant, at32, at8)
			}
			if val(t, d, "nuCORALS", 32) <= at32 || val(t, d, "nuCATS", 32) <= at32 {
				t.Errorf("%s: NUMA-aware schemes must beat %s at 32 cores", id, ignorant)
			}
		}
		// Originals match their nu-variants at one core.
		for _, pair := range [][2]string{{"CATS", "nuCATS"}, {"CORALS", "nuCORALS"}} {
			o, nu := val(t, d, pair[0], 1), val(t, d, pair[1], 1)
			if r := nu / o; r < 0.65 || r > 1.6 {
				t.Errorf("%s: 1-core %s/%s = %.2f, want ≈1", id, pair[1], pair[0], r)
			}
		}
	}
	d := runFig(t, "fig22")
	naive := val(t, d, "NaiveSSE", 32)
	for _, ignorant := range []string{"CORALS", "Pochoir", "PLuTo"} {
		if naive <= val(t, d, ignorant, 32) {
			t.Errorf("fig22: NaiveSSE must beat %s at 32 cores on 160³", ignorant)
		}
	}
}

// Figure 3: per-core system bandwidth decays with cores; per-core LLC
// bandwidth stays flat.
func TestFig3Shape(t *testing.T) {
	curves := Fig3()
	if len(curves) != 2 {
		t.Fatalf("want both machines, got %d", len(curves))
	}
	for _, c := range curves {
		last := len(c.Cores) - 1
		if c.SysPerCore[last] >= c.SysPerCore[0]/2 {
			t.Errorf("%s: per-core sys bandwidth should decay strongly (%.2f -> %.2f)",
				c.Machine.Name, c.SysPerCore[0], c.SysPerCore[last])
		}
		if c.LLCPerCore[last] < c.LLCPerCore[0]*0.99 || c.LLCPerCore[last] > c.LLCPerCore[0]*1.01 {
			t.Errorf("%s: per-core LLC bandwidth should stay flat", c.Machine.Name)
		}
	}
}

// Weak scalability captions (Figures 4 and 5): the regenerated caption
// GFLOPS stay within the calibration bands of the cost model tests.
func TestCaptionsPresent(t *testing.T) {
	d := runFig(t, "fig05")
	if len(d.CaptionGFLOPS) != len(d.Figure.Lines) {
		t.Fatalf("fig05 has %d captions for %d lines", len(d.CaptionGFLOPS), len(d.Figure.Lines))
	}
	for i, ln := range d.Figure.Lines {
		if v := d.CaptionGFLOPS[i]; v <= 0 {
			t.Errorf("fig05 caption for %s missing (%v)", ln.Label, v)
		}
	}
	if strings.ToUpper(d.Figure.ID) != "FIG05" {
		t.Error("figure id casing")
	}
}

// Opteron strong scaling: the paper reports 16-core speedups of ≈9–11x for
// nuCORALS/nuCATS on both the 160³ and 500³ domains.
func TestOpteronStrongScalingSpeedups(t *testing.T) {
	for _, id := range []string{"fig06", "fig08"} {
		d := runFig(t, id)
		for _, scheme := range []string{"nuCORALS", "nuCATS"} {
			sp := val(t, d, scheme, 16) * 16 / val(t, d, scheme, 1)
			if sp < 6 || sp > 16 {
				t.Errorf("%s %s: 16-core speedup %.1fx, paper ≈9-11x", id, scheme, sp)
			}
		}
	}
}

// Section IV-G: Pochoir "drops off sharply" beyond one NUMA node — the
// cliff past the socket boundary must be steeper than any within-socket
// decay — and Pochoir stays ahead of PLuTo at full machine size (paper:
// 27.3 vs 22.1 GFLOPS on Figure 21).
func TestPochoirCliffBeyondSocket(t *testing.T) {
	d := runFig(t, "fig21")
	po1, po8, po32 := val(t, d, "Pochoir", 1), val(t, d, "Pochoir", 8), val(t, d, "Pochoir", 32)
	within := po8 / po1
	beyond := po32 / po8
	if beyond >= within {
		t.Errorf("Pochoir cliff: beyond-socket retention %.2f should be below within-socket %.2f",
			beyond, within)
	}
	if po32 > 0.5*po8 {
		t.Errorf("Pochoir should drop sharply beyond one socket (%.3f vs %.3f)", po32, po8)
	}
	if pl32 := val(t, d, "PLuTo", 32); val(t, d, "Pochoir", 32) <= pl32*0.95 {
		t.Errorf("Pochoir (%.3f) should stay at or above PLuTo (%.3f) at 32 cores",
			val(t, d, "Pochoir", 32), pl32)
	}
}

// Speedup factors the paper reports for nuCORALS/nuCATS weak scaling:
// ≈10–11x on 16 Opteron cores, ≈22x on 32 Xeon cores.
func TestWeakScalingSpeedups(t *testing.T) {
	op := runFig(t, "fig04")
	for _, scheme := range []string{"nuCORALS", "nuCATS"} {
		sp := val(t, op, scheme, 16) * 16 / val(t, op, scheme, 1)
		if sp < 7 || sp > 16 {
			t.Errorf("Opteron %s weak speedup = %.1fx, paper ≈10-11x", scheme, sp)
		}
	}
	xe := runFig(t, "fig05")
	for _, scheme := range []string{"nuCORALS", "nuCATS"} {
		sp := val(t, xe, scheme, 32) * 32 / val(t, xe, scheme, 1)
		if sp < 14 || sp > 32 {
			t.Errorf("Xeon %s weak speedup = %.1fx, paper ≈22x", scheme, sp)
		}
	}
}
