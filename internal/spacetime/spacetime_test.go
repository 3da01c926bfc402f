package spacetime

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nustencil/internal/grid"
)

func b2(l0, l1, h0, h1 int) grid.Box { return grid.NewBox([]int{l0, l1}, []int{h0, h1}) }
func b1(l, h int) grid.Box           { return grid.NewBox([]int{l}, []int{h}) }

func TestPgramCrossSection(t *testing.T) {
	p := NewPgram(2, 4, b1(10, 20), []int{-1})
	if got := p.CrossSection(2); !got.Equal(b1(10, 20)) {
		t.Errorf("cs(2) = %v", got)
	}
	if got := p.CrossSection(5); !got.Equal(b1(7, 17)) {
		t.Errorf("cs(5) = %v", got)
	}
	if p.T1() != 6 {
		t.Errorf("T1 = %d", p.T1())
	}
}

func TestPgramSplitTime(t *testing.T) {
	p := NewPgram(0, 6, b1(10, 20), []int{2})
	lo, hi := p.SplitTime(4)
	if lo.Height != 4 || hi.Height != 2 {
		t.Fatalf("heights %d,%d", lo.Height, hi.Height)
	}
	if hi.T0 != 4 {
		t.Errorf("hi.T0 = %d", hi.T0)
	}
	// Upper base = lower cross-section at the cut.
	if !hi.Base.Equal(b1(18, 28)) {
		t.Errorf("hi.Base = %v", hi.Base)
	}
	// Continuity: cross-sections agree across the whole range.
	for ts := 0; ts < 6; ts++ {
		var got grid.Box
		if ts < 4 {
			got = lo.CrossSection(ts)
		} else {
			got = hi.CrossSection(ts)
		}
		if !got.Equal(p.CrossSection(ts)) {
			t.Errorf("t=%d: %v vs %v", ts, got, p.CrossSection(ts))
		}
	}
}

func TestPgramSplitSpace(t *testing.T) {
	p := NewPgram(0, 3, b2(0, 0, 8, 6), []int{1, 0})
	lo, hi := p.SplitSpace(0, 5)
	if lo.Base.Extent(0) != 5 || hi.Base.Extent(0) != 3 {
		t.Fatalf("split extents %d,%d", lo.Base.Extent(0), hi.Base.Extent(0))
	}
	// At every timestep the two halves partition the parent cross-section.
	for ts := 0; ts < 3; ts++ {
		a, b, c := lo.CrossSection(ts), hi.CrossSection(ts), p.CrossSection(ts)
		if a.Size()+b.Size() != c.Size() || a.Intersects(b) {
			t.Errorf("t=%d split not a partition", ts)
		}
	}
}

func TestTileFromPgramClipsToInterior(t *testing.T) {
	interior := b1(1, 21)
	// Right-skewed slab drifting past the right edge.
	p := NewPgram(0, 5, b1(15, 22), []int{1})
	tile := NewTileFromPgram(p, interior)
	if tile.Height() != 5 {
		t.Fatalf("height %d", tile.Height())
	}
	if !tile.At(0).Equal(b1(15, 21)) {
		t.Errorf("t0 cs = %v", tile.At(0))
	}
	if !tile.At(4).Equal(b1(19, 21)) {
		t.Errorf("t4 cs = %v", tile.At(4))
	}
}

func TestTileUpdatesAndBBox(t *testing.T) {
	interior := b1(0, 100)
	p := NewPgram(0, 3, b1(10, 20), []int{-2})
	tile := NewTileFromPgram(p, interior)
	if got := tile.Updates(); got != 30 {
		t.Errorf("updates = %d", got)
	}
	if bb := tile.BBoxInto(grid.MakeBox(1)); !bb.Equal(b1(6, 20)) {
		t.Errorf("bbox = %v", bb)
	}
}

func TestTileAtOutsideRange(t *testing.T) {
	tile := NewTileFromBox(b1(0, 4), 2, 3, b1(0, 10))
	if !tile.At(1).Empty() || !tile.At(5).Empty() {
		t.Error("At outside range should be empty")
	}
	if tile.At(2).Empty() {
		t.Error("At inside range should be non-empty")
	}
}

func TestTileIntersectWithPgram(t *testing.T) {
	clip := b1(0, 100)
	// Left-skewed base tile.
	base := NewTileFromPgram(NewPgram(0, 4, b1(20, 30), []int{-1}), clip)
	// Right-skewed thread slab.
	slab := NewPgram(0, 4, b1(0, 24), []int{1})
	lower := base.Intersect(slab)
	// At t=0: [20,30) ∩ [0,24) = [20,24); at t=3: [17,27) ∩ [3,27) = [17,27).
	if !lower.At(0).Equal(b1(20, 24)) {
		t.Errorf("t0 = %v", lower.At(0))
	}
	if !lower.At(3).Equal(b1(17, 27)) {
		t.Errorf("t3 = %v", lower.At(3))
	}
	// Remainder via Subtract must complete the original at each timestep.
	upper := base.Subtract(slab, 0)
	for ts := 0; ts < 4; ts++ {
		if lower.At(ts).Size()+upper.At(ts).Size() != base.At(ts).Size() {
			t.Errorf("t=%d: split loses points", ts)
		}
		if lower.At(ts).Intersects(upper.At(ts)) {
			t.Errorf("t=%d: split overlaps", ts)
		}
	}
}

func TestValidateCoverAcceptsPartition(t *testing.T) {
	interior := b1(0, 12)
	tiles := []*Tile{
		NewTileFromBox(b1(0, 6), 0, 2, interior),
		NewTileFromBox(b1(6, 12), 0, 2, interior),
	}
	AssignIDs(tiles)
	if err := ValidateCover(tiles, interior, 0, 2); err != nil {
		t.Fatalf("valid cover rejected: %v", err)
	}
}

func TestValidateCoverRejectsGapAndOverlap(t *testing.T) {
	interior := b1(0, 12)
	gap := []*Tile{
		NewTileFromBox(b1(0, 5), 0, 1, interior),
		NewTileFromBox(b1(6, 12), 0, 1, interior),
	}
	if err := ValidateCover(AssignIDs(gap), interior, 0, 1); err == nil {
		t.Error("gap not detected")
	}
	overlap := []*Tile{
		NewTileFromBox(b1(0, 7), 0, 1, interior),
		NewTileFromBox(b1(5, 12), 0, 1, interior),
	}
	if err := ValidateCover(AssignIDs(overlap), interior, 0, 1); err == nil {
		t.Error("overlap not detected")
	}
	outside := []*Tile{NewTileFromBox(b1(0, 12), 0, 1, b1(0, 13))}
	outside[0].Cross[0] = b1(0, 13)
	if err := ValidateCover(AssignIDs(outside), interior, 0, 1); err == nil {
		t.Error("outside-interior not detected")
	}
}

// Property: recursive space/time splits of a random parallelogram always
// partition the parent's updates exactly.
func TestPgramSplitPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nd := 1 + r.Intn(3)
		lo := make([]int, nd)
		hi := make([]int, nd)
		slope := make([]int, nd)
		for k := 0; k < nd; k++ {
			lo[k] = r.Intn(10)
			hi[k] = lo[k] + 1 + r.Intn(10)
			slope[k] = r.Intn(5) - 2
		}
		p := NewPgram(r.Intn(5), 1+r.Intn(8), grid.Box{Lo: lo, Hi: hi}, slope)
		clip := grid.NewBox(make([]int, nd), []int{40, 40, 40}[:nd]).Shift(make([]int, nd)).Grow(10)
		whole := NewTileFromPgram(p, clip)
		var a, b Pgram
		if r.Intn(2) == 0 {
			a, b = p.SplitTime(r.Intn(p.Height + 1))
		} else {
			k := r.Intn(nd)
			a, b = p.SplitSpace(k, p.Base.Lo[k]+r.Intn(p.Base.Extent(k)+1))
		}
		ta, tb := NewTileFromPgram(a, clip), NewTileFromPgram(b, clip)
		return ta.Updates()+tb.Updates() == whole.Updates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
