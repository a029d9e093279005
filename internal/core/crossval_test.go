package core

import (
	"math/bits"
	"testing"
	"testing/quick"

	"dramscope/internal/topo"
)

// The paper cross-validates RowCopy-derived subarray boundaries with
// AIB: sense amplifiers block disturbance, so hammering the last row
// of a subarray must not flip the first row of the next one, while
// interior neighbors do flip (§IV-C).
func TestCrossValidateBoundariesWithAIB(t *testing.T) {
	h := small(t)
	order := recoverOrder()
	sub, err := ProbeSubarrays(h, 0, order, SubarrayScan{MaxRows: 448, Cols: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ones := allOnes(h)
	// Pick a boundary that is not a region gap.
	var boundary int = -1
	for _, b := range sub.Boundaries {
		gap := false
		for _, e := range sub.RegionEdges {
			if e == b {
				gap = true
			}
		}
		if !gap {
			boundary = b
			break
		}
	}
	if boundary < 0 {
		t.Fatal("no stripe boundary found")
	}

	aggr := order.RowAt(boundary)       // last row of the subarray
	across := order.RowAt(boundary + 1) // first row of the next one
	interior := order.RowAt(boundary - 1)
	for _, r := range []int{across, interior} {
		if err := h.FillRow(0, r, ones); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FillRow(0, aggr, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Hammer(0, aggr, rowOrderHammerActs); err != nil {
		t.Fatal(err)
	}
	flipsOf := func(r int) int {
		got, err := h.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range got {
			n += bits.OnesCount64(v ^ ones)
		}
		return n
	}
	if n := flipsOf(across); n != 0 {
		t.Errorf("AIB crossed the RowCopy-derived boundary: %d flips", n)
	}
	if n := flipsOf(interior); n == 0 {
		t.Error("interior neighbor must flip (cross-validation power check)")
	}
}

// The swizzle probe must also recover the Mfr. B geometry: 1024-cell
// MATs contributing 8 bits per burst.
func TestProbeSwizzleWideMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("swizzle probe is expensive")
	}
	p := topo.Small()
	p.MATWidth = 1024
	h := newHost(t, p, 13)
	sub := &SubarrayLayout{Boundaries: []int{63, 159, 223, 287, 383}, RegionEdges: []int{223}}
	sm, err := ProbeSwizzle(h, 0, recoverOrder(), sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sm.MATsPerBurst() != 4 || sm.BitsPerMAT != 8 {
		t.Fatalf("structure %d MATs x %d bits, want 4 x 8", sm.MATsPerBurst(), sm.BitsPerMAT)
	}
	if sm.MATWidthBits != 1024 {
		t.Fatalf("MAT width %d, want 1024 (O2: Mfr. B)", sm.MATWidthBits)
	}
	for m := 0; m < 4; m++ {
		want := []int{2 * m, 2*m + 16, 2*m + 1, 2*m + 17, 2*m + 8, 2*m + 24, 2*m + 9, 2*m + 25}
		for i, c := range sm.Orders[m] {
			if c != want[i] {
				t.Fatalf("order %d = %v, want %v", m, sm.Orders[m], want)
			}
		}
	}
}

// The swizzle probe must recover the uncoupled x4 geometry, where
// even/odd columns split across MAT groups (column stride 2).
func TestProbeSwizzleColumnStride(t *testing.T) {
	if testing.Short() {
		t.Skip("swizzle probe is expensive")
	}
	p := topo.Small()
	p.Coupled = false
	p.Scheme = topo.InterleavedTrueAnti // Mfr. C-style device
	h := newHost(t, p, 13)
	sub := &SubarrayLayout{Boundaries: []int{63, 159, 223, 287, 383}, RegionEdges: []int{223}}
	// On anti-cell subarrays the swizzle probe needs the polarity
	// result so its hunt targets discharged cells; run the retention
	// probe first, as expt.Env's probe chain does.
	pol, err := ProbeCellPolarity(h, 0, sub)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := ProbeSwizzle(h, 0, recoverOrder(), sub, pol)
	if err != nil {
		t.Fatal(err)
	}
	if sm.ColumnStride != 2 {
		t.Fatalf("column stride %d, want 2 (uncoupled x4)", sm.ColumnStride)
	}
	if sm.MATWidthBits != 512 {
		t.Fatalf("MAT width %d, want 512", sm.MATWidthBits)
	}
}

// Mapping invariants that must hold for any recovered map.
func TestSwizzleMapInvariantsQuick(t *testing.T) {
	sm := groundTruthSwizzle()
	f := func(col8, bit8, d8 uint8) bool {
		col := int(col8)%100 + 10
		bit := int(bit8) % 32
		dist := int(d8)%9 - 4
		nc, nb, ok := sm.Neighbor(col, bit, dist)
		if !ok {
			return true
		}
		// Walking back must return to the start.
		bc, bb, ok2 := sm.Neighbor(nc, nb, -dist)
		return ok2 && bc == col && bb == bit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
