package core

import (
	"testing"

	"dramscope/internal/chip"
	"dramscope/internal/host"
	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

func newHost(t *testing.T, prof topo.Profile, seed uint64) *host.Host {
	t.Helper()
	return host.New(chip.MustNew(prof, seed))
}

func small(t *testing.T) *host.Host { return newHost(t, topo.Small(), 11) }

func TestProbeRowOrderDetectsRemap(t *testing.T) {
	h := small(t)
	ro, err := ProbeRowOrder(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Remapped() {
		t.Fatal("Small profile remaps rows; probe missed it")
	}
	if ro.LUT != [4]int{0, 1, 3, 2} {
		t.Fatalf("recovered LUT %v, want [0 1 3 2]", ro.LUT)
	}
}

func TestProbeRowOrderIdentity(t *testing.T) {
	p := topo.Small()
	p.RowRemap = false
	h := newHost(t, p, 11)
	ro, err := ProbeRowOrder(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Remapped() {
		t.Fatalf("no-remap device misdetected: %v", ro.LUT)
	}
}

func TestRowOrderPhysIndexRoundTrip(t *testing.T) {
	ro := &RowOrder{LUT: [4]int{0, 1, 3, 2}}
	for r := 0; r < 64; r++ {
		if ro.RowAt(ro.PhysIndex(r)) != r {
			t.Fatalf("roundtrip broken at %d", r)
		}
	}
}

// recoverOrder is a helper for later probes: the Small ground truth.
func recoverOrder() *RowOrder { return &RowOrder{LUT: [4]int{0, 1, 3, 2}} }

func TestProbeSubarraysSmall(t *testing.T) {
	h := small(t)
	sub, err := ProbeSubarrays(h, 0, recoverOrder(), SubarrayScan{MaxRows: 448, Cols: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	wantB := []int{63, 159, 223, 287, 383}
	if len(sub.Boundaries) != len(wantB) {
		t.Fatalf("boundaries %v, want %v", sub.Boundaries, wantB)
	}
	for i, b := range wantB {
		if sub.Boundaries[i] != b {
			t.Fatalf("boundaries %v, want %v", sub.Boundaries, wantB)
		}
	}
	wantH := []int{64, 96, 64, 64, 96}
	for i, hh := range wantH {
		if sub.Heights[i] != hh {
			t.Fatalf("heights %v, want %v", sub.Heights, wantH)
		}
	}
	if len(sub.RegionEdges) != 1 || sub.RegionEdges[0] != 223 {
		t.Fatalf("region edges %v, want [223]", sub.RegionEdges)
	}
	if sub.EdgeRegionSubarrays != 3 {
		t.Fatalf("edge region subarrays = %d, want 3", sub.EdgeRegionSubarrays)
	}
	if !sub.OpenBitline {
		t.Fatal("open bitline structure not detected")
	}
	if !sub.InvertedCopy {
		t.Fatal("true-cell device must copy inverted across boundaries")
	}
}

func TestProbeSubarraysMfrCPolarity(t *testing.T) {
	p := topo.Small()
	p.Scheme = topo.InterleavedTrueAnti
	h := newHost(t, p, 11)
	sub, err := ProbeSubarrays(h, 0, recoverOrder(), SubarrayScan{MaxRows: 230, Cols: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.InvertedCopy {
		t.Fatal("interleaved true/anti device must copy as-is across boundaries (§IV-C)")
	}
}

func TestProbeCoupledRows(t *testing.T) {
	h := small(t)
	res, err := ProbeCoupledRows(h, 0, recoverOrder())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coupled() || res.Distance != 448 {
		t.Fatalf("coupled distance = %d, want 448 (N/2)", res.Distance)
	}
}

func TestProbeCoupledRowsUncoupled(t *testing.T) {
	p := topo.Small()
	p.Coupled = false
	h := newHost(t, p, 11)
	res, err := ProbeCoupledRows(h, 0, recoverOrder())
	if err != nil {
		t.Fatal(err)
	}
	if res.Coupled() {
		t.Fatalf("uncoupled device misdetected at distance %d", res.Distance)
	}
}

func TestProbeCellPolarity(t *testing.T) {
	h := small(t)
	sub := &SubarrayLayout{Boundaries: []int{63, 159, 223, 287, 383}}
	pol, err := ProbeCellPolarity(h, 0, sub)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Interleaved {
		t.Fatal("true-cell-only device misclassified as interleaved")
	}
	for i, anti := range pol.AntiBySubarray {
		if anti {
			t.Fatalf("subarray %d misclassified as anti-cell", i)
		}
	}
}

func TestProbeCellPolarityInterleaved(t *testing.T) {
	p := topo.Small()
	p.Scheme = topo.InterleavedTrueAnti
	h := newHost(t, p, 11)
	sub := &SubarrayLayout{Boundaries: []int{63, 159, 223, 287, 383}}
	pol, err := ProbeCellPolarity(h, 0, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Interleaved {
		t.Fatal("interleave not detected")
	}
	want := []bool{false, true, false, true, false, true}
	for i, w := range want {
		if pol.AntiBySubarray[i] != w {
			t.Fatalf("subarray %d polarity = %v, want %v", i, pol.AntiBySubarray[i], w)
		}
	}
}

func TestProbeSwizzleSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("swizzle probe is expensive")
	}
	h := small(t)
	sub := &SubarrayLayout{Boundaries: []int{63, 159, 223, 287, 383}, RegionEdges: []int{223}}
	sm, err := ProbeSwizzle(h, 0, recoverOrder(), sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth (Mfr. A x4 geometry): 8 MATs serve 4 bits each,
	// component m = {2m, 2m+1, 2m+16, 2m+17}, physical order
	// [2m, 2m+16, 2m+1, 2m+17].
	if sm.MATsPerBurst() != 8 || sm.BitsPerMAT != 4 {
		t.Fatalf("structure: %d MATs x %d bits, want 8 x 4", sm.MATsPerBurst(), sm.BitsPerMAT)
	}
	if sm.ColumnStride != 1 {
		t.Fatalf("column stride = %d, want 1", sm.ColumnStride)
	}
	if sm.MATWidthBits != 512 {
		t.Fatalf("MAT width = %d, want 512 (O2)", sm.MATWidthBits)
	}
	for m := 0; m < 8; m++ {
		wantComp := []int{2 * m, 2*m + 1, 2*m + 16, 2*m + 17}
		comp := sm.Components[m]
		for i := range wantComp {
			if comp[i] != wantComp[i] {
				t.Fatalf("component %d = %v, want %v", m, comp, wantComp)
			}
		}
		wantOrder := []int{2 * m, 2*m + 16, 2*m + 1, 2*m + 17}
		ord := sm.Orders[m]
		match := true
		for i := range wantOrder {
			if ord[i] != wantOrder[i] {
				match = false
			}
		}
		if !match {
			t.Fatalf("order %d = %v, want %v", m, ord, wantOrder)
		}
	}
	// The paper's §IV-A example: bit 0 is adjacent to bits 16 and 1
	// of the same burst, and 17 and 1 of the previous burst.
	cases := []struct {
		dist    int
		wantCol int
		wantBit int
	}{
		{+1, 0, 16}, {+2, 0, 1}, {-1, -1, 17}, {-2, -1, 1},
	}
	for _, c := range cases {
		nc, nb, ok := sm.Neighbor(0, 0, c.dist)
		if !ok && c.wantCol >= 0 {
			t.Fatalf("Neighbor(0,0,%d) not ok", c.dist)
		}
		if nc != c.wantCol || nb != c.wantBit {
			t.Fatalf("Neighbor(0,0,%d) = (%d,%d), want (%d,%d)", c.dist, nc, nb, c.wantCol, c.wantBit)
		}
	}
	// Parity alternates along each recovered order.
	for m := range sm.Orders {
		for i := 1; i < len(sm.Orders[m]); i++ {
			if sm.Parity[sm.Orders[m][i]] == sm.Parity[sm.Orders[m][i-1]] {
				t.Fatal("physical order must alternate bitline parity")
			}
		}
	}
}

func TestAIBMeasureBasic(t *testing.T) {
	h := small(t)
	a := &AIB{H: h, Bank: 0, Order: recoverOrder()}
	res, err := a.Measure(Run{
		Mode: ModeHammer, Acts: 600_000,
		VictimPhys: []int{100, 103, 106},
		Side:       AggrAbove,
		VictimData: Solid(allOnes(h)),
		AggrData:   Solid(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Errors == 0 {
		t.Fatal("hammer run produced no errors")
	}
	if res.Flips01 != 0 {
		t.Fatal("all-1 victim can only flip 1->0")
	}
	if res.Total.Bits != int64(3*h.Columns()*h.DataWidth()) {
		t.Fatalf("bit accounting wrong: %d", res.Total.Bits)
	}
}

func TestAIBPressOnlyChargedFlips(t *testing.T) {
	h := small(t)
	a := &AIB{H: h, Bank: 0, Order: recoverOrder()}
	res, err := a.Measure(Run{
		Mode: ModePress, Acts: 8192, PressOn: 7800 * 1000, // 7.8us in ps
		VictimPhys: []int{100, 103},
		Side:       AggrAbove,
		VictimData: Solid(allOnes(h)),
		AggrData:   Solid(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Errors == 0 {
		t.Fatal("press run produced no errors")
	}
	if res.Flips01 != 0 {
		t.Fatal("RowPress flips only charged (data-1) cells here")
	}
}

// The RowPress defining curve: BER grows monotonically with the
// aggressor's on-time at a fixed activation count.
func TestPressOnTimeSweepMonotone(t *testing.T) {
	h := small(t)
	a := &AIB{H: h, Bank: 0, Order: recoverOrder()}
	prev := -1.0
	for _, tOn := range []sim.Time{1 * sim.Microsecond, 4 * sim.Microsecond, 16 * sim.Microsecond, 64 * sim.Microsecond} {
		res, err := a.Measure(Run{
			Mode: ModePress, Acts: 2048, PressOn: tOn,
			VictimPhys: []int{100, 103, 106, 109}, Side: AggrAbove,
			VictimData: Solid(allOnes(h)), AggrData: Solid(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		ber := res.Total.Rate()
		if ber < prev {
			t.Fatalf("tOn %v: BER %v below the shorter on-time's %v", tOn, ber, prev)
		}
		prev = ber
	}
	if prev == 0 {
		t.Fatal("longest on-time must flip cells")
	}
}

func TestGateClassReversals(t *testing.T) {
	sm := &SwizzleMap{Parity: []int{0, 1}}
	if sm.GateClass(10, 0, AggrAbove) == sm.GateClass(10, 0, AggrBelow) {
		t.Error("direction must flip the gate class")
	}
	if sm.GateClass(10, 0, AggrAbove) == sm.GateClass(11, 0, AggrAbove) {
		t.Error("row parity must flip the gate class")
	}
	if sm.GateClass(10, 0, AggrAbove) == sm.GateClass(10, 1, AggrAbove) {
		t.Error("bit parity must flip the gate class")
	}
}

// groundTruthSwizzle builds the SwizzleMap matching the Mfr. A x4
// ground truth, for tests that need a map without running the probe.
func groundTruthSwizzle() *SwizzleMap {
	sm := &SwizzleMap{
		ColumnStride: 1,
		BitsPerMAT:   4,
		MATWidthBits: 512,
		Parity:       make([]int, 32),
	}
	for m := 0; m < 8; m++ {
		sm.Components = append(sm.Components, []int{2 * m, 2*m + 1, 2*m + 16, 2*m + 17})
		sm.Orders = append(sm.Orders, []int{2 * m, 2*m + 16, 2*m + 1, 2*m + 17})
	}
	for m := 0; m < 8; m++ {
		for pos, c := range sm.Orders[m] {
			sm.Parity[c] = pos % 2
		}
	}
	return sm
}

func TestPhysPatternPlacesQuads(t *testing.T) {
	sm := groundTruthSwizzle()
	// Pattern 0b0011: physical cells 0,1 hold 1; cells 2,3 hold 0.
	f := PhysPattern(sm, 32, 0x3)
	burst := f(0)
	for m := 0; m < 8; m++ {
		ord := sm.Orders[m]
		for pos, c := range ord {
			want := pos%4 < 2
			got := burst&(1<<uint(c)) != 0
			if got != want {
				t.Fatalf("MAT %d pos %d (bit %d): got %v want %v", m, pos, c, got, want)
			}
		}
	}
}

func TestClassifyPhysical(t *testing.T) {
	sm := groundTruthSwizzle()
	// The naive host ColStripe (0x5555…) does NOT land as a physical
	// ColStripe (Figure 8's point).
	if cls := ClassifyPhysical(sm, 32, 0x55555555); cls == ClassColStripe {
		t.Fatal("host 0x55 pattern must not land as a physical ColStripe")
	}
	// The corrected burst does.
	fixed := CorrectedColStripe(sm, 32)
	if cls := ClassifyPhysical(sm, 32, fixed); cls != ClassColStripe {
		t.Fatalf("corrected burst lands as %v, want ColStripe", cls)
	}
	if cls := ClassifyPhysical(sm, 32, 0); cls != ClassSolid {
		t.Fatalf("all-0 must be Solid, got %v", cls)
	}
}

func TestSwizzleNeighborChain(t *testing.T) {
	sm := groundTruthSwizzle()
	// Walking +1 four times from (col 0, bit 0) must advance exactly
	// one column.
	col, bit := 0, 0
	for i := 0; i < 4; i++ {
		var ok bool
		col, bit, ok = sm.Neighbor(col, bit, 1)
		if !ok {
			t.Fatal("chain walk failed")
		}
	}
	if col != 1 || bit != 0 {
		t.Fatalf("after 4 steps: (%d,%d), want (1,0)", col, bit)
	}
}

func TestPhysClassCoversAllBits(t *testing.T) {
	sm := groundTruthSwizzle()
	seen := map[int]bool{}
	for b := 0; b < 32; b++ {
		pc := sm.PhysClass(b)
		if pc < 0 || pc >= 32 || seen[pc] {
			t.Fatalf("PhysClass(%d) = %d invalid or duplicate", b, pc)
		}
		seen[pc] = true
	}
}
