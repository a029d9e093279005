package chip

import (
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// tb is a tiny command driver for tests: it tracks time and issues
// commands with legal spacing.
type tb struct {
	t  *testing.T
	c  *Chip
	at sim.Time
}

func newTB(t *testing.T, prof topo.Profile, seed uint64) *tb {
	t.Helper()
	c, err := New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &tb{t: t, c: c, at: 0}
}

func (h *tb) step(d sim.Time) { h.at += d }

func (h *tb) exec(cmd sim.Command) uint64 {
	h.t.Helper()
	cmd.At = h.at
	v, err := h.c.Exec(cmd)
	if err != nil {
		h.t.Fatalf("%v: %v", cmd, err)
	}
	return v
}

func (h *tb) act(bank, row int) {
	h.step(h.c.Timing().TRP + sim.Nanosecond)
	h.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: row})
}

func (h *tb) pre(bank int) {
	h.step(h.c.Timing().TRAS)
	h.exec(sim.Command{Op: sim.PRE, Bank: bank})
}

func (h *tb) wr(bank, col int, data uint64) {
	h.step(h.c.Timing().TRCD)
	h.exec(sim.Command{Op: sim.WR, Bank: bank, Col: col, Data: data})
}

func (h *tb) rd(bank, col int) uint64 {
	h.step(h.c.Timing().TRCD)
	return h.exec(sim.Command{Op: sim.RD, Bank: bank, Col: col})
}

// writeRow writes the same burst value to every column of a row.
func (h *tb) writeRow(bank, row int, data uint64) {
	h.act(bank, row)
	for col := 0; col < h.c.Columns(); col++ {
		h.wr(bank, col, data)
	}
	h.pre(bank)
}

// readRow reads every column of a row.
func (h *tb) readRow(bank, row int) []uint64 {
	h.act(bank, row)
	out := make([]uint64, h.c.Columns())
	for col := 0; col < h.c.Columns(); col++ {
		out[col] = h.rd(bank, col)
	}
	h.pre(bank)
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	h.writeRow(0, 10, 0xdeadbeef)
	for col, v := range h.readRow(0, 10) {
		if v != 0xdeadbeef {
			t.Fatalf("col %d: read %#x, want 0xdeadbeef", col, v)
		}
	}
}

func TestRoundTripOnAntiCellSubarray(t *testing.T) {
	p := topo.Small()
	p.Scheme = topo.InterleavedTrueAnti
	h := newTB(t, p, 1)
	// Row 70 maps into subarray 1 (wordlines 64..159) — an anti-cell
	// subarray. Data must still round-trip transparently.
	h.writeRow(0, 70, 0x12345678)
	if got := h.readRow(0, 70)[0]; got != 0x12345678 {
		t.Fatalf("anti-cell roundtrip broken: %#x", got)
	}
	// But the stored charge is inverted relative to data.
	wl, half := h.c.Topology().MapRow(70)
	x := h.c.ColumnMap().PhysBL(0, 3, half) // bit 3 of 0x12345678 is 1
	if h.c.InspectCharge(0, wl, x) {
		t.Fatal("anti-cell must store data 1 as discharged")
	}
}

func TestUnwrittenRowsReadAsScheme(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	if got := h.readRow(0, 30)[5]; got != 0 {
		t.Fatalf("untouched true-cell row reads %#x, want 0", got)
	}
	p := topo.Small()
	p.Scheme = topo.InterleavedTrueAnti
	h2 := newTB(t, p, 1)
	want := uint64(1)<<uint(h2.c.DataWidth()) - 1
	if got := h2.readRow(0, 70)[5]; got != want {
		t.Fatalf("untouched anti-cell row reads %#x, want %#x", got, want)
	}
}

func TestTimingViolations(t *testing.T) {
	c := MustNew(topo.Small(), 1)
	tm := c.Timing()
	// RD with no open row.
	if _, err := c.Exec(sim.Command{Op: sim.RD, At: 10 * sim.Nanosecond}); err == nil {
		t.Error("RD with no open row must fail")
	}
	// ACT then immediate RD violates tRCD.
	if _, err := c.Exec(sim.Command{Op: sim.ACT, At: 20 * sim.Nanosecond, Row: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(sim.Command{Op: sim.RD, At: 20*sim.Nanosecond + tm.TCK}); err == nil {
		t.Error("RD inside tRCD must fail")
	}
	// Double ACT.
	if _, err := c.Exec(sim.Command{Op: sim.ACT, At: 100 * sim.Nanosecond, Row: 2}); err == nil {
		t.Error("ACT with a row open must fail")
	}
	// REF with open row.
	if _, err := c.Exec(sim.Command{Op: sim.REF, At: 150 * sim.Nanosecond}); err == nil {
		t.Error("REF with a row open must fail")
	}
	// Time going backwards.
	if _, err := c.Exec(sim.Command{Op: sim.NOP, At: 1 * sim.Nanosecond}); err == nil {
		t.Error("time reversal must fail")
	}
	// Row/bank/col range checks.
	if _, err := c.Exec(sim.Command{Op: sim.PRE, At: 300 * sim.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(sim.Command{Op: sim.ACT, At: 400 * sim.Nanosecond, Row: 1 << 30}); err == nil {
		t.Error("out-of-range row must fail")
	}
	if _, err := c.Exec(sim.Command{Op: sim.ACT, At: 500 * sim.Nanosecond, Bank: 99}); err == nil {
		t.Error("out-of-range bank must fail")
	}
}

// rowCopy performs the out-of-spec ACT(src) .. PRE .. fast ACT(dst)
// sequence.
func (h *tb) rowCopy(bank, src, dst int) {
	h.act(bank, src)
	h.pre(bank)
	h.step(2 * sim.Nanosecond) // inside RowCopyMaxGap
	h.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: dst})
	h.pre(bank)
}

func TestRowCopyWithinSubarray(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	h.writeRow(0, 8, 0xa5a5a5a5)
	h.writeRow(0, 9, 0)
	h.rowCopy(0, 8, 9)
	if got := h.readRow(0, 9)[3]; got != 0xa5a5a5a5 {
		t.Fatalf("within-subarray RowCopy: read %#x, want 0xa5a5a5a5", got)
	}
}

func TestNoRowCopyWithFullPrecharge(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	h.writeRow(0, 8, 0xffffffff)
	h.writeRow(0, 9, 0)
	h.act(0, 8)
	h.pre(0)
	h.step(h.c.Timing().TRP + sim.Nanosecond) // full precharge
	h.exec(sim.Command{Op: sim.ACT, Bank: 0, Row: 9})
	h.pre(0)
	if got := h.readRow(0, 9)[0]; got != 0 {
		t.Fatalf("copy happened despite full precharge: %#x", got)
	}
}

// Across a subarray boundary only the shared-stripe half copies, with
// inverted charge. On a true-cell-only device that reads back as
// inverted data (Mfr. A/B behaviour, §IV-C).
func TestRowCopyAcrossSubarrayBoundary(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	tp := h.c.Topology()

	// Find logical rows for the last wordline of subarray 0 and the
	// first of subarray 1.
	srcWL, dstWL := 63, 64
	src := tp.UnmapRow(srcWL, 0)
	dst := tp.UnmapRow(dstWL, 0)

	// An all-0 source copies inverted, so the covered half of the
	// all-0 destination turns to 1 — the "half the row copies,
	// inverted" signature the paper's subarray probe looks for.
	h.writeRow(0, src, 0)
	h.writeRow(0, dst, 0)
	h.rowCopy(0, src, dst)

	got := h.readRow(0, dst)[0]
	ones := popcount(got)
	if ones != uint(h.c.DataWidth())/2 {
		t.Fatalf("cross-boundary copy set %d bits, want half (%d)", ones, h.c.DataWidth()/2)
	}
	cm := h.c.ColumnMap()
	for bit := 0; bit < h.c.DataWidth(); bit++ {
		x := cm.PhysBL(0, bit, 0)
		rel := tp.CopyRelationOf(srcWL, dstWL)
		covered, _ := tp.CopyCovers(rel, srcWL, x)
		bitSet := got&(1<<uint(bit)) != 0
		if covered != bitSet {
			t.Fatalf("bit %d: covered=%v but read=%v; copy must invert on the covered half",
				bit, covered, bitSet)
		}
	}
	// An all-1 source inverts to 0 on the covered half: the row reads
	// all zeros again.
	h.writeRow(0, src, 0xffffffff)
	h.writeRow(0, dst, 0)
	h.rowCopy(0, src, dst)
	if got := h.readRow(0, dst)[0]; got != 0 {
		t.Fatalf("charged source should copy as data 0 on true cells, got %#x", got)
	}
}

// On Mfr. C's interleaved true/anti layout, a cross-boundary copy
// lands on opposite-polarity cells, so the DATA reads back as-is
// (§III-B, §IV-C).
func TestRowCopyPolarityMfrC(t *testing.T) {
	p := topo.Small()
	p.Scheme = topo.InterleavedTrueAnti
	h := newTB(t, p, 1)
	tp := h.c.Topology()
	src := tp.UnmapRow(63, 0) // subarray 0: true cells
	dst := tp.UnmapRow(64, 0) // subarray 1: anti cells

	h.writeRow(0, src, 0xffffffff)
	h.writeRow(0, dst, 0)
	h.rowCopy(0, src, dst)
	got := h.readRow(0, dst)[0]
	// Covered cells: charge inverted (discharged), anti-cell -> data 1.
	// So data is copied **as-is** on the covered half.
	cm := h.c.ColumnMap()
	for bit := 0; bit < h.c.DataWidth(); bit++ {
		x := cm.PhysBL(0, bit, 0)
		covered, _ := tp.CopyCovers(tp.CopyRelationOf(63, 64), 63, x)
		bitSet := got&(1<<uint(bit)) != 0
		if covered != bitSet {
			t.Fatalf("bit %d: Mfr. C copy should preserve data on covered half", bit)
		}
	}
}

func TestRowCopyBetweenEdgePartners(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	tp := h.c.Topology()
	// Subarray 0 (wl 0..63) pairs with subarray 2 (wl 160..223).
	src := tp.UnmapRow(4, 0)
	dst := tp.UnmapRow(164, 0)
	h.writeRow(0, src, 0xffffffff)
	h.writeRow(0, dst, 0)
	h.rowCopy(0, src, dst)
	got := h.readRow(0, dst)[0]
	// Half the bits change (even-x positions, inverted from charged:
	// reads as 0) — the detectable signature is with all-0 source:
	h.writeRow(0, src, 0)
	h.rowCopy(0, src, dst)
	got = h.readRow(0, dst)[0]
	if popcount(got) != uint(h.c.DataWidth())/2 {
		t.Fatalf("edge-pair copy should flip half the bits, got %#x", got)
	}
	// Distant, non-partnered rows copy nothing.
	far := tp.UnmapRow(100, 0) // subarray 1
	h.writeRow(0, far, 0)
	h.rowCopy(0, src, far)
	// subarray 0 -> 1 IS adjacent; pick subarray 3 instead.
	far2 := tp.UnmapRow(230, 0) // subarray 3 (second block)
	h.writeRow(0, far2, 0)
	h.rowCopy(0, src, far2)
	if got := h.readRow(0, far2)[0]; got != 0 {
		t.Fatalf("unrelated subarrays must not copy, got %#x", got)
	}
}

// hammer the row adjacent to a victim and count victim bitflips.
func TestRowHammerFlipsAdjacentOnly(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	tp := h.c.Topology()
	const bank = 0
	aggrWL := 30
	aggr := tp.UnmapRow(aggrWL, 0)
	victimUp := tp.UnmapRow(aggrWL+1, 0)
	victimDown := tp.UnmapRow(aggrWL-1, 0)
	farRow := tp.UnmapRow(aggrWL+5, 0)

	all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
	h.writeRow(bank, victimUp, all1)
	h.writeRow(bank, victimDown, all1)
	h.writeRow(bank, farRow, all1)
	h.writeRow(bank, aggr, 0)

	h.step(sim.Nanosecond)
	if err := h.c.AdvanceTo(h.at); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Pulse(bank, aggr, 600_000, h.c.Timing().TRAS, h.c.Timing().TRP); err != nil {
		t.Fatal(err)
	}
	h.at = h.c.Now()

	flipsUp := countZeros(h.readRow(bank, victimUp), h.c.DataWidth())
	flipsDown := countZeros(h.readRow(bank, victimDown), h.c.DataWidth())
	flipsFar := countZeros(h.readRow(bank, farRow), h.c.DataWidth())

	if flipsUp == 0 || flipsDown == 0 {
		t.Fatalf("expected flips in adjacent rows, got up=%d down=%d", flipsUp, flipsDown)
	}
	if flipsFar != 0 {
		t.Fatalf("distance-5 row must not flip, got %d", flipsFar)
	}
}

func TestRowHammerStopsAtSubarrayBoundary(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	tp := h.c.Topology()
	// wl 63 is the last row of subarray 0; wl 64 is across the
	// sense-amp stripe.
	aggr := tp.UnmapRow(63, 0)
	across := tp.UnmapRow(64, 0)
	all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
	h.writeRow(0, across, all1)
	h.step(sim.Nanosecond)
	_ = h.c.AdvanceTo(h.at)
	if err := h.c.Pulse(0, aggr, 600_000, h.c.Timing().TRAS, h.c.Timing().TRP); err != nil {
		t.Fatal(err)
	}
	h.at = h.c.Now()
	if flips := countZeros(h.readRow(0, across), h.c.DataWidth()); flips != 0 {
		t.Fatalf("AIB crossed a subarray boundary: %d flips", flips)
	}
}

// Coupled rows: hammering logical row r drives one physical wordline
// whose victims are visible through BOTH coupled logical victim rows.
func TestCoupledRowHammerVictims(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	tp := h.c.Topology()
	aggrWL := 40
	aggr := tp.UnmapRow(aggrWL, 0)
	vicA := tp.UnmapRow(aggrWL+1, 0) // victim half 0
	vicB := tp.UnmapRow(aggrWL+1, 1) // victim half 1 (coupled partner)

	if p, ok := tp.CoupledPartner(vicA); !ok || p != vicB {
		t.Fatalf("test setup: %d and %d should be coupled partners", vicA, vicB)
	}

	all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
	h.writeRow(0, vicA, all1)
	h.writeRow(0, vicB, all1)
	h.writeRow(0, aggr, 0)
	h.step(sim.Nanosecond)
	_ = h.c.AdvanceTo(h.at)
	if err := h.c.Pulse(0, aggr, 600_000, h.c.Timing().TRAS, h.c.Timing().TRP); err != nil {
		t.Fatal(err)
	}
	h.at = h.c.Now()
	fa := countZeros(h.readRow(0, vicA), h.c.DataWidth())
	fb := countZeros(h.readRow(0, vicB), h.c.DataWidth())
	if fa == 0 || fb == 0 {
		t.Fatalf("both coupled victim rows must see flips, got %d and %d", fa, fb)
	}
}

// Activating a victim restores its cells: splitting the hammer count
// with a victim read in between must flip no more cells than the
// continuous run.
func TestVictimActivationResets(t *testing.T) {
	prof := topo.Small()
	tp := prof.MustBuild()
	aggr := tp.UnmapRow(20, 0)
	victim := tp.UnmapRow(21, 0)
	const n = 600_000

	run := func(split bool) int {
		h := newTB(t, prof, 7)
		all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
		h.writeRow(0, victim, all1)
		h.writeRow(0, aggr, 0)
		h.step(sim.Nanosecond)
		_ = h.c.AdvanceTo(h.at)
		if split {
			_ = h.c.Pulse(0, aggr, n/2, h.c.Timing().TRAS, h.c.Timing().TRP)
			h.at = h.c.Now()
			h.readRow(0, victim) // restores the victim
			_ = h.c.Pulse(0, aggr, n/2, h.c.Timing().TRAS, h.c.Timing().TRP)
		} else {
			_ = h.c.Pulse(0, aggr, n, h.c.Timing().TRAS, h.c.Timing().TRP)
		}
		h.at = h.c.Now()
		return countZeros(h.readRow(0, victim), h.c.DataWidth())
	}

	continuous, split := run(false), run(true)
	if continuous == 0 {
		t.Fatal("continuous hammering should flip cells")
	}
	if split >= continuous {
		t.Fatalf("split run flipped %d >= continuous %d; victim restore broken", split, continuous)
	}
}

// Pulse must be exactly equivalent to the explicit ACT/PRE loop: the
// same aggressor charge right after the train (a neighbour's next
// materialize reads it) and the same victim readback. The second case
// spaces its ACTs further apart than the shortest retention time, so
// the loop's second ACT decays the charged aggressor's weakest cells.
func TestPulseEquivalentToExplicitLoop(t *testing.T) {
	prof := topo.Small()
	tp := prof.MustBuild()
	const aggrWL = 50
	aggr := tp.UnmapRow(aggrWL, 0)
	victim := tp.UnmapRow(aggrWL+1, 0)
	tm := MustNew(prof, 3).Timing()

	for _, tc := range []struct {
		n         int
		tOn, tGap sim.Time
		aggrData  uint64
	}{
		{150_000, tm.TRAS, tm.TRP, 0},
		{4, tm.TRAS, 150 * sim.Millisecond, 0xffffffff},
	} {
		run := func(pulse bool) (aggrCharge, victimData []uint64) {
			h := newTB(t, prof, 3)
			all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
			h.writeRow(0, victim, all1)
			h.writeRow(0, aggr, tc.aggrData)
			h.step(sim.Nanosecond)
			_ = h.c.AdvanceTo(h.at)
			if pulse {
				if err := h.c.Pulse(0, aggr, tc.n, tc.tOn, tc.tGap); err != nil {
					t.Fatal(err)
				}
			} else {
				at := h.c.Now()
				for i := 0; i < tc.n; i++ {
					if _, err := h.c.Exec(sim.Command{Op: sim.ACT, At: at, Bank: 0, Row: aggr}); err != nil {
						t.Fatal(err)
					}
					if _, err := h.c.Exec(sim.Command{Op: sim.PRE, At: at + tc.tOn, Bank: 0}); err != nil {
						t.Fatal(err)
					}
					at += tc.tOn + tc.tGap
				}
				_ = h.c.AdvanceTo(at)
			}
			h.at = h.c.Now()
			aggrCharge = append([]uint64(nil), h.c.banks[0].rows[aggrWL].charge...)
			return aggrCharge, h.readRow(0, victim)
		}

		pa, pv := run(true)
		la, lv := run(false)
		for w := range pa {
			if pa[w] != la[w] {
				t.Fatalf("%d pulses of %v/%v: aggressor word %d holds %#x after Pulse, %#x after the loop",
					tc.n, tc.tOn, tc.tGap, w, pa[w], la[w])
			}
		}
		for i := range pv {
			if pv[i] != lv[i] {
				t.Fatalf("%d pulses of %v/%v: col %d: pulse %#x != explicit %#x", tc.n, tc.tOn, tc.tGap, i, pv[i], lv[i])
			}
		}
	}
}

func TestPulseRejectsRowCopyGap(t *testing.T) {
	c := MustNew(topo.Small(), 1)
	if err := c.Pulse(0, 0, 10, c.Timing().TRAS, sim.Nanosecond); err == nil {
		t.Fatal("Pulse with a charge-share gap must be rejected")
	}
}

func TestRetentionDecayAndRefresh(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
	h.writeRow(0, 5, all1)
	h.writeRow(0, 6, all1)

	// Refresh row 5 periodically while row 6 waits unrefreshed.
	h.step(sim.Second)
	h.readRow(0, 5) // activation refreshes it

	h.at += sim.Time(2000) * sim.Second
	_ = h.c.AdvanceTo(h.at)

	flips6 := countZeros(h.readRow(0, 6), h.c.DataWidth())
	if flips6 == 0 {
		t.Fatal("unrefreshed charged row must lose bits after 2000s")
	}
	// Row 5 was restored 2000s ago too... so compare a fresh row.
	h.writeRow(0, 7, all1)
	if flips7 := countZeros(h.readRow(0, 7), h.c.DataWidth()); flips7 != 0 {
		t.Fatalf("freshly written row lost %d bits immediately", flips7)
	}
}

func TestRetentionOnlyDischargesCharge(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	h.writeRow(0, 5, 0) // all discharged (true cells)
	h.at += sim.Time(5000) * sim.Second
	_ = h.c.AdvanceTo(h.at)
	for _, v := range h.readRow(0, 5) {
		if v != 0 {
			t.Fatalf("discharged cells gained charge: %#x", v)
		}
	}
}

func TestRefreshPreventsDecay(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
	h.writeRow(0, 5, all1)
	// Refresh every 50s for 1000s: well inside the minimum retention
	// time of 0.1s? No — 50s exceeds many cells' retention. Use the
	// REF command at 0.05s intervals for a few steps to check the
	// mechanism, then verify no flips.
	for i := 0; i < 20; i++ {
		h.at += 50 * sim.Millisecond
		h.exec(sim.Command{Op: sim.REF, Bank: 0})
	}
	if flips := countZeros(h.readRow(0, 5), h.c.DataWidth()); flips != 0 {
		t.Fatalf("refreshed row lost %d bits", flips)
	}
}

func TestEdgeRowsDriveTwoWordlines(t *testing.T) {
	h := newTB(t, topo.Small(), 1)
	tp := h.c.Topology()
	edgeRow := tp.UnmapRow(4, 0)    // subarray 0 is an edge
	innerRow := tp.UnmapRow(100, 0) // subarray 1 is interior

	before := h.c.WordlineActivations(0)
	h.act(0, innerRow)
	h.pre(0)
	if got := h.c.WordlineActivations(0) - before; got != 1 {
		t.Fatalf("interior ACT drove %d wordlines, want 1", got)
	}
	before = h.c.WordlineActivations(0)
	h.act(0, edgeRow)
	h.pre(0)
	if got := h.c.WordlineActivations(0) - before; got != 2 {
		t.Fatalf("edge ACT drove %d wordlines, want 2 (tandem)", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		h := newTB(t, topo.Small(), 99)
		tp := h.c.Topology()
		aggr := tp.UnmapRow(30, 0)
		victim := tp.UnmapRow(31, 0)
		all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
		h.writeRow(0, victim, all1)
		h.writeRow(0, aggr, 0)
		h.step(sim.Nanosecond)
		_ = h.c.AdvanceTo(h.at)
		_ = h.c.Pulse(0, aggr, 400_000, h.c.Timing().TRAS, h.c.Timing().TRP)
		h.at = h.c.Now()
		return h.readRow(0, victim)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at col %d", i)
		}
	}
}

func TestCatalogProfilesConstruct(t *testing.T) {
	for _, p := range topo.Catalog() {
		if _, err := New(p, 1); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestVendorScales(t *testing.T) {
	a := MustNew(mustProfile(t, "MfrA-DDR4-x4-2016"), 1)
	b := MustNew(mustProfile(t, "MfrB-DDR4-x4-2019"), 1)
	if a.FaultParams().BaseScale <= b.FaultParams().BaseScale {
		t.Fatal("vendor A should have the highest base AIB rate")
	}
}

// uncoupledSmall is topo.Small with one logical row per wordline, so a
// whole-row WR batch covers every cell and drops the faults its ACT
// parked.
func uncoupledSmall() topo.Profile {
	p := topo.Small()
	p.Coupled = false
	return p
}

func mustProfile(t testing.TB, name string) topo.Profile {
	t.Helper()
	p, ok := topo.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return p
}

func popcount(v uint64) uint {
	n := uint(0)
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func countZeros(cols []uint64, width int) int {
	flips := 0
	for _, v := range cols {
		flips += width - int(popcount(v))
	}
	return flips
}
