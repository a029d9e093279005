package module

import (
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

func prof(t *testing.T) topo.Profile {
	t.Helper()
	p, ok := topo.ByName("MfrA-DDR4-x4-2016")
	if !ok {
		t.Fatal("profile missing")
	}
	return p
}

// driver sequences module commands with legal timing.
type driver struct {
	t  *testing.T
	m  *Module
	at sim.Time
}

func (d *driver) exec(cmd sim.Command) []uint64 {
	d.t.Helper()
	cmd.At = d.at
	out, err := d.m.Exec(cmd)
	if err != nil {
		d.t.Fatal(err)
	}
	return out
}

func (d *driver) act(bank, row int) {
	d.at += d.m.Timing().TRP + d.m.Timing().TCK
	d.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: row})
}
func (d *driver) pre(bank int) {
	d.at += d.m.Timing().TRAS
	d.exec(sim.Command{Op: sim.PRE, Bank: bank})
}
func (d *driver) wr(bank, col int, data uint64) {
	d.at += d.m.Timing().TRCD
	d.exec(sim.Command{Op: sim.WR, Bank: bank, Col: col, Data: data})
}
func (d *driver) rd(bank, col int) []uint64 {
	d.at += d.m.Timing().TRCD
	return d.exec(sim.Command{Op: sim.RD, Bank: bank, Col: col})
}

func TestModuleRoundTripAllChips(t *testing.T) {
	m := MustNew(prof(t), 8, 1)
	d := &driver{t: t, m: m}
	d.act(0, 100)
	d.wr(0, 5, 0x55aa55aa)
	got := d.rd(0, 5)
	d.pre(0)
	if len(got) != 8 {
		t.Fatalf("want 8 chip bursts, got %d", len(got))
	}
	for i, v := range got {
		if v != 0x55aa55aa {
			t.Fatalf("chip %d: module-side read %#x, want 0x55aa55aa", i, v)
		}
	}
}

// The DQ twist is invisible to plain read/write but changes the
// physical data each chip stores.
func TestDQTwistDistortsStoredChipData(t *testing.T) {
	m := MustNew(prof(t), 8, 1)
	d := &driver{t: t, m: m}
	d.act(0, 100)
	d.wr(0, 0, 0x55555555)
	d.pre(0)

	doc := m.DesignDoc()
	distinct := map[uint64]bool{}
	for i := 0; i < m.Chips(); i++ {
		chipData := doc.Twists[i].ToChip(0x55555555, 8)
		distinct[chipData] = true
	}
	if len(distinct) < 2 {
		t.Fatal("standard twists should give chips different images of 0x55")
	}
}

// The RCD inversion relocates rows on B-side chips: the same module
// row lands on different chip rows for the two sides.
func TestRCDRelocatesBSideRows(t *testing.T) {
	m := MustNew(prof(t), 8, 1)
	d := &driver{t: t, m: m}
	const row = 100
	d.act(0, row)
	d.wr(0, 0, 0xffffffff)
	d.pre(0)

	doc := m.DesignDoc()
	// Verify through ground truth: the A-side chips hold the data at
	// module row 100; B-side chips hold it at row 100^mask.
	for i := 0; i < m.Chips(); i++ {
		chipRow := doc.RCD.RowTo(i, row, m.Rows())
		if doc.RCD.Inverts(i) == (chipRow == row) {
			t.Fatalf("chip %d: inversion flag and row disagree", i)
		}
		wl, half := m.Chip(i).Topology().MapRow(chipRow)
		x := m.Chip(i).ColumnMap().PhysBL(0, 0, half)
		// Bit 0 of a 0xffffffff burst is 1 -> charge set (true cells)
		// whatever lane it arrives on after the twist... the twisted
		// image of all-ones is all-ones, so any lane works.
		if !m.Chip(i).InspectCharge(0, wl, x) {
			t.Fatalf("chip %d: data not found at chip row %d", i, chipRow)
		}
	}
}

func TestModulePulseHammersAllChips(t *testing.T) {
	m := MustNew(prof(t), 4, 1)
	d := &driver{t: t, m: m}
	const aggr = 200
	// Write all-1 victims around the aggressor ON EACH SIDE'S view:
	// use the module interface; victims are module rows that map to
	// chip-adjacent rows per side. For this test just check that
	// hammering increments activation energy everywhere.
	before := make([]int64, m.Chips())
	for i := range before {
		before[i] = m.Chip(i).WordlineActivations(0)
	}
	d.at += sim.Microsecond
	if err := m.AdvanceTo(d.at); err != nil {
		t.Fatal(err)
	}
	if err := m.Pulse(0, aggr, 1000, m.Timing().TRAS, m.Timing().TRP); err != nil {
		t.Fatal(err)
	}
	d.at = m.Now()
	for i := range before {
		if m.Chip(i).WordlineActivations(0)-before[i] < 1000 {
			t.Fatalf("chip %d: hammer did not reach it", i)
		}
	}
}

func TestModuleRejectsNonPowerOfTwoRows(t *testing.T) {
	if _, err := New(topo.Small(), 4, 1); err == nil {
		t.Fatal("Small profile has 896 rows; module must reject it")
	}
}

func TestModuleChipsIndependentFaults(t *testing.T) {
	m := MustNew(prof(t), 2, 5)
	fa, fb := m.Chip(0).FaultParams(), m.Chip(1).FaultParams()
	a := fa.HammerU(0, 10, 10)
	b := fb.HammerU(0, 10, 10)
	if a == b {
		t.Fatal("chips must have independent fault maps")
	}
}

func TestModuleRejectsZeroChips(t *testing.T) {
	if _, err := New(prof(t), 0, 1); err == nil {
		t.Fatal("zero chips must error")
	}
}

func TestModuleTimeMonotonic(t *testing.T) {
	m := MustNew(prof(t), 2, 1)
	if _, err := m.Exec(sim.Command{Op: sim.NOP, At: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exec(sim.Command{Op: sim.NOP, At: 50}); err == nil {
		t.Fatal("time reversal must error")
	}
	if err := m.AdvanceTo(10); err == nil {
		t.Fatal("AdvanceTo backwards must error")
	}
}
