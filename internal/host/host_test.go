package host

import (
	"testing"

	"dramscope/internal/chip"
	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	return New(chip.MustNew(topo.Small(), 1))
}

func TestFillAndReadRow(t *testing.T) {
	h := newHost(t)
	if err := h.FillRow(0, 12, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadRow(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	for col, v := range got {
		if v != 0xcafebabe {
			t.Fatalf("col %d: %#x", col, v)
		}
	}
}

func TestWriteRowPattern(t *testing.T) {
	h := newHost(t)
	if err := h.WriteRow(0, 3, func(col int) uint64 { return uint64(col) }); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadRow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for col, v := range got {
		if v != uint64(col) {
			t.Fatalf("col %d: got %d", col, v)
		}
	}
}

func TestReadWriteCols(t *testing.T) {
	h := newHost(t)
	cols := []int{0, 5, 9}
	if err := h.WriteCols(0, 4, cols, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadCols(0, 4, cols)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("col %d: got %d want %d", cols[i], v, i+1)
		}
	}
	if err := h.WriteCols(0, 4, cols, []uint64{1}); err == nil {
		t.Fatal("mismatched cols/data must error")
	}
}

func TestHammerCausesFlips(t *testing.T) {
	h := newHost(t)
	tp := h.Target().(*chip.Chip).Topology()
	aggr := tp.UnmapRow(30, 0)
	victim := tp.UnmapRow(31, 0)
	all1 := uint64(1)<<uint(h.DataWidth()) - 1
	if err := h.FillRow(0, victim, all1); err != nil {
		t.Fatal(err)
	}
	if err := h.FillRow(0, aggr, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Hammer(0, aggr, 600_000); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadRow(0, victim)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, v := range got {
		for b := 0; b < h.DataWidth(); b++ {
			if v&(1<<uint(b)) == 0 {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Fatal("hammering must flip bits in the adjacent row")
	}
}

func TestPressCausesFlipsOnlyCharged(t *testing.T) {
	h := newHost(t)
	tp := h.Target().(*chip.Chip).Topology()
	aggr := tp.UnmapRow(40, 0)
	victim := tp.UnmapRow(41, 0)
	all1 := uint64(1)<<uint(h.DataWidth()) - 1

	if err := h.FillRow(0, victim, all1); err != nil {
		t.Fatal(err)
	}
	if err := h.FillRow(0, aggr, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Press(0, aggr, 8192, 8*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	got, _ := h.ReadRow(0, victim)
	flips := 0
	for _, v := range got {
		for b := 0; b < h.DataWidth(); b++ {
			if v&(1<<uint(b)) == 0 {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Fatal("RowPress must flip charged victim bits")
	}

	// Discharged victim: RowPress must not flip anything.
	victim2 := tp.UnmapRow(44, 0)
	aggr2 := tp.UnmapRow(45, 0)
	if err := h.FillRow(0, victim2, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Press(0, aggr2, 8192, 8*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	got2, _ := h.ReadRow(0, victim2)
	for _, v := range got2 {
		if v != 0 {
			t.Fatal("RowPress flipped a discharged cell")
		}
	}
}

func TestRowCopyHelper(t *testing.T) {
	h := newHost(t)
	if err := h.FillRow(0, 8, 0x13572468); err != nil {
		t.Fatal(err)
	}
	if err := h.RowCopy(0, 8, 9); err != nil {
		t.Fatal(err)
	}
	got, _ := h.ReadRow(0, 9)
	if got[0] != 0x13572468 {
		t.Fatalf("RowCopy result %#x", got[0])
	}
}

func TestWaitAdvancesTime(t *testing.T) {
	h := newHost(t)
	before := h.Now()
	if err := h.Wait(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if h.Now()-before != 5*sim.Second {
		t.Fatal("Wait did not advance time")
	}
}

func TestRefresh(t *testing.T) {
	h := newHost(t)
	if err := h.Refresh(0); err != nil {
		t.Fatal(err)
	}
}
