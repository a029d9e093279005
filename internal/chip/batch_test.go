package chip

import (
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// batchWriteRow writes a row through the batch kernels: ACT via Exec,
// one WR burst over every column, PRE.
func (h *tb) batchWriteRow(bank, row int, data []uint64) {
	h.act(bank, row)
	b := sim.Batch{
		Op: sim.WR, At: h.at + h.c.Timing().TRCD, Gap: h.c.Timing().TRCD,
		Bank: bank, Col: 0, Stride: 1, Count: h.c.Columns(), Data: data,
	}
	if err := h.c.ExecBatch(b, nil); err != nil {
		h.t.Fatalf("%v: %v", b, err)
	}
	h.at = h.c.Now()
	h.pre(bank)
}

// batchReadRow reads a row through the RD kernel.
func (h *tb) batchReadRow(bank, row int) []uint64 {
	h.act(bank, row)
	out := make([]uint64, h.c.Columns())
	b := sim.Batch{
		Op: sim.RD, At: h.at + h.c.Timing().TRCD, Gap: h.c.Timing().TRCD,
		Bank: bank, Col: 0, Stride: 1, Count: h.c.Columns(),
	}
	if err := h.c.ExecBatch(b, out); err != nil {
		h.t.Fatalf("%v: %v", b, err)
	}
	h.at = h.c.Now()
	h.pre(bank)
	return out
}

// The batch RD/WR kernels must be bit- and time-identical to the
// scalar Exec loop, on both true-cell and interleaved true/anti
// devices.
func TestBatchReadWriteEquivalentToScalar(t *testing.T) {
	for _, scheme := range []topo.CellScheme{topo.TrueCellsOnly, topo.InterleavedTrueAnti} {
		p := topo.Small()
		p.Scheme = scheme
		scalar := newTB(t, p, 42)
		batched := newTB(t, p, 42)

		pattern := make([]uint64, scalar.c.Columns())
		for i := range pattern {
			pattern[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}

		// Row 70 sits in subarray 1 (anti cells under InterleavedTrueAnti).
		for _, row := range []int{10, 70} {
			scalar.act(0, row)
			for col := 0; col < scalar.c.Columns(); col++ {
				scalar.wr(0, col, pattern[col])
			}
			scalar.pre(0)
			batched.batchWriteRow(0, row, pattern)

			if scalar.at != batched.at {
				t.Fatalf("scheme %v row %d: batch time %v diverged from scalar %v",
					scheme, row, batched.at, scalar.at)
			}
			want := scalar.readRow(0, row)
			got := batched.batchReadRow(0, row)
			for col := range want {
				if want[col] != got[col] {
					t.Fatalf("scheme %v row %d col %d: batch read %#x, scalar %#x",
						scheme, row, col, got[col], want[col])
				}
			}
			if scalar.at != batched.at {
				t.Fatalf("scheme %v row %d: read time diverged", scheme, row)
			}
		}
	}
}

// A strided WR batch with a broadcast burst must land exactly where
// the scalar loop over the same columns lands.
func TestBatchStridedWriteEquivalentToScalar(t *testing.T) {
	scalar := newTB(t, topo.Small(), 7)
	batched := newTB(t, topo.Small(), 7)
	const row, stride = 12, 3
	count := (scalar.c.Columns() + stride - 1) / stride

	scalar.act(0, row)
	for i := 0; i < count; i++ {
		scalar.wr(0, i*stride, 0xf0f0f0f0)
	}
	scalar.pre(0)

	batched.act(0, row)
	b := sim.Batch{
		Op: sim.WR, At: batched.at + batched.c.Timing().TRCD, Gap: batched.c.Timing().TRCD,
		Bank: 0, Col: 0, Stride: stride, Count: count, Data: []uint64{0xf0f0f0f0},
	}
	if err := batched.c.ExecBatch(b, nil); err != nil {
		t.Fatal(err)
	}
	batched.at = batched.c.Now()
	batched.pre(0)

	want, got := scalar.readRow(0, row), batched.readRow(0, row)
	for col := range want {
		if want[col] != got[col] {
			t.Fatalf("col %d: strided batch wrote %#x, scalar %#x", col, got[col], want[col])
		}
	}
}

// An ACT batch with an on-time is the hammer/press kernel and must be
// exactly Pulse, which TestPulseEquivalentToExplicitLoop already pins
// to the scalar ACT/PRE loop.
func TestBatchActTrainEquivalentToPulse(t *testing.T) {
	prof := topo.Small()
	tp := prof.MustBuild()
	aggr := tp.UnmapRow(50, 0)
	victim := tp.UnmapRow(51, 0)
	const n = 150_000

	run := func(batch bool) []uint64 {
		h := newTB(t, prof, 3)
		all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
		h.writeRow(0, victim, all1)
		h.writeRow(0, aggr, 0)
		h.step(sim.Nanosecond)
		_ = h.c.AdvanceTo(h.at)
		tOn, tGap := h.c.Timing().TRAS, h.c.Timing().TRP
		if batch {
			b := sim.Batch{
				Op: sim.ACT, At: h.c.Now(), Bank: 0, Row: aggr,
				Count: n, On: tOn, Gap: tOn + tGap,
			}
			if err := h.c.ExecBatch(b, nil); err != nil {
				t.Fatal(err)
			}
		} else if err := h.c.Pulse(0, aggr, n, tOn, tGap); err != nil {
			t.Fatal(err)
		}
		h.at = h.c.Now()
		return h.readRow(0, victim)
	}

	a, b := run(true), run(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("col %d: batch ACT train %#x != pulse %#x", i, a[i], b[i])
		}
	}
}

// A Reset chip must be indistinguishable from a freshly constructed
// one: same data, same fault draws, same bookkeeping.
func TestResetEquivalentToFresh(t *testing.T) {
	prof := topo.Small()
	tp := prof.MustBuild()
	aggr := tp.UnmapRow(30, 0)
	victim := tp.UnmapRow(31, 0)

	scenario := func(h *tb) []uint64 {
		all1 := uint64(1)<<uint(h.c.DataWidth()) - 1
		h.writeRow(0, victim, all1)
		h.writeRow(0, aggr, 0)
		h.step(sim.Nanosecond)
		_ = h.c.AdvanceTo(h.at)
		_ = h.c.Pulse(0, aggr, 400_000, h.c.Timing().TRAS, h.c.Timing().TRP)
		h.at = h.c.Now()
		return h.readRow(0, victim)
	}

	fresh := newTB(t, prof, 99)
	want := scenario(fresh)

	dirty := newTB(t, prof, 99)
	// Drive the device through every state the scenario never touches:
	// writes, a row copy, a hammer, retention decay, a refresh.
	dirty.writeRow(0, 5, 0xdeadbeef)
	dirty.writeRow(0, 6, 0)
	dirty.rowCopy(0, 5, 6)
	_ = dirty.c.Pulse(0, aggr, 100_000, dirty.c.Timing().TRAS, dirty.c.Timing().TRP)
	dirty.at = dirty.c.Now() + 10*sim.Second
	_ = dirty.c.AdvanceTo(dirty.at)
	dirty.exec(sim.Command{Op: sim.REF, Bank: 0})

	dirty.c.Reset()
	dirty.at = 0
	if got := dirty.c.Now(); got != 0 {
		t.Fatalf("Reset left time at %v", got)
	}
	if got := dirty.c.TouchedRows(0); got != 0 {
		t.Fatalf("Reset left %d touched rows", got)
	}
	got := scenario(dirty)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("col %d: reset chip read %#x, fresh chip %#x", i, got[i], want[i])
		}
	}
	if dirty.c.Now() != fresh.c.Now() {
		t.Fatalf("reset chip time %v, fresh chip %v", dirty.c.Now(), fresh.c.Now())
	}

	// Second cycle: by now the chip has cached hammer and retention
	// draw tables for the scenario's wordlines. A Reset
	// keeps those tables (the draws are pure functions of the seed), so
	// the fully warm replay must still match a fresh chip bit for bit.
	dirty.c.Reset()
	dirty.at = 0
	warm := scenario(dirty)
	for i := range want {
		if want[i] != warm[i] {
			t.Fatalf("col %d: warm-table reset chip read %#x, fresh chip %#x", i, warm[i], want[i])
		}
	}

	// A Reset with a row open and a hammer's flips parked on it: the
	// parked application points into the recycled arena, so Reset drops
	// it, and the victim's first readback reads as power-on.
	dirty.c.Reset()
	dirty.at = 0
	scenario(dirty)
	_ = dirty.c.Pulse(0, aggr, 2_000_000, dirty.c.Timing().TRAS, dirty.c.Timing().TRP)
	dirty.at = dirty.c.Now()
	dirty.act(0, victim)
	if dirty.c.banks[0].parked.rs == nil {
		t.Fatal("the victim's ACT parked no fault application")
	}
	dirty.c.Reset()
	dirty.at = 0
	if dirty.c.banks[0].parked.rs != nil {
		t.Fatal("Reset kept the open row's parked fault application")
	}
	wantFirst := newTB(t, prof, 99).readRow(0, victim)
	for i, v := range dirty.readRow(0, victim) {
		if v != wantFirst[i] {
			t.Fatalf("col %d: chip reset with faults parked read %#x, fresh chip %#x", i, v, wantFirst[i])
		}
	}

	// Last case: Free clears the dirty chip's charge slabs and pools
	// them, and a chip built afterwards takes its slabs from that pool.
	// Recycled slabs must read as power-on.
	dirty.c.Free()
	recycled := newTB(t, prof, 99)
	got = scenario(recycled)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("col %d: chip built after Free read %#x, fresh chip %#x", i, got[i], want[i])
		}
	}
}

// A freed chip has no banks: every later command or Reset panics
// instead of running on slabs another chip may own by then.
func TestUseAfterFreePanics(t *testing.T) {
	uses := []struct {
		name string
		use  func(c *Chip)
	}{
		{"ACT", func(c *Chip) { _, _ = c.Exec(sim.Command{Op: sim.ACT, At: c.Now() + sim.Second, Row: 1}) }},
		{"PRE", func(c *Chip) { _, _ = c.Exec(sim.Command{Op: sim.PRE, At: c.Now() + sim.Second}) }},
		{"REF", func(c *Chip) { _, _ = c.Exec(sim.Command{Op: sim.REF, At: c.Now() + sim.Second}) }},
		{"RD batch", func(c *Chip) {
			_ = c.ExecBatch(sim.Batch{Op: sim.RD, At: c.Now() + sim.Second, Count: 1, Stride: 1}, make([]uint64, 1))
		}},
		{"Pulse", func(c *Chip) { _ = c.Pulse(0, 1, 10, c.Timing().TRAS, c.Timing().TRP) }},
		{"Reset", func(c *Chip) { c.Reset() }},
		{"Free", func(c *Chip) { c.Free() }},
	}
	for _, u := range uses {
		h := newTB(t, topo.Small(), 3)
		h.writeRow(0, 1, 0xf0f0f0f0)
		h.c.Free()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a freed chip did not panic", u.name)
				}
			}()
			u.use(h.c)
		}()
	}
}

func TestExecBatchRejects(t *testing.T) {
	c := MustNew(topo.Small(), 1)
	tm := c.Timing()
	if _, err := c.Exec(sim.Command{Op: sim.ACT, At: tm.TRP, Row: 1}); err != nil {
		t.Fatal(err)
	}
	at := tm.TRP + tm.TRCD
	ok := sim.Batch{Op: sim.RD, At: at, Gap: tm.TRCD, Count: 2, Stride: 1}
	out := make([]uint64, 2)

	cases := []struct {
		name string
		mod  func(b *sim.Batch)
		out  []uint64
	}{
		{"zero count", func(b *sim.Batch) { b.Count = 0 }, out},
		{"bad bank", func(b *sim.Batch) { b.Bank = 99 }, out},
		{"column overrun", func(b *sim.Batch) { b.Count = c.Columns() + 1 }, make([]uint64, c.Columns()+1)},
		{"negative stride walk", func(b *sim.Batch) { b.Stride = -1 }, out},
		{"short output", func(b *sim.Batch) {}, out[:1]},
		{"on-time on RD", func(b *sim.Batch) { b.On = sim.Nanosecond }, out},
		{"time reversal", func(b *sim.Batch) { b.At = 0 }, out},
	}
	for _, tc := range cases {
		b := ok
		tc.mod(&b)
		if err := c.ExecBatch(b, tc.out); err == nil {
			t.Errorf("%s: batch %v must be rejected", tc.name, b)
		}
	}
	// The unmodified batch is legal — the cases above failed for their
	// stated reason, not because the baseline is broken.
	if err := c.ExecBatch(ok, out); err != nil {
		t.Fatalf("baseline batch rejected: %v", err)
	}
}
