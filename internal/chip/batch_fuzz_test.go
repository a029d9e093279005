package chip

import (
	"sort"
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// FuzzExecBatch holds the batch kernels to the scalar reference. Two
// chips with the same profile, seed and command history take one
// fuzzed sim.Batch: one through ExecBatch, its twin as the equivalent
// Exec loop (execBatchLoop). If ExecBatch accepts the batch, the twins
// must be indistinguishable afterwards: the same RD outputs, the same
// Now(), and the same data on every touched row and its physical
// neighbours. If ExecBatch rejects it, the loop must fail too. The
// twins come coupled (topo.Small) and uncoupled: on the uncoupled pair
// a whole-row WR batch drops the faults its row's ACT parked, where
// the loop's first WR applies them.
//
// Batches outside the kernels' domain are skipped: malformed ones
// (sim.Batch.Validate) and ACT trains whose precharge gap is inside the
// RowCopy window (the pulse kernel refuses them; explicit commands
// express RowCopy).
func FuzzExecBatch(f *testing.F) {
	tm := sim.DDR4()
	cols := MustNew(topo.Small(), 1).Columns()
	ucols := MustNew(uncoupledSmall(), 1).Columns()
	const (
		opACT, opRD, opWR = 0, 1, 2
		bank0             = 1 // bankRaw 1 is bank 0 (see Bank below)
	)
	// The TestBatch* shapes: whole-row and strided RD/WR bursts over the
	// open row, a hammer and a press train next to written rows, a bare
	// ACT inside the RowCopy window, and TestExecBatchRejects'
	// rejections (bad bank, column overrun, negative stride walk, time
	// reversal). Then a whole-row WR and RD on the uncoupled twins,
	// whose open row's hammered neighbour left faults parked, and a
	// train of 2000 ACTs with a 150 us precharge gap that outlasts the
	// shortest retention time.
	f.Add(uint8(opWR), false, true, uint8(bank0), int16(0), int16(0), int8(1), uint16(cols), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0x9e3779b97f4a7c15), true, false)
	f.Add(uint8(opRD), true, true, uint8(bank0), int16(0), int16(0), int8(1), uint16(cols), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0), false, false)
	f.Add(uint8(opWR), false, true, uint8(bank0), int16(0), int16(0), int8(3), uint16((cols+2)/3), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0xf0f0f0f0), false, false)
	f.Add(uint8(opACT), false, false, uint8(bank0), int16(13), int16(0), int8(0), uint16(60_000), int64(sim.Nanosecond), int64(tm.TRAS+tm.TRP), int64(tm.TRAS), uint64(0), false, false)
	f.Add(uint8(opACT), true, false, uint8(bank0), int16(71), int16(0), int8(0), uint16(4096), int64(sim.Microsecond), int64(7800*sim.Nanosecond+tm.TRP), int64(7800*sim.Nanosecond), uint64(0), false, false)
	f.Add(uint8(opACT), true, false, uint8(bank0), int16(12), int16(0), int8(0), uint16(1), int64(2*sim.Nanosecond), int64(0), int64(0), uint64(0), false, false)
	f.Add(uint8(opRD), false, true, uint8(5), int16(0), int16(0), int8(1), uint16(2), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0), false, false)
	f.Add(uint8(opRD), false, true, uint8(bank0), int16(0), int16(0), int8(1), uint16(cols+1), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0), false, false)
	f.Add(uint8(opRD), false, true, uint8(bank0), int16(0), int16(0), int8(-1), uint16(2), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0), false, false)
	f.Add(uint8(opRD), false, true, uint8(bank0), int16(0), int16(0), int8(1), uint16(2), int64(-tm.TRCD), int64(tm.TRCD), int64(0), uint64(0), false, false)
	f.Add(uint8(opWR), false, true, uint8(bank0), int16(0), int16(0), int8(1), uint16(ucols), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0x9e3779b97f4a7c15), true, true)
	f.Add(uint8(opRD), true, true, uint8(bank0), int16(0), int16(0), int8(1), uint16(ucols), int64(tm.TRCD), int64(tm.TRCD), int64(0), uint64(0), false, true)
	f.Add(uint8(opACT), false, false, uint8(bank0), int16(10), int16(0), int8(0), uint16(2000), int64(sim.Nanosecond), int64(200*sim.Microsecond), int64(50*sim.Microsecond), uint64(0), false, false)

	var twins [2][2][2]*Chip // [uncoupled][scheme][batch, loop]
	for i, p := range []topo.Profile{topo.Small(), uncoupledSmall()} {
		for j, scheme := range []topo.CellScheme{topo.TrueCellsOnly, topo.InterleavedTrueAnti} {
			p.Scheme = scheme
			twins[i][j] = [2]*Chip{MustNew(p, 9), MustNew(p, 9)}
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, anti, open bool, bankRaw uint8, rowRaw, colRaw int16, strideRaw int8,
		count uint16, delay, gap, on int64, data uint64, perCmd, uncoupled bool) {
		pair := twins[b2i(uncoupled)][b2i(anti)]
		batched, loop := pair[0], pair[1]
		for _, c := range []*Chip{batched, loop} {
			c.Reset()
			fuzzHistory(t, c, open)
		}

		b := sim.Batch{
			Op:     []sim.Op{sim.ACT, sim.RD, sim.WR}[op%3],
			At:     batched.Now() + sim.Time(delay%int64(2*sim.Second)),
			Gap:    sim.Time(gap % int64(250*sim.Millisecond)),
			Bank:   int(bankRaw%uint8(batched.Banks()+2)) - 1,
			Row:    int(rowRaw) % (batched.Rows() + 16),
			Col:    int(colRaw) % (batched.Columns() + 8),
			Stride: int(strideRaw) % 5,
			Count:  int(count),
			On:     sim.Time(on % int64(100*sim.Microsecond)),
		}
		if b.Op == sim.WR {
			b.Data = []uint64{data}
			if perCmd {
				b.Data = make([]uint64, b.Count)
				for i := range b.Data {
					b.Data[i] = data + uint64(i)*0x9e3779b97f4a7c15
				}
			}
		}
		if b.Validate() != nil {
			return
		}
		if b.Op == sim.ACT && b.On > 0 && b.Gap-b.On <= batched.timing.RowCopyMaxGap {
			return
		}

		var gotBatch, gotLoop []uint64
		if b.Op == sim.RD {
			gotBatch, gotLoop = make([]uint64, b.Count), make([]uint64, b.Count)
		}
		errBatch := batched.ExecBatch(b, gotBatch)
		errLoop := execBatchLoop(loop, b, gotLoop)
		if errBatch != nil {
			if errLoop == nil {
				t.Fatalf("%v: ExecBatch rejected it (%v), the Exec loop accepted it", b, errBatch)
			}
			return
		}
		if errLoop != nil {
			t.Fatalf("%v: ExecBatch accepted it, the Exec loop failed: %v", b, errLoop)
		}
		for i := range gotBatch {
			if gotBatch[i] != gotLoop[i] {
				t.Fatalf("%v: RD %d read %#x, the Exec loop %#x", b, i, gotBatch[i], gotLoop[i])
			}
		}
		if batched.Now() != loop.Now() {
			t.Fatalf("%v: ExecBatch left Now() at %v, the Exec loop at %v", b, batched.Now(), loop.Now())
		}
		rows := readbackRows(batched, loop)
		want, got := readBack(t, loop, rows), readBack(t, batched, rows)
		for i := range want {
			if want[i] != got[i] {
				r := rows[i/loop.Columns()]
				t.Fatalf("%v: bank %d row %d col %d reads %#x after ExecBatch, %#x after the Exec loop",
					b, r.bank, r.row, i%loop.Columns(), got[i], want[i])
			}
		}
	})
}

// fuzzHistory gives a chip the fixed command history FuzzExecBatch
// starts from: one written row in bank 1, then three in bank 0 (one of
// them in a second subarray), ending with the precharge of row 10 of
// bank 0, which an ACT inside the RowCopy window copies. With open set,
// row 11's wordline is charged, its physical neighbour row 10 is
// cleared and hammered past the stress floor, and row 11 is left open
// with the hammer's faults parked, so RD/WR batches have a row to work
// on.
func fuzzHistory(t *testing.T, c *Chip, open bool) {
	h := &tb{t: t, c: c}
	all1 := uint64(1)<<uint(c.DataWidth()) - 1
	h.writeRow(1, 10, 0)
	h.writeRow(0, 12, 0x5a5a5a5a)
	h.writeRow(0, 70, all1)
	h.writeRow(0, 10, all1)
	if open {
		h.writeRow(0, 11, all1)
		if partner, ok := c.topo.CoupledPartner(11); ok {
			h.writeRow(0, partner, all1) // the other half of row 11's wordline
		}
		h.writeRow(0, 10, 0)
		h.step(sim.Nanosecond)
		if err := c.AdvanceTo(h.at); err != nil {
			t.Fatal(err)
		}
		if err := c.Pulse(0, 10, 1_000_000, c.timing.TRAS, c.timing.TRP); err != nil {
			t.Fatal(err)
		}
		h.at = c.Now()
		h.act(0, 11)
	}
	if err := c.AdvanceTo(h.at); err != nil {
		t.Fatal(err)
	}
}

// execBatchLoop issues b through Exec one command at a time. RD and WR
// walk the columns b.Gap apart, writing b.Data[i] (or the broadcast
// b.Data[0]); a bare ACT is one ACT. An ACT train begins at b.At and,
// as the pulse kernel documents, starts from a fully precharged bank:
// its first ACT waits until tRP after the bank's last precharge. Each
// pulse is an ACT and a PRE b.On later, pulses are b.Gap apart, and the
// train ends one full gap after its last ACT.
func execBatchLoop(c *Chip, b sim.Batch, out []uint64) error {
	if b.Op == sim.ACT && b.On > 0 {
		if err := c.AdvanceTo(b.At); err != nil {
			return err
		}
		start := b.At
		if b.Bank >= 0 && b.Bank < len(c.banks) {
			if ready := c.banks[b.Bank].lastPre + c.timing.TRP; ready > start {
				start = ready
			}
		}
		at := start
		for i := 0; i < b.Count; i++ {
			if _, err := c.Exec(sim.Command{Op: sim.ACT, At: at, Bank: b.Bank, Row: b.Row}); err != nil {
				return err
			}
			if _, err := c.Exec(sim.Command{Op: sim.PRE, At: at + b.On, Bank: b.Bank}); err != nil {
				return err
			}
			at += b.Gap
		}
		return c.AdvanceTo(at)
	}
	if b.Op == sim.ACT {
		_, err := c.Exec(sim.Command{Op: sim.ACT, At: b.At, Bank: b.Bank, Row: b.Row})
		return err
	}
	for i := 0; i < b.Count; i++ {
		cmd := sim.Command{Op: b.Op, At: b.At + sim.Time(i)*b.Gap, Bank: b.Bank, Col: b.Col + i*b.Stride}
		if b.Op == sim.WR {
			cmd.Data = b.Data[0]
			if len(b.Data) > 1 {
				cmd.Data = b.Data[i]
			}
		}
		v, err := c.Exec(cmd)
		if err != nil {
			return err
		}
		if b.Op == sim.RD {
			out[i] = v
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

type bankRow struct{ bank, row int }

// readbackRows lists, in a fixed order, every logical row whose
// wordline either chip touched or that sits within two wordlines of
// one: the rows a batch's writes, charge sharing or disturbance can
// have changed.
func readbackRows(chips ...*Chip) []bankRow {
	tp := chips[0].topo
	halves := 1
	if tp.Coupled {
		halves = 2
	}
	var rows []bankRow
	for bank := range chips[0].banks {
		wls := map[int]bool{}
		for _, c := range chips {
			for _, wl := range c.banks[bank].touched {
				for d := -2; d <= 2; d++ {
					if w := int(wl) + d; w >= 0 && w < tp.PhysRows() {
						wls[w] = true
					}
				}
			}
		}
		sorted := make([]int, 0, len(wls))
		for wl := range wls {
			sorted = append(sorted, wl)
		}
		sort.Ints(sorted)
		for _, wl := range sorted {
			for half := 0; half < halves; half++ {
				rows = append(rows, bankRow{bank, tp.UnmapRow(wl, half)})
			}
		}
	}
	return rows
}

// readBack closes any open row and reads every column of the given
// rows through Exec at legal spacing, from the chip's current time.
func readBack(t *testing.T, c *Chip, rows []bankRow) []uint64 {
	h := &tb{t: t, c: c, at: c.Now()}
	for bank := range c.banks {
		h.pre(bank)
	}
	var out []uint64
	for _, r := range rows {
		out = append(out, h.readRow(r.bank, r.row)...)
	}
	return out
}
