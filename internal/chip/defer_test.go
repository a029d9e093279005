package chip

import (
	"slices"
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// eagerTwins drives a chip and its eager twin with the same random
// command history. The twin applies an ACT's faults at the ACT itself
// (flush right after it), as materialize did before the application was
// parked; the chip parks them until an access observes the row, or
// drops them when a whole-row WR batch overwrites it. Every RD must
// read the same on both, and whenever a bank closes (PRE, REF, an ACT
// train) every row it touched must hold the same charge.
type eagerTwins struct {
	t           *testing.T
	lazy, eager *Chip
	tm          sim.Timing
	rows        []int // candidate logical rows: neighbours, a subarray boundary, an edge pair
	s           xorshift
	at          sim.Time
	open        [2]bool // banks 0 and 1
	closedAt    [2]sim.Time
	step        int
}

func newEagerTwins(t *testing.T, p topo.Profile) *eagerTwins {
	d := &eagerTwins{t: t, lazy: MustNew(p, 17), eager: MustNew(p, 17)}
	d.tm = d.lazy.Timing()
	tp := d.lazy.Topology()
	halves := 1
	if tp.Coupled {
		halves = 2
	}
	for _, wl := range []int{29, 30, 31, 32, 33, 62, 63, 64, 65, 4, 164} {
		for half := 0; half < halves; half++ {
			d.rows = append(d.rows, tp.UnmapRow(wl, half))
		}
	}
	return d
}

func (d *eagerTwins) reset(seed uint64) {
	d.lazy.Reset()
	d.eager.Reset()
	d.s = xorshift(seed*0x9e3779b97f4a7c15 + 1)
	d.at = 0
	d.open = [2]bool{}
	d.closedAt = [2]sim.Time{}
}

func (d *eagerTwins) pick(n int) int { return int(d.s.next() % uint64(n)) }

func (d *eagerTwins) exec(cmd sim.Command) {
	d.t.Helper()
	cmd.At = d.at
	got, err := d.lazy.Exec(cmd)
	if err != nil {
		d.t.Fatalf("step %d: %v: %v", d.step, cmd, err)
	}
	want, err := d.eager.Exec(cmd)
	if err != nil {
		d.t.Fatalf("step %d: %v: eager twin: %v", d.step, cmd, err)
	}
	switch cmd.Op {
	case sim.ACT:
		d.eager.flush(d.eager.banks[cmd.Bank])
	case sim.RD:
		if got != want {
			d.t.Fatalf("step %d: %v read %#x, eager twin %#x", d.step, cmd, got, want)
		}
	case sim.PRE, sim.REF:
		d.sameCharge(cmd.Bank, cmd.Op.String())
	}
}

func (d *eagerTwins) batch(b sim.Batch) {
	d.t.Helper()
	var got, want []uint64
	if b.Op == sim.RD {
		got, want = make([]uint64, b.Count), make([]uint64, b.Count)
	}
	if err := d.lazy.ExecBatch(b, got); err != nil {
		d.t.Fatalf("step %d: %v: %v", d.step, b, err)
	}
	if err := d.eager.ExecBatch(b, want); err != nil {
		d.t.Fatalf("step %d: %v: eager twin: %v", d.step, b, err)
	}
	for i := range got {
		if got[i] != want[i] {
			d.t.Fatalf("step %d: %v: RD %d read %#x, eager twin %#x", d.step, b, i, got[i], want[i])
		}
	}
	if d.lazy.Now() != d.eager.Now() {
		d.t.Fatalf("step %d: %v left Now() at %v, eager twin at %v", d.step, b, d.lazy.Now(), d.eager.Now())
	}
	d.at = d.lazy.Now()
	switch {
	case b.Op == sim.ACT && b.On == 0:
		d.eager.flush(d.eager.banks[b.Bank])
	case b.Op == sim.ACT:
		d.sameCharge(b.Bank, "ACT train")
	}
}

// sameCharge compares the charge of every row a closed bank touched on
// both chips.
func (d *eagerTwins) sameCharge(bank int, after string) {
	d.t.Helper()
	bl, be := d.lazy.banks[bank], d.eager.banks[bank]
	if !slices.Equal(bl.touched, be.touched) {
		d.t.Fatalf("step %d, after %s: bank %d touched %v, eager twin %v", d.step, after, bank, bl.touched, be.touched)
	}
	for _, wl := range bl.touched {
		got, want := bl.rows[wl].charge, be.rows[wl].charge
		for w := range want {
			if got[w] != want[w] {
				d.t.Fatalf("step %d, after %s: bank %d wl %d word %d holds %#x, eager twin %#x",
					d.step, after, bank, wl, w, got[w], want[w])
			}
		}
	}
}

// data draws a burst value: solid, random, or one per column.
func (d *eagerTwins) data(count int) []uint64 {
	switch d.pick(3) {
	case 0:
		return []uint64{0}
	case 1:
		return []uint64{d.s.next()}
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = d.s.next()
	}
	return out
}

// run issues n random commands, each legal for the state of the bank
// it picks.
func (d *eagerTwins) run(n int) {
	cols := d.lazy.Columns()
	for d.step = 0; d.step < n; d.step++ {
		bank := d.pick(2)
		if !d.open[bank] {
			switch d.pick(8) {
			case 0, 1: // ACT at legal spacing
				d.at += d.tm.TRP + d.tm.TCK
				d.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: d.rows[d.pick(len(d.rows))]})
				d.open[bank] = true
			case 2: // the same, as a bare ACT batch
				d.at += d.tm.TRP + d.tm.TCK
				d.batch(sim.Batch{Op: sim.ACT, At: d.at, Bank: bank, Row: d.rows[d.pick(len(d.rows))], Count: 1})
				d.open[bank] = true
			case 3: // ACT inside the RowCopy window, if the bank just closed
				if d.at-d.closedAt[bank] > d.tm.RowCopyMaxGap {
					continue
				}
				d.at += 2 * sim.Nanosecond
				d.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: d.rows[d.pick(len(d.rows))]})
				d.open[bank] = true
			case 4:
				d.at += d.tm.TCK
				d.exec(sim.Command{Op: sim.REF, Bank: bank})
			case 5: // hammer or press train
				on, count := d.tm.TRAS, []int{5_000, 30_000, 300_000}[d.pick(3)]
				if d.pick(2) == 0 {
					on, count = 7800*sim.Nanosecond, []int{1024, 8192}[d.pick(2)]
				}
				d.batch(sim.Batch{Op: sim.ACT, At: d.at, Bank: bank, Row: d.rows[d.pick(len(d.rows))],
					Count: count, On: on, Gap: on + d.tm.TRP})
				d.closedAt[bank] = d.at
			case 6, 7: // wait, past the retention floor or not
				d.at += []sim.Time{50 * sim.Millisecond, 300 * sim.Millisecond, 3 * sim.Second}[d.pick(3)]
				for _, c := range []*Chip{d.lazy, d.eager} {
					if err := c.AdvanceTo(d.at); err != nil {
						d.t.Fatal(err)
					}
				}
			}
			continue
		}
		wr := sim.Batch{Op: sim.WR, At: d.at + d.tm.TRCD, Gap: d.tm.TRCD, Bank: bank, Stride: 1, Count: cols}
		switch d.pick(8) {
		case 0, 1: // whole row
			wr.Data = d.data(cols)
			d.batch(wr)
		case 2: // strided, or all but the last column
			if d.pick(2) == 0 {
				wr.Stride = 2 + d.pick(2)
				wr.Col = d.pick(wr.Stride)
				wr.Count = (cols - wr.Col + wr.Stride - 1) / wr.Stride
			} else {
				wr.Count = cols - 1
			}
			wr.Data = d.data(wr.Count)
			d.batch(wr)
		case 3:
			d.at += d.tm.TRCD
			d.exec(sim.Command{Op: sim.WR, Bank: bank, Col: d.pick(cols), Data: d.s.next()})
		case 4:
			d.at += d.tm.TRCD
			d.exec(sim.Command{Op: sim.RD, Bank: bank, Col: d.pick(cols)})
		case 5:
			d.batch(sim.Batch{Op: sim.RD, At: d.at + d.tm.TRCD, Gap: d.tm.TRCD, Bank: bank, Stride: 1, Count: cols})
		default:
			d.at += d.tm.TRAS
			d.exec(sim.Command{Op: sim.PRE, Bank: bank})
			d.open[bank] = false
			d.closedAt[bank] = d.at
		}
	}
}

// TestDeferredFaultsMatchEager holds the parked fault application to
// applying it at the ACT, on the uncoupled geometry (whole-row WR
// batches drop the parked faults) and the coupled one (they always
// flush), for both cell schemes.
func TestDeferredFaultsMatchEager(t *testing.T) {
	for _, p := range []topo.Profile{uncoupledSmall(), topo.Small()} {
		for _, scheme := range []topo.CellScheme{topo.TrueCellsOnly, topo.InterleavedTrueAnti} {
			p.Scheme = scheme
			d := newEagerTwins(t, p)
			for seed := uint64(1); seed <= 16; seed++ {
				d.reset(seed)
				d.run(300)
			}
		}
	}
}
