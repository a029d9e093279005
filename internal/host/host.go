// Package host is the FPGA-based testing substrate of the
// reproduction: the equivalent of the paper's modified SoftMC / DRAM
// Bender (§III-A). It drives a DRAM target with precisely timed
// command sequences — including deliberately specification-violating
// ones — and provides the composite operations the three
// reverse-engineering techniques are built from: hammering, pressing,
// RowCopy, retention waits, and whole-row reads/writes.
//
// The composite operations issue their bursts as sim.Batch kernels
// (ExecBatch): the target validates timing once per burst, and the
// host folds the per-command counter updates into one batch-sized
// add. Single commands still go through Exec, the scalar reference
// path.
//
// Probes in package core speak to devices exclusively through a Host;
// they never touch ground-truth state.
package host

import (
	"fmt"
	"sync/atomic"

	"dramscope/internal/sim"
)

// Target is the device interface the host drives. *chip.Chip
// implements it. ExecBatch is the production path (Hammer and Press
// issue ACT trains as batches); Exec is the scalar reference. Timing
// is constant for a target's lifetime: New reads it once.
type Target interface {
	Exec(sim.Command) (uint64, error)
	ExecBatch(b sim.Batch, out []uint64) error
	AdvanceTo(sim.Time) error
	Now() sim.Time
	Rows() int
	Columns() int
	DataWidth() int
	Banks() int
	Timing() sim.Timing
}

// Counters is a snapshot of the DRAM command totals a Host has issued
// since it was created: the command-level cost of whatever drove it.
// Probe-cost accounting (and the "a warm store run issues zero probe
// commands" assertion) is built on these totals. Hammer and Press
// count each of their n activate/precharge pulses individually, so ACT
// reflects the true activation count — the quantity an activation
// budget would meter.
type Counters struct {
	ACT int64
	PRE int64
	RD  int64
	WR  int64
	REF int64
}

// Total sums all command counts.
func (c Counters) Total() int64 { return c.ACT + c.PRE + c.RD + c.WR + c.REF }

// Add returns the per-command sum of two snapshots.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		ACT: c.ACT + o.ACT,
		PRE: c.PRE + o.PRE,
		RD:  c.RD + o.RD,
		WR:  c.WR + o.WR,
		REF: c.REF + o.REF,
	}
}

// String renders the snapshot as "ACT=n PRE=n RD=n WR=n REF=n".
func (c Counters) String() string {
	return fmt.Sprintf("ACT=%d PRE=%d RD=%d WR=%d REF=%d", c.ACT, c.PRE, c.RD, c.WR, c.REF)
}

// Host issues timed command sequences against a target.
type Host struct {
	t  Target
	tm sim.Timing // t.Timing(), constant for the target's lifetime
	at sim.Time

	// Command totals. Atomic so concurrent readers (progress
	// reporting, tests) can snapshot while a probe is driving the
	// device; the issuing side itself is serialized by the probe
	// chain / suite scheduler.
	nACT atomic.Int64
	nPRE atomic.Int64
	nRD  atomic.Int64
	nWR  atomic.Int64
	nREF atomic.Int64

	// nBatch counts batched kernel dispatches (execBatch column bursts
	// and pulseTrain ACT trains) — how many sim.Batch bursts reached
	// the chip, as opposed to the per-command totals above. Tracing
	// attributes it to kernel spans.
	nBatch atomic.Int64

	// wbuf is the scratch pattern buffer the batched row writes reuse;
	// safe because command issue is serialized (see counter comment).
	wbuf []uint64
}

// New wraps a target.
func New(t Target) *Host {
	return &Host{t: t, tm: t.Timing(), at: t.Now()}
}

// Target returns the wrapped device.
func (h *Host) Target() Target { return h.t }

// Counters returns a snapshot of the command totals issued through
// this host, including the expanded ACT/PRE pulses of Hammer and
// Press. Safe for concurrent use.
func (h *Host) Counters() Counters {
	return Counters{
		ACT: h.nACT.Load(),
		PRE: h.nPRE.Load(),
		RD:  h.nRD.Load(),
		WR:  h.nWR.Load(),
		REF: h.nREF.Load(),
	}
}

// Batches returns how many batched kernel bursts this host has
// dispatched (see nBatch). Safe for concurrent use.
func (h *Host) Batches() int64 { return h.nBatch.Load() }

// count records n issued commands of one opcode.
func (h *Host) count(op sim.Op, n int64) {
	switch op {
	case sim.ACT:
		h.nACT.Add(n)
	case sim.PRE:
		h.nPRE.Add(n)
	case sim.RD:
		h.nRD.Add(n)
	case sim.WR:
		h.nWR.Add(n)
	case sim.REF:
		h.nREF.Add(n)
	}
}

// Rows, Columns, DataWidth forward the target geometry.
func (h *Host) Rows() int      { return h.t.Rows() }
func (h *Host) Columns() int   { return h.t.Columns() }
func (h *Host) DataWidth() int { return h.t.DataWidth() }

// Now returns the host's current issue time.
func (h *Host) Now() sim.Time { return h.at }

func (h *Host) exec(cmd sim.Command) (uint64, error) {
	cmd.At = h.at
	h.count(cmd.Op, 1)
	return h.t.Exec(cmd)
}

// execBatch issues a column burst (RD/WR) over the open row: the
// first command lands one tRCD step after the current time and each
// subsequent one another tRCD later, exactly like the scalar
// Read/Write loop it replaces. One counter add covers the burst.
func (h *Host) execBatch(b sim.Batch, out []uint64) error {
	trcd := h.tm.TRCD
	b.At = h.at + trcd
	b.Gap = trcd
	h.at = b.End()
	h.count(b.Op, int64(b.Count))
	h.nBatch.Add(1)
	return h.t.ExecBatch(b, out)
}

func (h *Host) step(d sim.Time) { h.at += d }

// Wait advances time by d without issuing commands (retention tests).
func (h *Host) Wait(d sim.Time) error {
	h.step(d)
	return h.t.AdvanceTo(h.at)
}

// Activate opens a row after a full precharge interval.
func (h *Host) Activate(bank, row int) error {
	h.step(h.tm.TRP + h.tm.TCK)
	_, err := h.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: row})
	return err
}

// Precharge closes the open row after tRAS.
func (h *Host) Precharge(bank int) error {
	h.step(h.tm.TRAS)
	_, err := h.exec(sim.Command{Op: sim.PRE, Bank: bank})
	return err
}

// Read returns one burst from the open row.
func (h *Host) Read(bank, col int) (uint64, error) {
	h.step(h.tm.TRCD)
	return h.exec(sim.Command{Op: sim.RD, Bank: bank, Col: col})
}

// Write stores one burst into the open row.
func (h *Host) Write(bank, col int, data uint64) error {
	h.step(h.tm.TRCD)
	_, err := h.exec(sim.Command{Op: sim.WR, Bank: bank, Col: col, Data: data})
	return err
}

// Refresh issues a bank refresh.
func (h *Host) Refresh(bank int) error {
	h.step(h.tm.TCK)
	_, err := h.exec(sim.Command{Op: sim.REF, Bank: bank})
	return err
}

// patternBuf fills the reusable scratch buffer with pattern(col).
func (h *Host) patternBuf(n int, pattern func(col int) uint64) []uint64 {
	if cap(h.wbuf) < n {
		h.wbuf = make([]uint64, n)
	}
	buf := h.wbuf[:n]
	for col := range buf {
		buf[col] = pattern(col)
	}
	return buf
}

// WriteRow writes pattern(col) to every column of a row, as one WR
// burst over the whole row.
func (h *Host) WriteRow(bank, row int, pattern func(col int) uint64) error {
	if err := h.Activate(bank, row); err != nil {
		return err
	}
	cols := h.t.Columns()
	b := sim.Batch{Op: sim.WR, Bank: bank, Col: 0, Stride: 1, Count: cols,
		Data: h.patternBuf(cols, pattern)}
	if err := h.execBatch(b, nil); err != nil {
		return err
	}
	return h.Precharge(bank)
}

// FillRow writes the same burst value to every column.
func (h *Host) FillRow(bank, row int, data uint64) error {
	if err := h.Activate(bank, row); err != nil {
		return err
	}
	fill := [1]uint64{data}
	b := sim.Batch{Op: sim.WR, Bank: bank, Col: 0, Stride: 1,
		Count: h.t.Columns(), Data: fill[:]}
	if err := h.execBatch(b, nil); err != nil {
		return err
	}
	return h.Precharge(bank)
}

// ReadRow reads every column of a row.
func (h *Host) ReadRow(bank, row int) ([]uint64, error) {
	out := make([]uint64, h.t.Columns())
	if err := h.ReadRowInto(bank, row, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRowInto reads every column of a row into out (len Columns),
// reusing the caller's buffer — the allocation-free variant scan
// loops use.
func (h *Host) ReadRowInto(bank, row int, out []uint64) error {
	if len(out) != h.t.Columns() {
		return fmt.Errorf("host: ReadRowInto wants a %d-column buffer, got %d", h.t.Columns(), len(out))
	}
	if err := h.Activate(bank, row); err != nil {
		return err
	}
	b := sim.Batch{Op: sim.RD, Bank: bank, Col: 0, Stride: 1, Count: len(out)}
	if err := h.execBatch(b, out); err != nil {
		return err
	}
	return h.Precharge(bank)
}

// stridedCols reports whether cols forms an arithmetic walk the batch
// kernels can express directly.
func stridedCols(cols []int) (start, stride int, ok bool) {
	if len(cols) == 0 {
		return 0, 0, false
	}
	start = cols[0]
	if len(cols) > 1 {
		stride = cols[1] - cols[0]
		for i := 2; i < len(cols); i++ {
			if cols[i]-cols[i-1] != stride {
				return 0, 0, false
			}
		}
	}
	return start, stride, true
}

// ReadCols reads only the given columns of a row (faster for scans).
func (h *Host) ReadCols(bank, row int, cols []int) ([]uint64, error) {
	out := make([]uint64, len(cols))
	if err := h.ReadColsInto(bank, row, cols, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadColsInto reads the given columns into out (len(cols) entries).
// Arithmetic column walks — the common case — issue as one burst.
func (h *Host) ReadColsInto(bank, row int, cols []int, out []uint64) error {
	if len(out) != len(cols) {
		return fmt.Errorf("host: ReadColsInto needs matching cols and out")
	}
	if err := h.Activate(bank, row); err != nil {
		return err
	}
	if start, stride, ok := stridedCols(cols); ok {
		b := sim.Batch{Op: sim.RD, Bank: bank, Col: start, Stride: stride, Count: len(cols)}
		if err := h.execBatch(b, out); err != nil {
			return err
		}
	} else {
		for i, col := range cols {
			v, err := h.Read(bank, col)
			if err != nil {
				return err
			}
			out[i] = v
		}
	}
	return h.Precharge(bank)
}

// WriteCols writes only the given columns of a row.
func (h *Host) WriteCols(bank, row int, cols []int, data []uint64) error {
	if len(cols) != len(data) {
		return fmt.Errorf("host: WriteCols needs matching cols and data")
	}
	if err := h.Activate(bank, row); err != nil {
		return err
	}
	if start, stride, ok := stridedCols(cols); ok {
		b := sim.Batch{Op: sim.WR, Bank: bank, Col: start, Stride: stride,
			Count: len(cols), Data: data}
		if err := h.execBatch(b, nil); err != nil {
			return err
		}
	} else {
		for i, col := range cols {
			if err := h.Write(bank, col, data[i]); err != nil {
				return err
			}
		}
	}
	return h.Precharge(bank)
}

// Hammer performs n single-sided RowHammer activations of a row
// (ACT/PRE pairs at minimum legal spacing; §V-B uses 300K), issued as
// one ACT-train batch.
func (h *Host) Hammer(bank, row, n int) error {
	return h.pulseTrain(bank, row, n, h.tm.TRAS)
}

// Press performs n RowPress activations, keeping the row open for tOn
// each time (§V-B uses 8K activations of 7.8us).
func (h *Host) Press(bank, row, n int, tOn sim.Time) error {
	return h.pulseTrain(bank, row, n, tOn)
}

// pulseTrain issues n ACT/PRE pulses with tOn on-time and a tRP
// precharge gap as a single batch kernel, counting the expanded
// pulses with one add per opcode.
func (h *Host) pulseTrain(bank, row, n int, tOn sim.Time) error {
	b := sim.Batch{Op: sim.ACT, At: h.at, Bank: bank, Row: row,
		Count: n, On: tOn, Gap: tOn + h.tm.TRP}
	if err := h.t.ExecBatch(b, nil); err != nil {
		return err
	}
	h.count(sim.ACT, int64(n))
	h.count(sim.PRE, int64(n))
	h.nBatch.Add(1)
	h.at = h.t.Now()
	return nil
}

// RowCopy performs the out-of-spec in-DRAM copy (§III-B): activate the
// source, precharge after tRAS, then re-activate the destination
// before the bitlines restore. The four commands are inherently
// heterogeneous (the violating PRE→ACT gap is the point), so they stay
// on the scalar path; the chip's charge-share kernel does the
// word-packed transfer.
func (h *Host) RowCopy(bank, src, dst int) error {
	if err := h.Activate(bank, src); err != nil {
		return err
	}
	if err := h.Precharge(bank); err != nil {
		return err
	}
	h.step(2 * sim.Nanosecond) // inside the charge-share window
	if _, err := h.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: dst}); err != nil {
		return err
	}
	return h.Precharge(bank)
}
