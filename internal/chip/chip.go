// Package chip simulates a DRAM chip at the level DRAMScope needs: a
// command interface with explicit timestamps over banks of physical
// wordlines, with microarchitecturally faithful behaviour for
// activate-induced bitflips, RowPress, retention decay, and RowCopy
// charge sharing.
//
// # State model
//
// Cell state is stored as *charge* (not data) per physical wordline,
// allocated lazily. Data polarity goes through the true-/anti-cell
// layout of the device's topology. Fault effects are materialized
// lazily: each wordline remembers snapshots of its neighbors'
// cumulative activation counters from the moment it was last restored
// (activated, written, or refreshed); when it is next touched, the
// counter deltas are turned into bitflips via the fault model. This is
// both fast (hammer loops cost O(1) per activation) and faithful
// (activating a victim restores its cells, which is why real RowHammer
// requires the victim row to stay closed).
//
// Touching a row is two steps. The restore step takes the counter
// deltas and the interval since the last restore, decides which
// mechanisms can flip a cell, and re-snapshots the row; the apply step
// runs those faults through the kernels (applyFaults, applyRetention).
// A pulse train, a REF and a charge-sharing ACT apply at once. Any
// other ACT parks its application on the bank: while the row is open
// no ACT, REF or pulse can run on the bank, so every input of the
// application (the row's own charge, its neighbours' charges and
// counters, the interval, the draws) stays fixed. The parked faults
// are applied before the first access that observes the open row's
// charge or changes only part of it: a RD, a scalar WR, a WR batch
// that does not cover the whole row, or the PRE. A WR batch over every
// column, from column 0 at stride 1, on a device whose bursts cover
// every cell of the wordline (burstMap.wholeRow: every uncoupled
// geometry) discards them instead. It sets each cell to the written
// data whatever flipped, so those flips, and the draw tables they
// would build, are never computed. AIB measurements rewrite their
// victim and aggressor rows before every hammer, which is where this
// saves the most.
//
// # Command execution
//
// Exec applies one timed command and is the reference implementation.
// ExecBatch applies a homogeneous sim.Batch through kernels that
// validate timing once per burst and run the transfers over
// word-packed state; it is semantically identical to the equivalent
// Exec loop (asserted by tests) and is what the host's composite
// operations use.
//
// # RowCopy latch
//
// A PRE (or the last precharge of a Pulse train) leaves the sensed
// row's charge on the bitlines, and an ACT within RowCopyMaxGap copies
// it onto the destination row. The bank latches that charge by
// reference: it remembers the sensed row and reads its charge words in
// place when an ACT consumes them. Only two things can change the
// latched row before the consuming ACT — a REF on the bank, which
// materializes every touched row, and the ACT's own materialize when the
// destination is the latched row itself — so exactly those two points
// snapshot the charge into the bank's latch buffer first, and only
// while an ACT could still consume it.
//
// # Untouched rows
//
// Rows never written behave as discharged since power-on. Their data
// reads as 0 on true-cell subarrays and 1 on anti-cell subarrays. A
// fresh row holds no charge, so its first materialize skips retention.
package chip

import (
	"fmt"
	"math"

	"dramscope/internal/faults"
	"dramscope/internal/geom"
	"dramscope/internal/rng"
	"dramscope/internal/sim"
	"dramscope/internal/swizzle"
	"dramscope/internal/topo"
)

// Chip is one simulated DRAM chip.
type Chip struct {
	prof   topo.Profile
	topo   *topo.Topology
	cmap   *swizzle.ColumnMap
	fp     faults.Params
	timing sim.Timing
	banks  []*bank
	now    sim.Time

	words int // 64-bit words per wordline

	// Derived constants cached off the fault model: the stress-floor
	// bounds consulted on every materialize, the retention floor in
	// simulated time, and the log-uniform retention scale (ln(hi/lo)
	// evaluated once instead of per cell).
	maxHammerF float64
	maxPressF  float64
	retMin     sim.Time
	retScale   rng.LogScale

	// burst is the RD/WR data path: the column swizzle compiled into
	// word-grouped field operations (burst.go).
	burst *burstMap

	// flipMask is materialize's scratch row of pending flip words:
	// flips are collected per word and applied only after the whole
	// row is scanned, because a cell's neighborhood reads the pre-flip
	// charges of adjacent cells.
	flipMask []uint64
}

type bank struct {
	openWL    int // open physical wordline, or -1
	openHalf  int // MAT half of the addressed logical row
	openSince sim.Time
	lastPre   sim.Time
	latchWL   int      // wordline whose charge the bitlines still hold, or -1
	latched   []uint64 // that charge: the row's own words, or latchBuf once snapshot
	latchBuf  []uint64 // snapshot storage (see snapshotLatch)

	// parked is the fault application the open row's ACT deferred (see
	// the package doc); parked.rs is nil when none is pending. It only
	// exists while a row is open.
	parked faultApp

	// Per-wordline bookkeeping, dense-indexed by physical wordline.
	// touched lists the wordlines holding state (insertion order), so
	// refresh and Reset walk only what was used.
	rows    []*rowState
	acts    []int64   // cumulative activations per wordline
	press   []float64 // cumulative over-tRAS on-time per wordline (ps)
	touched []int32

	// Chunked row-state arena (see arena.go): records and their charge
	// slabs are handed out in touch order and recycled wholesale by
	// Reset. inUse counts records handed out since the last Reset.
	stateChunks [][]rowState
	slabChunks  [][]uint64
	inUse       int

	// Flip-threshold caches: per mechanism (allocated on the
	// mechanism's first use), per physical wordline. The cached draws
	// are pure in (seed, bank, wl), so they survive Reset (see
	// arena.go).
	draws [faults.NumMechanisms][]*drawTab

	wlActs int64 // wordlines driven (edge rows count twice): energy proxy
}

type rowState struct {
	charge []uint64
	// Neighbor counter snapshots at the last restore of this row.
	snapUp, snapDown   int64
	pressUp, pressDown float64
	lastRestore        sim.Time
}

// faultApp is the fault application one restore of a wordline owes:
// the neighbor counter deltas and the interval since the row's previous
// restore, and which mechanisms they make live. restore computes it,
// apply runs it through the kernels.
type faultApp struct {
	bankID, wl           int
	rs                   *rowState
	dUpActs, dDownActs   int64
	dUpPress, dDownPress float64
	elapsed              sim.Time
	upOK, downOK         bool
	hammerOn, pressOn    bool
	hasRet               bool
}

// New builds a chip from a device profile with the given fault seed.
func New(prof topo.Profile, seed uint64) (*Chip, error) {
	t, err := prof.Build()
	if err != nil {
		return nil, err
	}
	cm, err := columnMapFor(prof)
	if err != nil {
		return nil, err
	}
	fp := faults.Default(seed)
	fp.BaseScale = vendorScale(prof)
	c := &Chip{
		prof:       prof,
		topo:       t,
		cmap:       cm,
		fp:         fp,
		timing:     prof.Timing,
		words:      prof.RowBits / 64,
		maxHammerF: fp.MaxHammerFactor(),
		maxPressF:  fp.MaxPressFactor(),
		retMin:     sim.Time(fp.RetentionMinSec * float64(sim.Second)),
		retScale:   fp.RetentionScale(),
	}
	if prof.RowBits%64 != 0 {
		return nil, fmt.Errorf("chip: RowBits %d is not word-aligned", prof.RowBits)
	}
	c.burst = newBurstMap(cm, c.words)
	c.flipMask = make([]uint64, c.words)
	physRows := t.PhysRows()
	for i := 0; i < prof.Banks; i++ {
		c.banks = append(c.banks, &bank{
			openWL:   -1,
			latchWL:  -1,
			lastPre:  math.MinInt64 / 2,
			latchBuf: make([]uint64, c.words),
			rows:     make([]*rowState, physRows),
			acts:     make([]int64, physRows),
			press:    make([]float64, physRows),
		})
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(prof topo.Profile, seed uint64) *Chip {
	c, err := New(prof, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset restores the chip to its power-on state — simulated time zero,
// all banks precharged, every cell discharged — while keeping the
// topology, swizzle tables, row-state arenas, and flip-threshold
// caches for reuse. A Reset chip is indistinguishable from a freshly
// built one with the same profile and seed (asserted by tests); Env
// clone pooling is built on this. The flip-threshold caches may
// legally survive because every cached value is a pure function of
// (seed, bank, wl, x), all of which Reset preserves.
func (c *Chip) Reset() {
	c.now = 0
	for _, b := range c.banks {
		b.openWL = -1
		b.openHalf = 0
		b.openSince = 0
		b.lastPre = math.MinInt64 / 2
		b.latchWL = -1
		b.latched = nil
		b.wlActs = 0
		for _, wl := range b.touched {
			b.rows[wl] = nil
			b.acts[wl] = 0
			b.press[wl] = 0
		}
		b.touched = b.touched[:0]
		b.resetArena(c.words)
	}
}

// columnMapFor derives the swizzle geometry from the profile.
func columnMapFor(prof topo.Profile) (*swizzle.ColumnMap, error) {
	dataWidth := prof.ChipWidth * 8
	src := swizzle.AllMATs
	switch {
	case prof.Coupled:
		src = swizzle.RowHalf
	case prof.ChipWidth == 4:
		src = swizzle.ColumnLSB
	}
	return swizzle.NewColumnMap(prof.RowBits, prof.MATWidth, dataWidth, src)
}

// vendorScale sets the per-vendor absolute AIB rate (Fig. 10 shows
// vendor-distinct base BERs; shape, not absolute value, is what the
// reproduction preserves).
func vendorScale(prof topo.Profile) float64 {
	switch {
	case prof.Kind == "HBM2":
		return 0.8
	case prof.Vendor == "B":
		return 0.6
	case prof.Vendor == "C":
		return 0.35
	default:
		return 1.0
	}
}

// --- accessors ---

// Profile returns the device profile.
func (c *Chip) Profile() topo.Profile { return c.prof }

// Topology exposes the ground-truth topology. Reverse-engineering
// probes must not call this; it exists for validation and experiment
// bookkeeping.
func (c *Chip) Topology() *topo.Topology { return c.topo }

// ColumnMap exposes the ground-truth swizzle map (validation only).
func (c *Chip) ColumnMap() *swizzle.ColumnMap { return c.cmap }

// FaultParams returns the fault model parameters in effect.
func (c *Chip) FaultParams() faults.Params { return c.fp }

// Timing returns the timing parameter set.
func (c *Chip) Timing() sim.Timing { return c.timing }

// Now returns the current simulated time.
func (c *Chip) Now() sim.Time { return c.now }

// Banks returns the number of banks.
func (c *Chip) Banks() int { return len(c.banks) }

// Rows returns the number of addressable rows per bank.
func (c *Chip) Rows() int { return c.topo.LogicalRows() }

// Columns returns the number of bursts per row.
func (c *Chip) Columns() int { return c.cmap.Columns() }

// DataWidth returns the burst width in bits.
func (c *Chip) DataWidth() int { return c.cmap.DataWidth() }

// WordlineActivations returns the cumulative number of wordlines
// driven in a bank (edge-subarray rows drive their tandem partner too,
// counting twice). It is a ground-truth test hook: tests use it to
// check tandem wordlines (O5, §VI-C) and that a module's hammer reaches
// every chip; probes must not call it.
func (c *Chip) WordlineActivations(bankID int) int64 { return c.banks[bankID].wlActs }

// --- command execution ---

// Exec applies one timed command. For RD it returns the burst data.
// Commands must be issued in non-decreasing time order. Exec is the
// reference implementation of the command set; composite operations
// go through ExecBatch.
func (c *Chip) Exec(cmd sim.Command) (uint64, error) {
	if cmd.At < c.now {
		return 0, fmt.Errorf("chip: command %v is before current time %v", cmd, c.now)
	}
	if cmd.Op != sim.NOP {
		if cmd.Bank < 0 || cmd.Bank >= len(c.banks) {
			return 0, fmt.Errorf("chip: bank %d out of range", cmd.Bank)
		}
	}
	c.now = cmd.At
	switch cmd.Op {
	case sim.NOP:
		return 0, nil
	case sim.ACT:
		return 0, c.activate(cmd.Bank, cmd.Row, cmd.At)
	case sim.PRE:
		return 0, c.precharge(cmd.Bank, cmd.At)
	case sim.RD:
		return c.read(cmd.Bank, cmd.Col, cmd.At)
	case sim.WR:
		return 0, c.write(cmd.Bank, cmd.Col, cmd.Data, cmd.At)
	case sim.REF:
		return 0, c.refresh(cmd.Bank, cmd.At)
	default:
		return 0, fmt.Errorf("chip: unknown op %v", cmd.Op)
	}
}

// ExecBatch applies a homogeneous command burst through the batched
// kernels: timing and address ranges are validated once, then the
// whole burst executes without per-command dispatch. For RD batches,
// out receives one burst per command and must hold Count entries.
// ExecBatch is semantically identical to issuing the burst's commands
// through Exec one at a time (FuzzExecBatch holds it to that). An ACT
// train starts from a fully precharged bank, its first ACT waiting
// until tRP after the bank's last precharge, and ends one full gap
// after its last ACT.
func (c *Chip) ExecBatch(b sim.Batch, out []uint64) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if b.At < c.now {
		return fmt.Errorf("chip: batch %v is before current time %v", b, c.now)
	}
	if b.Bank < 0 || b.Bank >= len(c.banks) {
		return fmt.Errorf("chip: bank %d out of range", b.Bank)
	}
	switch b.Op {
	case sim.ACT:
		if b.On > 0 {
			c.now = b.At
			return c.pulse(b.Bank, b.Row, b.Count, b.On, b.Gap-b.On)
		}
		c.now = b.At
		return c.activate(b.Bank, b.Row, b.At)
	case sim.RD:
		return c.readBatch(b, out)
	default: // sim.WR (Validate rejects everything else)
		return c.writeBatch(b)
	}
}

// AdvanceTo moves simulated time forward without issuing a command
// (retention waits).
func (c *Chip) AdvanceTo(t sim.Time) error {
	if t < c.now {
		return fmt.Errorf("chip: cannot advance backwards (%v < %v)", t, c.now)
	}
	c.now = t
	return nil
}

func (c *Chip) activate(bankID, row int, t sim.Time) error {
	b := c.banks[bankID]
	if b.openWL >= 0 {
		return fmt.Errorf("chip: ACT on bank %d with row already open", bankID)
	}
	if row < 0 || row >= c.topo.LogicalRows() {
		return fmt.Errorf("chip: row %d out of range [0,%d)", row, c.topo.LogicalRows())
	}
	wl, half := c.topo.MapRow(row)

	gap := t - b.lastPre
	if wl == b.latchWL {
		c.snapshotLatch(b, t) // applying the row's faults may change the latched row
	}
	f := c.restore(bankID, wl, t)
	if b.latchWL >= 0 && gap <= c.timing.RowCopyMaxGap {
		c.apply(&f)
		c.chargeShare(b, f.rs, wl)
	} else if f.hammerOn || f.pressOn || f.hasRet {
		b.parked = f
	}

	b.acts[wl]++
	b.wlActs++
	if _, edge := c.topo.EdgePartnerWL(wl); edge {
		b.wlActs++ // tandem partner wordline is driven too
	}
	b.openWL = wl
	b.openHalf = half
	b.openSince = t
	return nil
}

// chargeShare overwrites the destination row's cells with the residual
// bitline charge of the previously sensed row (RowCopy, §III-B). Every
// coverage pattern the topology produces is a bitline-parity mask, so
// the transfer runs word-packed: dst = (dst &^ cov) | ((latch ^ inv) & cov).
func (c *Chip) chargeShare(b *bank, dst *rowState, dstWL int) {
	rel := c.topo.CopyRelationOf(b.latchWL, dstWL)
	if rel == topo.CopyNone {
		return
	}
	const (
		evenMask = 0x5555555555555555 // bitlines with x&1 == 0
		oddMask  = 0xAAAAAAAAAAAAAAAA // bitlines with x&1 == 1
	)
	var cov, inv uint64
	switch rel {
	case topo.CopyFull:
		cov, inv = ^uint64(0), 0
	case topo.CopyHalfUpper, topo.CopyHalfLower:
		// Covered where the source subarray's bitline connects upward
		// (ConnectsUpper: (x+sub)&1 == 1), or its complement.
		cov, inv = oddMask, ^uint64(0)
		if c.topo.SubarrayOf(b.latchWL)&1 == 1 {
			cov = evenMask
		}
		if rel == topo.CopyHalfLower {
			cov = ^cov
		}
	case topo.CopyEdgePair:
		cov, inv = evenMask, ^uint64(0)
	}
	for w, d := range dst.charge {
		dst.charge[w] = (d &^ cov) | ((b.latched[w] ^ inv) & cov)
	}
}

// latch records a wordline's charge as the bitline state a RowCopy can
// consume, by reference (see the package doc).
func (b *bank) latch(wl int, rs *rowState, t sim.Time) {
	b.latchWL = wl
	b.latched = rs.charge
	b.lastPre = t
}

// snapshotLatch copies the latched charge out of its row before the
// row changes at time t, if an ACT at t or later could still consume it.
func (c *Chip) snapshotLatch(b *bank, t sim.Time) {
	if b.latchWL >= 0 && t-b.lastPre <= c.timing.RowCopyMaxGap {
		copy(b.latchBuf, b.latched)
		b.latched = b.latchBuf
	}
}

func (c *Chip) precharge(bankID int, t sim.Time) error {
	b := c.banks[bankID]
	if b.openWL < 0 {
		return nil // PRE on an idle bank is a legal no-op
	}
	wl := b.openWL
	tOn := t - b.openSince
	if tOn < c.timing.TCK {
		return fmt.Errorf("chip: PRE %v after ACT is below one tCK", tOn)
	}
	if over := tOn - c.timing.TRAS; over > 0 {
		b.press[wl] += float64(over)
	}
	// Latch the bitline state for a potential RowCopy.
	c.flush(b)
	b.latch(wl, c.rowStateFor(b, wl), t)
	b.openWL = -1
	return nil
}

func (c *Chip) read(bankID, col int, t sim.Time) (uint64, error) {
	b := c.banks[bankID]
	if err := c.checkColumnAccess(b, col, t); err != nil {
		return 0, err
	}
	c.flush(b)
	rs := c.rowStateFor(b, b.openWL)
	return c.burst.read(rs.charge, col, b.openHalf) ^ c.polarity(b), nil
}

// polarity returns the mask that converts between data and charge on
// the open row: all burst bits on anti-cell subarrays, none otherwise.
func (c *Chip) polarity(b *bank) uint64 {
	if c.topo.AntiCells(c.topo.SubarrayOf(b.openWL)) {
		return widthMask(c.cmap.DataWidth())
	}
	return 0
}

func widthMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

func (c *Chip) write(bankID, col int, data uint64, t sim.Time) error {
	b := c.banks[bankID]
	if err := c.checkColumnAccess(b, col, t); err != nil {
		return err
	}
	c.flush(b)
	rs := c.rowStateFor(b, b.openWL)
	c.burst.store(rs.charge, col, b.openHalf, c.burst.image(data^c.polarity(b)))
	return nil
}

func (c *Chip) checkColumnAccess(b *bank, col int, t sim.Time) error {
	if b.openWL < 0 {
		return fmt.Errorf("chip: column access with no open row")
	}
	if t-b.openSince < c.timing.TRCD {
		return fmt.Errorf("chip: column access %v after ACT violates tRCD (%v)",
			t-b.openSince, c.timing.TRCD)
	}
	if col < 0 || col >= c.cmap.Columns() {
		return fmt.Errorf("chip: column %d out of range [0,%d)", col, c.cmap.Columns())
	}
	return nil
}

// readBatch is the RD kernel: one open-row/timing/range check for the
// whole burst, then a straight gather loop.
func (c *Chip) readBatch(b sim.Batch, out []uint64) error {
	bank := c.banks[b.Bank]
	if len(out) < b.Count {
		return fmt.Errorf("chip: RD batch of %d wants %d output slots", b.Count, len(out))
	}
	if err := c.checkBatchColumns(bank, b); err != nil {
		return err
	}
	c.flush(bank)
	rs := c.rowStateFor(bank, bank.openWL)
	inv := c.polarity(bank)
	col := b.Col
	for i := 0; i < b.Count; i++ {
		out[i] = c.burst.read(rs.charge, col, bank.openHalf) ^ inv
		col += b.Stride
	}
	c.now = b.End()
	return nil
}

// writeBatch is the WR kernel. A burst is permuted into image order
// only when it differs from the previous one, so a broadcast or solid
// fill permutes once per batch. A batch that overwrites every cell of
// the wordline discards the faults parked on it; any other applies
// them first.
func (c *Chip) writeBatch(b sim.Batch) error {
	bank := c.banks[b.Bank]
	if err := c.checkBatchColumns(bank, b); err != nil {
		return err
	}
	if b.Col == 0 && b.Stride == 1 && b.Count == c.cmap.Columns() && c.burst.wholeRow[bank.openHalf] {
		bank.parked.rs = nil
	} else {
		c.flush(bank)
	}
	rs := c.rowStateFor(bank, bank.openWL)
	inv := c.polarity(bank)
	data := b.Data[0]
	img := c.burst.image(data ^ inv)
	col := b.Col
	for i := 0; i < b.Count; i++ {
		if len(b.Data) > 1 && b.Data[i] != data {
			data = b.Data[i]
			img = c.burst.image(data ^ inv)
		}
		c.burst.store(rs.charge, col, bank.openHalf, img)
		col += b.Stride
	}
	c.now = b.End()
	return nil
}

// checkBatchColumns validates a RD/WR burst once: open row, tRCD for
// the earliest command (the gap is non-negative, so the rest follow),
// and the column range at both ends of the stride walk.
func (c *Chip) checkBatchColumns(bank *bank, b sim.Batch) error {
	if err := c.checkColumnAccess(bank, b.Col, b.At); err != nil {
		return err
	}
	if last := b.Col + (b.Count-1)*b.Stride; last < 0 || last >= c.cmap.Columns() {
		return fmt.Errorf("chip: column %d out of range [0,%d)", last, c.cmap.Columns())
	}
	return nil
}

func (c *Chip) refresh(bankID int, t sim.Time) error {
	b := c.banks[bankID]
	if b.openWL >= 0 {
		return fmt.Errorf("chip: REF on bank %d with a row open", bankID)
	}
	// Lazy all-rows refresh: materialize and re-snapshot every row
	// that has state. Stateless rows are discharged and cannot decay.
	c.snapshotLatch(b, t) // the latched row is among them
	for _, wl := range b.touched {
		c.materialize(bankID, int(wl), t)
	}
	return nil
}

// --- fast hammer/press pulse path ---

// Pulse issues n back-to-back ACT(row)/PRE pairs, each keeping the row
// open for tOn with a tGap precharge gap, starting at the current
// time. It is semantically identical to the explicit command loop
// (asserted by tests) but costs one materialize of the row and at most
// one retention scan, whatever n.
//
// tGap must exceed RowCopyMaxGap: a hammer loop precharges fully
// between activations; use explicit commands to exercise RowCopy.
func (c *Chip) Pulse(bankID, row, n int, tOn, tGap sim.Time) error {
	if bankID < 0 || bankID >= len(c.banks) {
		return fmt.Errorf("chip: bank %d out of range", bankID)
	}
	return c.pulse(bankID, row, n, tOn, tGap)
}

func (c *Chip) pulse(bankID, row, n int, tOn, tGap sim.Time) error {
	if n <= 0 {
		return fmt.Errorf("chip: Pulse needs a positive count")
	}
	if tOn < c.timing.TCK {
		return fmt.Errorf("chip: Pulse tOn %v below one tCK", tOn)
	}
	if tGap <= c.timing.RowCopyMaxGap {
		return fmt.Errorf("chip: Pulse tGap %v would trigger RowCopy; use explicit commands", tGap)
	}
	b := c.banks[bankID]
	if b.openWL >= 0 {
		return fmt.Errorf("chip: Pulse on bank %d with row open", bankID)
	}
	if row < 0 || row >= c.topo.LogicalRows() {
		return fmt.Errorf("chip: row %d out of range", row)
	}
	wl, _ := c.topo.MapRow(row)

	// A hammer loop always begins from a fully precharged bank: align
	// the first activation past tRP so the train can never
	// charge-share with whatever row was sensed last.
	if earliest := b.lastPre + c.timing.TRP; c.now < earliest {
		c.now = earliest
	}
	rs := c.materialize(bankID, wl, c.now)
	// Each later ACT of the loop restores the row one period after the
	// one before, with no neighbour activated in between: retention
	// clears the cells whose retention time is below one period, at the
	// second ACT, and nothing after. The last ACT is the row's restore.
	period := tOn + tGap
	if n >= 2 && period > c.retMin {
		c.applyRetention(bankID, b, rs, wl, period)
	}
	rs.lastRestore = c.now + sim.Time(n-1)*period

	b.acts[wl] += int64(n)
	perWL := int64(1)
	if _, edge := c.topo.EdgePartnerWL(wl); edge {
		perWL = 2
	}
	b.wlActs += perWL * int64(n)
	if over := tOn - c.timing.TRAS; over > 0 {
		b.press[wl] += float64(over) * float64(n)
	}
	end := c.now + sim.Time(n)*period
	b.latch(wl, rs, end)
	c.now = end
	return nil
}

// --- fault materialization ---

// materialize applies all pending fault effects (hammer, press,
// retention) to a wordline and re-snapshots it as restored at time t.
func (c *Chip) materialize(bankID, wl int, t sim.Time) *rowState {
	f := c.restore(bankID, wl, t)
	c.apply(&f)
	return f.rs
}

// flush applies the fault application parked by the open row's ACT,
// if any. Every access that observes the open row's charge, or changes
// only part of it, calls it first.
func (c *Chip) flush(b *bank) {
	if b.parked.rs != nil {
		c.apply(&b.parked)
		b.parked.rs = nil
	}
}

// restore re-snapshots a wordline as restored at time t and returns the
// fault application it owes, without applying it.
func (c *Chip) restore(bankID, wl int, t sim.Time) faultApp {
	b := c.banks[bankID]
	fresh := b.rows[wl] == nil
	rs := c.rowStateFor(b, wl)

	var upWL, downWL = wl + 1, wl - 1
	upOK := upWL < c.topo.PhysRows() && c.topo.SameSubarray(wl, upWL)
	downOK := downWL >= 0 && c.topo.SameSubarray(wl, downWL)

	f := faultApp{bankID: bankID, wl: wl, rs: rs,
		elapsed: t - rs.lastRestore, upOK: upOK, downOK: downOK}
	if upOK {
		f.dUpActs = b.acts[upWL] - rs.snapUp
		f.dUpPress = b.press[upWL] - rs.pressUp
	}
	if downOK {
		f.dDownActs = b.acts[downWL] - rs.snapDown
		f.dDownPress = b.press[downWL] - rs.pressDown
	}

	// Classify which mechanisms can possibly flip a cell. The stress
	// floors in the fault model (HammerMinStress, PressMinStress) make
	// this exact, not heuristic: a per-direction factor never exceeds
	// MaxHammerFactor/MaxPressFactor, so a sub-floor bound means no
	// cell can flip under that mechanism regardless of its
	// neighborhood. This keeps incidental activations — row scans,
	// RowCopy sequences — at O(1), and reduces retention-only
	// materializations to a word-packed scan of charged cells.
	// Retention only clears charged cells, and a row this call creates
	// holds none, so a fresh row skips it outright; hammer and press
	// still apply, since they also flip discharged cells.
	f.hammerOn = float64(f.dUpActs+f.dDownActs)*c.maxHammerF >= c.fp.HammerMinStress
	f.pressOn = (f.dUpPress+f.dDownPress)*c.maxPressF >= c.fp.PressMinStress
	f.hasRet = !fresh && f.elapsed > c.retMin

	if upOK {
		rs.snapUp = b.acts[upWL]
		rs.pressUp = b.press[upWL]
	}
	if downOK {
		rs.snapDown = b.acts[downWL]
		rs.pressDown = b.press[downWL]
	}
	rs.lastRestore = t
	return f
}

// apply runs a restore's fault application through the kernels.
func (c *Chip) apply(f *faultApp) {
	if f.hammerOn || f.pressOn {
		c.applyFaults(f)
	} else if f.hasRet {
		// Retention is the only live mechanism and it only clears
		// charged cells, so scan the charge words and skip the empty
		// ones — the common case for rows touched long after their
		// last restore but never hammered.
		c.applyRetention(f.bankID, c.banks[f.bankID], f.rs, f.wl, f.elapsed)
	}
}

// applyFaults is the AIB kernel: retention first, then hammer and press
// on every candidate cell retention left standing.
func (c *Chip) applyFaults(f *faultApp) {
	bankID, b, rs, wl := f.bankID, c.banks[f.bankID], f.rs, f.wl
	hammerOn, pressOn, hasRet := f.hammerOn, f.pressOn, f.hasRet

	// A mechanism whose accumulated stress is below its floor cannot
	// flip any cell (its per-cell stress is bounded by the floor
	// check in HammerFlips/PressFlips); zeroing its deltas skips the
	// factor computation without changing any flip decision.
	var dUpActs, dDownActs int64
	var dUpPress, dDownPress float64
	if hammerOn {
		dUpActs, dDownActs = f.dUpActs, f.dDownActs
	}
	if pressOn {
		dUpPress, dDownPress = f.dUpPress, f.dDownPress
	}

	var upCharge, downCharge []uint64
	if f.upOK {
		if s := b.rows[wl+1]; s != nil {
			upCharge = s.charge
		}
	}
	if f.downOK {
		if s := b.rows[wl-1]; s != nil {
			downCharge = s.charge
		}
	}
	edge := c.topo.IsEdgeSubarray(c.topo.SubarrayOf(wl))

	// Candidate screening: a cell can only flip under a mechanism if
	// its cached uniform draw beats the probability its maximum
	// possible stress implies. The accumulated per-cell stress is
	// bounded by delta * MaxFactor (the same invariant the hammerOn/
	// pressOn gates rest on), widened by flipTabMargin to absorb float
	// rounding, so screening never drops a cell the scalar decision
	// would flip. Whole words whose minimum draw misses the bound are
	// skipped without touching their cells. A mechanism that is off
	// has no table and no candidates.
	var ham, prs *drawTab
	var hCand, pCand float64
	if hammerOn {
		ham = c.drawTabFor(faults.Hammer, bankID, b, wl)
		hCand = c.fp.HammerBaseP * (float64(dUpActs+dDownActs) * c.maxHammerF * flipTabMargin) / c.fp.HammerN0
	}
	if pressOn {
		prs = c.drawTabFor(faults.Press, bankID, b, wl)
		pCand = c.fp.PressBaseP * ((dUpPress + dDownPress) * c.maxPressF * flipTabMargin) / c.fp.PressS0
	}

	// No retention time lies below the retention floor (expf(u*ln) >= 1
	// for u >= 0), so an interval that does not exceed it decays nothing
	// and skips the screen — and the retention table.
	var ret retentionScan
	if hasRet {
		ret = c.newRetentionScan(bankID, b, wl, f.elapsed)
	}

	fm := c.flipMask
	any := false
	for w := 0; w < c.words; w++ {
		var flips uint64
		if hasRet {
			flips = ret.word(w, rs.charge[w])
		}
		if (ham != nil && ham.minW[w] < hCand) || (prs != nil && prs.minW[w] < pCand) {
			base := w << 6
			for i := 0; i < 64; i++ {
				bit := uint64(1) << uint(i)
				if flips&bit != 0 {
					continue // retention already flipped it
				}
				x := base + i
				hu, pu := 1.0, 1.0 // an off mechanism's bound is 0
				if ham != nil {
					hu = ham.u[x]
				}
				if prs != nil {
					pu = prs.u[x]
				}
				if !(hu < hCand || pu < pCand) {
					continue
				}
				hs, ps := c.cellStress(rs, wl, x,
					dUpActs, dDownActs, dUpPress, dDownPress,
					upCharge, downCharge, edge)
				if hs > 0 && c.fp.HammerFlipsU(hu, hs) {
					flips |= bit
				} else if ps > 0 && c.fp.PressFlipsU(pu, ps) {
					flips |= bit
				}
			}
		}
		fm[w] = flips
		if flips != 0 {
			any = true
		}
	}
	if any {
		for w, m := range fm {
			rs.charge[w] ^= m
		}
	}
}

// cellStress accumulates the hammer and press stress on one cell from
// both aggressor directions — the per-cell core of the fault model.
// It is the single implementation behind both the candidate-screened
// kernel above and the definition the equivalence tests replay, so the
// float accumulation order can never diverge between them.
func (c *Chip) cellStress(rs *rowState, wl, x int,
	dUpActs, dDownActs int64, dUpPress, dDownPress float64,
	upCharge, downCharge []uint64, edge bool) (hammerStress, pressStress float64) {

	charged := getBit(rs.charge, x)
	n := faults.Neighborhood{WL: wl, BL: x, Charged: charged, Edge: edge}
	for d := -2; d <= 2; d++ {
		xx := x + d
		if xx < 0 || xx >= c.prof.RowBits || !c.cmap.SameMAT(x, xx) {
			n.Vic[2+d] = faults.Absent
			n.Aggr[2+d] = faults.Absent
			continue
		}
		n.Vic[2+d] = faults.TriOf(getBit(rs.charge, xx))
		n.Aggr[2+d] = faults.Absent
	}

	if dUpActs > 0 || dUpPress > 0 {
		nu := n
		nu.Dir = geom.Upper
		for d := -2; d <= 2; d++ {
			if nu.Vic[2+d] != faults.Absent {
				nu.Aggr[2+d] = neighborTri(upCharge, x+d)
			}
		}
		if dUpActs > 0 {
			hammerStress += float64(dUpActs) * c.fp.HammerFactor(nu)
		}
		if dUpPress > 0 {
			pressStress += dUpPress * c.fp.PressFactor(nu)
		}
	}
	if dDownActs > 0 || dDownPress > 0 {
		nd := n
		nd.Dir = geom.Lower
		for d := -2; d <= 2; d++ {
			if nd.Vic[2+d] != faults.Absent {
				nd.Aggr[2+d] = neighborTri(downCharge, x+d)
			}
		}
		if dDownActs > 0 {
			hammerStress += float64(dDownActs) * c.fp.HammerFactor(nd)
		}
		if dDownPress > 0 {
			pressStress += dDownPress * c.fp.PressFactor(nd)
		}
	}
	return hammerStress, pressStress
}

func neighborTri(charges []uint64, x int) faults.Tri {
	if charges == nil {
		return 0 // unwritten rows are discharged
	}
	return faults.TriOf(getBit(charges, x))
}

// applyRetention clears the charged cells whose retention time the
// elapsed interval exceeds. Zero charge words — the vast majority on
// sparsely written rows — cost one compare; the rest go through the
// retention screen.
func (c *Chip) applyRetention(bankID int, b *bank, rs *rowState, wl int, elapsed sim.Time) {
	ret := c.newRetentionScan(bankID, b, wl, elapsed)
	for w, word := range rs.charge {
		if word != 0 {
			rs.charge[w] = word &^ ret.word(w, word)
		}
	}
}

// --- test/inspection helpers ---

// InspectCharge returns the raw stored charge of a cell without
// materializing pending faults. That includes the faults an ACT parked
// on a row that is still open: they are applied at the row's first RD,
// partial WR or PRE. For tests and ground-truth validation only;
// probes must use RD.
func (c *Chip) InspectCharge(bankID, wl, x int) bool {
	b := c.banks[bankID]
	rs := b.rows[wl]
	if rs == nil {
		return false
	}
	return getBit(rs.charge, x)
}

// TouchedRows returns how many wordlines hold state in a bank.
func (c *Chip) TouchedRows(bankID int) int { return len(c.banks[bankID].touched) }

// --- bit helpers ---

func getBit(words []uint64, x int) bool {
	return words[x>>6]&(1<<uint(x&63)) != 0
}
