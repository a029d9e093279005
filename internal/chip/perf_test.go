package chip

import (
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// rig is the benchmark counterpart of tb: a command driver with legal
// timing that panics on errors instead of needing a *testing.T, so the
// same helpers serve benchmarks and AllocsPerRun bodies.
type rig struct {
	c  *Chip
	at sim.Time
}

func newRig(seed uint64) *rig {
	return &rig{c: MustNew(topo.Small(), seed)}
}

func (r *rig) exec(cmd sim.Command) uint64 {
	cmd.At = r.at
	v, err := r.c.Exec(cmd)
	if err != nil {
		panic(err)
	}
	return v
}

func (r *rig) act(bank, row int) {
	r.at += r.c.Timing().TRP + sim.Nanosecond
	r.exec(sim.Command{Op: sim.ACT, Bank: bank, Row: row})
}

func (r *rig) pre(bank int) {
	r.at += r.c.Timing().TRAS
	r.exec(sim.Command{Op: sim.PRE, Bank: bank})
}

func (r *rig) writeRow(bank, row int, data uint64) {
	r.act(bank, row)
	for col := 0; col < r.c.Columns(); col++ {
		r.at += r.c.Timing().TRCD
		r.exec(sim.Command{Op: sim.WR, Bank: bank, Col: col, Data: data})
	}
	r.pre(bank)
}

// readRowXor reads every column and folds the bursts together — a
// full-row readback with no output buffer, so guard bodies stay
// allocation-free by construction.
func (r *rig) readRowXor(bank, row int) uint64 {
	r.act(bank, row)
	var acc uint64
	for col := 0; col < r.c.Columns(); col++ {
		r.at += r.c.Timing().TRCD
		acc ^= r.exec(sim.Command{Op: sim.RD, Bank: bank, Col: col})
	}
	r.pre(bank)
	return acc
}

// hammerCycle is one warmed measurement iteration: refresh the victim
// and aggressor patterns, hammer, read the victim back. The readback's
// ACT is the hammer-live materialize the word-packed kernel serves.
func (r *rig) hammerCycle(victim, aggr, acts int, data uint64) uint64 {
	r.writeRow(0, victim, data)
	r.writeRow(0, aggr, 0)
	r.at += sim.Nanosecond
	if err := r.c.AdvanceTo(r.at); err != nil {
		panic(err)
	}
	if err := r.c.Pulse(0, aggr, acts, r.c.Timing().TRAS, r.c.Timing().TRP); err != nil {
		panic(err)
	}
	r.at = r.c.Now()
	return r.readRowXor(0, victim)
}

// retentionCycle is one retention-scan iteration: rewrite the victim,
// wait past the retention floor, read it back (a retention-only
// materialize over a dense row).
func (r *rig) retentionCycle(victim int, wait sim.Time, data uint64) uint64 {
	r.writeRow(0, victim, data)
	r.at += wait
	if err := r.c.AdvanceTo(r.at); err != nil {
		panic(err)
	}
	return r.readRowXor(0, victim)
}

func perfRows(r *rig) (victim, aggr int) {
	tp := r.c.Topology()
	return tp.UnmapRow(31, 0), tp.UnmapRow(32, 0)
}

const perfActs = 30_000 // comfortably above the hammer stress floor

func allOnes(r *rig) uint64 {
	return uint64(1)<<uint(r.c.DataWidth()) - 1
}

// A warmed hammer measurement cycle must not allocate: the row-state
// arena, the flip-threshold tables, and the latch/flip scratch buffers
// are all built during the first cycles and reused forever after.
func TestWarmHammerCycleZeroAlloc(t *testing.T) {
	r := newRig(11)
	victim, aggr := perfRows(r)
	data := allOnes(r)
	for i := 0; i < 2; i++ {
		r.hammerCycle(victim, aggr, perfActs, data)
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.hammerCycle(victim, aggr, perfActs, data)
	})
	if allocs != 0 {
		t.Fatalf("warmed hammer cycle allocates %.0f objects per run; the measurement path must be allocation-free", allocs)
	}
}

// A warmed retention scan must not allocate either: the retention draw
// table is built on the first scan and consulted thereafter.
func TestWarmRetentionScanZeroAlloc(t *testing.T) {
	r := newRig(12)
	victim, _ := perfRows(r)
	data := allOnes(r)
	wait := 300 * sim.Millisecond
	for i := 0; i < 2; i++ {
		r.retentionCycle(victim, wait, data)
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.retentionCycle(victim, wait, data)
	})
	if allocs != 0 {
		t.Fatalf("warmed retention scan allocates %.0f objects per run", allocs)
	}
}

func BenchmarkMaterialize(b *testing.B) {
	r := newRig(11)
	victim, aggr := perfRows(r)
	data := allOnes(r)
	for i := 0; i < 2; i++ {
		r.hammerCycle(victim, aggr, perfActs, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.hammerCycle(victim, aggr, perfActs, data)
	}
}

func BenchmarkRetentionScan(b *testing.B) {
	r := newRig(12)
	victim, _ := perfRows(r)
	data := allOnes(r)
	wait := 300 * sim.Millisecond
	for i := 0; i < 2; i++ {
		r.retentionCycle(victim, wait, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.retentionCycle(victim, wait, data)
	}
}

// rowBatch runs one whole-row RD or WR batch on an open row.
func (r *rig) rowBatch(op sim.Op, bank int, data, out []uint64) {
	tm := r.c.Timing()
	b := sim.Batch{Op: op, At: r.at + tm.TRCD, Gap: tm.TRCD,
		Bank: bank, Stride: 1, Count: r.c.Columns(), Data: data}
	if err := r.c.ExecBatch(b, out); err != nil {
		panic(err)
	}
	r.at = r.c.Now()
}

// BenchmarkReadRow times the RD kernel: ACT, one whole-row RD batch,
// PRE. ns/burst is the gather cost per column.
func BenchmarkReadRow(b *testing.B) {
	r := newRig(13)
	victim, _ := perfRows(r)
	r.writeRow(0, victim, 0x5a5a5a5a)
	out := make([]uint64, r.c.Columns())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.act(0, victim)
		r.rowBatch(sim.RD, 0, nil, out)
		r.pre(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.c.Columns()), "ns/burst")
}

// BenchmarkWriteRow times the WR kernel with a distinct burst per
// column: ACT, one whole-row WR batch, PRE.
func BenchmarkWriteRow(b *testing.B) {
	r := newRig(13)
	victim, _ := perfRows(r)
	data := make([]uint64, r.c.Columns())
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.act(0, victim)
		r.rowBatch(sim.WR, 0, data, nil)
		r.pre(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.c.Columns()), "ns/burst")
}

// BenchmarkRewriteHammeredRow times the rewrite an AIB measurement
// starts with, on an uncoupled device: a neighbour hammered past the
// stress floor, then ACT, one whole-row WR batch and PRE on the victim.
// The batch overwrites every cell of the wordline, so the hammer's
// flips, which the victim's ACT parked, are dropped, never computed.
func BenchmarkRewriteHammeredRow(b *testing.B) {
	r := &rig{c: MustNew(uncoupledSmall(), 14)}
	victim, aggr := perfRows(r)
	data := []uint64{allOnes(r)}
	rewrite := func() {
		r.at += sim.Nanosecond
		if err := r.c.AdvanceTo(r.at); err != nil {
			panic(err)
		}
		if err := r.c.Pulse(0, aggr, 300_000, r.c.Timing().TRAS, r.c.Timing().TRP); err != nil {
			panic(err)
		}
		r.at = r.c.Now()
		r.act(0, victim)
		r.rowBatch(sim.WR, 0, data, nil)
		r.pre(0)
	}
	rewrite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewrite()
	}
}
