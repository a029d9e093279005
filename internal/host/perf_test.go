package host

import (
	"testing"

	"dramscope/internal/chip"
	"dramscope/internal/topo"
)

// warmBatch is one warmed measurement iteration as the AIB harness
// drives it: rewrite the victim and aggressor patterns, hammer, read
// the victim back into a reused buffer.
func warmBatch(h *Host, victim, aggr int, pattern, zeros func(int) uint64, got []uint64) {
	if err := h.WriteRow(0, victim, pattern); err != nil {
		panic(err)
	}
	if err := h.WriteRow(0, aggr, zeros); err != nil {
		panic(err)
	}
	if err := h.Hammer(0, aggr, 30_000); err != nil {
		panic(err)
	}
	if err := h.ReadRowInto(0, victim, got); err != nil {
		panic(err)
	}
}

// A warmed measurement batch through the host must not allocate: the
// host's write scratch, the chip's row-state arena, and the cached
// flip tables absorb every buffer after the first cycles. It runs on a
// coupled device, whose row rewrites apply the faults their ACT
// parked, and on an uncoupled one, whose whole-row rewrites drop them.
func TestWarmMeasurementBatchZeroAlloc(t *testing.T) {
	uncoupled := topo.Small()
	uncoupled.Coupled = false
	for _, p := range []topo.Profile{topo.Small(), uncoupled} {
		h := New(chip.MustNew(p, 9))
		tp := h.Target().(*chip.Chip).Topology()
		victim, aggr := tp.UnmapRow(31, 0), tp.UnmapRow(32, 0)
		all1 := uint64(1)<<uint(h.DataWidth()) - 1
		pattern := func(int) uint64 { return all1 }
		zeros := func(int) uint64 { return 0 }
		got := make([]uint64, h.Columns())
		for i := 0; i < 2; i++ {
			warmBatch(h, victim, aggr, pattern, zeros, got)
		}
		allocs := testing.AllocsPerRun(20, func() {
			warmBatch(h, victim, aggr, pattern, zeros, got)
		})
		if allocs != 0 {
			t.Fatalf("coupled=%v: warmed measurement batch allocates %.0f objects per run; the host hot path must be allocation-free", p.Coupled, allocs)
		}
	}
}
