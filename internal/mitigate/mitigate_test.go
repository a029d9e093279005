package mitigate

import (
	"testing"

	"dramscope/internal/chip"
	"dramscope/internal/host"
	"dramscope/internal/topo"
)

// Threshold note: the simulator's fault model scales flip rates up for
// statistics (README.md "Model notes"), which scales the minimum first-flip count
// down; tracker thresholds here scale with it. The stress floor
// (HammerMinStress = 5000 factor-weighted activations) plays the role
// of the minimum RowHammer threshold: a defense is airtight when no
// wordline can accumulate that much unrefreshed stress, and the
// coupled-row bypass works precisely because two below-threshold
// address budgets combine past the floor on one wordline (§VI-A).
const (
	safeThreshold = 2048 // per-window budget a tracker allows one row
	windowSlices  = 2047 // what the attacker spends per address per window
	attackWindows = 2    // flips are deterministic; one window decides
)

// pair is one coupled aggressor with its four victim rows (both
// neighbors, both halves).
type pair struct {
	aggr, partner int
	victims       []int
}

// bench builds a coupled device plus aggressor/victim bookkeeping
// (ground truth used for test verification only).
type bench struct {
	h     *host.Host
	c     *chip.Chip
	pairs []pair
}

func newBench(t *testing.T, npairs int) *bench {
	t.Helper()
	c := chip.MustNew(topo.Small(), 21)
	h := host.New(c)
	tp := c.Topology()
	b := &bench{h: h, c: c}
	for k := 0; k < npairs; k++ {
		aggrWL := 68 + 3*k // march through subarray 1 (interior)
		if aggrWL+1 >= 159 {
			t.Fatalf("too many pairs for the small device: %d", npairs)
		}
		p := pair{aggr: tp.UnmapRow(aggrWL, 0)}
		partner, ok := tp.CoupledPartner(p.aggr)
		if !ok {
			t.Fatal("Small profile should be coupled")
		}
		p.partner = partner
		for _, vwl := range []int{aggrWL - 1, aggrWL + 1} {
			p.victims = append(p.victims, tp.UnmapRow(vwl, 0), tp.UnmapRow(vwl, 1))
		}
		b.pairs = append(b.pairs, p)
	}
	return b
}

func (b *bench) arm(t *testing.T) uint64 {
	t.Helper()
	ones := uint64(1)<<uint(b.h.DataWidth()) - 1
	for _, p := range b.pairs {
		for _, v := range p.victims {
			if err := b.h.FillRow(0, v, ones); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.h.FillRow(0, p.aggr, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.h.FillRow(0, p.partner, 0); err != nil {
			t.Fatal(err)
		}
	}
	return ones
}

func (b *bench) victimFlips(t *testing.T, ones uint64) int {
	t.Helper()
	flips := 0
	for _, p := range b.pairs {
		for _, v := range p.victims {
			got, err := b.h.ReadRow(0, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range got {
				d := w ^ ones
				for ; d != 0; d &= d - 1 {
					flips++
				}
			}
		}
	}
	return flips
}

const manyPairs = 24

func TestTrackerStopsSingleRowAttack(t *testing.T) {
	b := newBench(t, manyPairs)
	ones := b.arm(t)
	d := NewDefense(b.h, 0, safeThreshold)
	for w := 0; w < attackWindows; w++ {
		for _, p := range b.pairs {
			if err := d.Activations(p.aggr, windowSlices); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndWindow(); err != nil {
			t.Fatal(err)
		}
	}
	if flips := b.victimFlips(t, ones); flips != 0 {
		t.Fatalf("tracked single-row attack still flipped %d bits", flips)
	}
}

func TestUnprotectedAttackFlips(t *testing.T) {
	b := newBench(t, 1)
	ones := b.arm(t)
	if err := b.h.Hammer(0, b.pairs[0].aggr, 1_200_000); err != nil {
		t.Fatal(err)
	}
	if flips := b.victimFlips(t, ones); flips == 0 {
		t.Fatal("unprotected attack should flip bits (test power check)")
	}
}

// §VI-A: splitting a per-window budget across a coupled pair keeps
// every per-address counter below threshold while the shared wordline
// accumulates twice the allowed stress — past the minimum flip floor.
func TestCoupledSplitBypassesNaiveTracker(t *testing.T) {
	b := newBench(t, manyPairs)
	ones := b.arm(t)
	d := NewDefense(b.h, 0, safeThreshold)
	for w := 0; w < attackWindows; w++ {
		for _, p := range b.pairs {
			if err := d.Activations(p.aggr, windowSlices); err != nil {
				t.Fatal(err)
			}
			if err := d.Activations(p.partner, windowSlices); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndWindow(); err != nil {
			t.Fatal(err)
		}
	}
	if flips := b.victimFlips(t, ones); flips == 0 {
		t.Fatal("split attack should bypass the naive tracker")
	}
}

// §VI-B: a coupled-aware tracker (one counter per wordline, both
// neighborhoods refreshed) stops the same split attack. The tracker
// also needs the device's physical row order (the remap DRAMScope
// recovers); a row±1 guess would miss victims on Mfr. A-style parts.
func TestCoupledAwareTrackerStopsSplit(t *testing.T) {
	b := newBench(t, manyPairs)
	ones := b.arm(t)
	d := NewDefense(b.h, 0, safeThreshold)
	d.CoupledDistance = b.h.Rows() / 2
	tp := b.c.Topology()
	d.VictimsOf = func(row int) []int {
		wl, half := tp.MapRow(row)
		var out []int
		for _, nwl := range []int{wl - 1, wl + 1} {
			if nwl >= 0 && nwl < tp.PhysRows() {
				out = append(out, tp.UnmapRow(nwl, half))
			}
		}
		return out
	}
	for w := 0; w < attackWindows; w++ {
		for _, p := range b.pairs {
			if err := d.Activations(p.aggr, windowSlices); err != nil {
				t.Fatal(err)
			}
			if err := d.Activations(p.partner, windowSlices); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndWindow(); err != nil {
			t.Fatal(err)
		}
	}
	if flips := b.victimFlips(t, ones); flips != 0 {
		t.Fatalf("coupled-aware tracker failed: %d flips", flips)
	}
}

// §VI-A: MC-side row swap relocates only the tracked address; the
// coupled alias keeps aliasing the original wordline, so hammering the
// partner still flips the original victims.
func TestRowSwapBypassedByCoupledAlias(t *testing.T) {
	b := newBench(t, 1)
	ones := b.arm(t)
	s := NewRowSwap(b.h, 0, safeThreshold, 400)
	// Attack 1: hammer the tracked address; the aggressor is swapped
	// away before any wordline accumulates dangerous stress.
	if err := s.Activations(b.pairs[0].aggr, 100_000); err != nil {
		t.Fatal(err)
	}
	if flips := b.victimFlips(t, ones); flips != 0 {
		t.Fatalf("row swap failed against the tracked address: %d flips", flips)
	}
	// Attack 2: hammer the coupled alias, which the swap layer never
	// relocated. The original victims flip.
	ones = b.arm(t)
	if err := b.h.Hammer(0, b.pairs[0].partner, 1_200_000); err != nil {
		t.Fatal(err)
	}
	if flips := b.victimFlips(t, ones); flips == 0 {
		t.Fatal("coupled alias should bypass MC-side row swap")
	}
}

// §VI-B: DRFM keys on the physical wordline, so refreshing via the
// sampled row covers both coupled aliases' victims even under a split
// attack.
func TestDRFMCoversCoupledPair(t *testing.T) {
	b := newBench(t, 4)
	ones := b.arm(t)
	drfm := &DRFM{C: b.c, H: b.h, Bank: 0}
	const slice = 1500 // per alias between DRFMs: combined stays under the floor
	for w := 0; w < 20; w++ {
		for _, p := range b.pairs {
			if err := b.h.Hammer(0, p.aggr, slice); err != nil {
				t.Fatal(err)
			}
			if err := b.h.Hammer(0, p.partner, slice); err != nil {
				t.Fatal(err)
			}
			// The MC samples one alias; the DRAM resolves physical
			// neighbors itself.
			if err := drfm.Refresh(p.partner); err != nil {
				t.Fatal(err)
			}
		}
	}
	if flips := b.victimFlips(t, ones); flips != 0 {
		t.Fatalf("DRFM failed to cover the coupled pair: %d flips", flips)
	}
}

func TestScramblerRandomizesStoredData(t *testing.T) {
	b := newBench(t, 1)
	s := Scrambler{Key: 99}
	// An all-zero row written through the scrambler stores its masks.
	width := uint64(1)<<uint(b.h.DataWidth()) - 1
	if err := b.h.WriteRow(0, 200, func(col int) uint64 { return s.Mask(0, 200, col) & width }); err != nil {
		t.Fatal(err)
	}
	// The raw (unscrambled) read must look random, not solid.
	raw, err := b.h.ReadRow(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range raw {
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	total := b.h.Columns() * b.h.DataWidth()
	if ones < total/3 || ones > 2*total/3 {
		t.Fatalf("stored image not randomized: %d/%d ones", ones, total)
	}
	// Masks must differ across rows AND columns (row+column keying,
	// the property §VI-B demands).
	if s.Mask(0, 1, 5) == s.Mask(0, 2, 5) {
		t.Fatal("mask must vary with row")
	}
	if s.Mask(0, 1, 5) == s.Mask(0, 1, 6) {
		t.Fatal("mask must vary with column")
	}
}
