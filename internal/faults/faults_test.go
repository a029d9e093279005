package faults

import (
	"math"
	"testing"
	"testing/quick"

	"dramscope/internal/geom"
	"dramscope/internal/rng"
	"dramscope/internal/sim"
)

func params() Params { return Default(42) }

// neighborhood with solid victim and solid opposite aggressor — the
// paper's baseline condition for Fig. 14.
func baseline(wl, bl int, dir geom.Dir, charged bool) Neighborhood {
	self := TriOf(charged)
	opp := 1 - self
	n := Neighborhood{WL: wl, BL: bl, Dir: dir, Charged: charged}
	for i := range n.Vic {
		n.Vic[i] = self
		n.Aggr[i] = opp
	}
	return n
}

// susceptibleBaseline returns a baseline neighborhood for a cell that
// IS susceptible to the given direction (adjusting BL parity).
func susceptibleBaseline(charged bool, dir geom.Dir) Neighborhood {
	for bl := 0; bl < 2; bl++ {
		if geom.HammerFlips(0, bl, dir, charged) {
			return baseline(0, bl, dir, charged)
		}
	}
	panic("unreachable: one parity must be susceptible")
}

// The calibrated set keeps every rate, scale and factor positive and
// its retention bounds ordered.
func TestDefaultValidates(t *testing.T) {
	p := params()
	for name, v := range map[string]float64{
		"BaseScale": p.BaseScale, "HammerBaseP": p.HammerBaseP, "HammerN0": p.HammerN0,
		"HammerMinStress": p.HammerMinStress, "PressBaseP": p.PressBaseP, "PressS0": p.PressS0,
		"PressMinStress": p.PressMinStress, "PressPassingRate": p.PressPassingRate,
		"PressNeighboringRate": p.PressNeighboringRate, "RetentionMinSec": p.RetentionMinSec,
	} {
		if v <= 0 {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
	if p.RetentionMaxSec < p.RetentionMinSec {
		t.Errorf("retention bounds inverted: [%v, %v]", p.RetentionMinSec, p.RetentionMaxSec)
	}
	for _, pair := range [][2]float64{p.HammerRate, p.VicBoost1, p.VicBoost2,
		p.AggrDamp0, p.AggrDamp1, p.AggrDamp2, p.CrossBoost2, p.EdgeDamp} {
		if pair[0] <= 0 || pair[1] <= 0 {
			t.Errorf("factor pair %v, want both positive", pair)
		}
	}
}

func TestHammerFactorZeroForImmuneGeometry(t *testing.T) {
	p := params()
	n := susceptibleBaseline(true, geom.Upper)
	// The same cell must be immune from the other direction (O10).
	n.Dir = geom.Lower
	if f := p.HammerFactor(n); f != 0 {
		t.Fatalf("immune direction must give factor 0, got %v", f)
	}
}

func TestHammerFactorBaselineIsRate(t *testing.T) {
	p := params()
	for _, charged := range []bool{false, true} {
		n := susceptibleBaseline(charged, geom.Upper)
		want := p.HammerRate[chargeIdx(charged)]
		if f := p.HammerFactor(n); math.Abs(f-want) > 1e-12 {
			t.Errorf("charged=%v: baseline factor %v, want %v", charged, f, want)
		}
	}
}

// Fig. 14a: flipping both distance-1 victim cells to the opposite
// value boosts BER by VicBoost1; distance-2 by VicBoost2.
func TestVictimBoostPairs(t *testing.T) {
	p := params()
	for _, charged := range []bool{false, true} {
		ci := chargeIdx(charged)
		base := susceptibleBaseline(charged, geom.Upper)
		f0 := p.HammerFactor(base)

		n1 := base
		n1.Vic[1], n1.Vic[3] = 1-TriOf(charged), 1-TriOf(charged)
		if got := p.HammerFactor(n1) / f0; math.Abs(got-p.VicBoost1[ci]) > 1e-9 {
			t.Errorf("charged=%v: dist-1 pair boost %v, want %v", charged, got, p.VicBoost1[ci])
		}

		n2 := base
		n2.Vic[0], n2.Vic[4] = 1-TriOf(charged), 1-TriOf(charged)
		// The aggressor is solid opposite, so the distance-2 columns
		// are vertically matched (aggr == vic there): pure VicBoost2,
		// no cross bonus — mirroring the paper's Fig. 14a setup.
		if got := p.HammerFactor(n2) / f0; math.Abs(got-p.VicBoost2[ci]) > 1e-9 {
			t.Errorf("charged=%v: dist-2 pair boost %v, want %v", charged, got, p.VicBoost2[ci])
		}
	}
}

// Fig. 14b: aggressor cells matching same-valued victim columns damp
// the attack.
func TestAggressorDampingPairs(t *testing.T) {
	p := params()
	for _, charged := range []bool{false, true} {
		ci := chargeIdx(charged)
		self := TriOf(charged)
		base := susceptibleBaseline(charged, geom.Upper)
		f0 := p.HammerFactor(base)

		n0 := base
		n0.Aggr[2] = self
		if got := p.HammerFactor(n0) / f0; math.Abs(got-p.AggrDamp0[ci]) > 1e-9 {
			t.Errorf("charged=%v: center damp %v, want %v", charged, got, p.AggrDamp0[ci])
		}

		n1 := base
		n1.Aggr[1], n1.Aggr[3] = self, self
		if got := p.HammerFactor(n1) / f0; math.Abs(got-p.AggrDamp1[ci]) > 1e-9 {
			t.Errorf("charged=%v: dist-1 damp %v, want %v", charged, got, p.AggrDamp1[ci])
		}

		n2 := base
		n2.Aggr[0], n2.Aggr[4] = self, self
		if got := p.HammerFactor(n2) / f0; math.Abs(got-p.AggrDamp2[ci]) > 1e-9 {
			t.Errorf("charged=%v: dist-2 damp %v, want %v", charged, got, p.AggrDamp2[ci])
		}
	}
}

// The adversarial compound arrangement: distance-2 victim opposite AND
// aggressor vertically opposite there -> VicBoost2 * CrossBoost2.
func TestCrossBoost(t *testing.T) {
	p := params()
	for _, charged := range []bool{false, true} {
		ci := chargeIdx(charged)
		self := TriOf(charged)
		base := susceptibleBaseline(charged, geom.Upper)
		f0 := p.HammerFactor(base)

		n := base
		n.Vic[0], n.Vic[4] = 1-self, 1-self
		n.Aggr[0], n.Aggr[4] = self, self // vertically opposite to vic there
		want := p.VicBoost2[ci] * p.CrossBoost2[ci]
		if got := p.HammerFactor(n) / f0; math.Abs(got-want) > 1e-9 {
			t.Errorf("charged=%v: cross boost %v, want %v", charged, got, want)
		}
	}
}

func TestAbsentNeighborsNeutral(t *testing.T) {
	p := params()
	base := susceptibleBaseline(true, geom.Upper)
	n := base
	for i := range n.Vic {
		if i != 2 {
			n.Vic[i] = Absent
			n.Aggr[i] = Absent
		}
	}
	if p.HammerFactor(n) != p.HammerFactor(base) {
		t.Fatal("absent neighbors must be neutral (MAT-boundary isolation)")
	}
}

func TestEdgeDamping(t *testing.T) {
	p := params()
	base := susceptibleBaseline(true, geom.Upper) // aggr solid 0
	edge := base
	edge.Edge = true
	got := p.HammerFactor(edge) / p.HammerFactor(base)
	if math.Abs(got-p.EdgeDamp[0]) > 1e-9 {
		t.Fatalf("edge damp with discharged aggressor = %v, want %v", got, p.EdgeDamp[0])
	}
	// Charged aggressor damps more (O6).
	base2 := susceptibleBaseline(false, geom.Upper) // aggr solid 1
	edge2 := base2
	edge2.Edge = true
	got2 := p.HammerFactor(edge2) / p.HammerFactor(base2)
	if math.Abs(got2-p.EdgeDamp[1]) > 1e-9 {
		t.Fatalf("edge damp with charged aggressor = %v, want %v", got2, p.EdgeDamp[1])
	}
	if got2 >= got {
		t.Fatal("charged aggressor must damp edge subarrays more than discharged")
	}
}

func TestPressFactorOnlyCharged(t *testing.T) {
	p := params()
	n := baseline(0, 0, geom.Upper, false)
	if p.PressFactor(n) != 0 {
		t.Fatal("RowPress must not affect discharged cells")
	}
}

func TestPressFactorGateRates(t *testing.T) {
	p := params()
	// Alternating cells see alternating gate types for a fixed
	// direction, so press factors alternate 2:1 (O7, Fig. 13).
	n0 := baseline(0, 0, geom.Upper, true)
	n1 := baseline(0, 1, geom.Upper, true)
	f0, f1 := p.PressFactor(n0), p.PressFactor(n1)
	if f0 == f1 {
		t.Fatal("press factor must alternate with bitline parity")
	}
	ratio := f0 / f1
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if math.Abs(ratio-2.0) > 1e-9 {
		t.Fatalf("press gate-rate ratio %v, want 2.0", ratio)
	}
}

func TestPressReversals(t *testing.T) {
	p := params()
	f := func(bl uint8) bool {
		b := int(bl)
		up := p.PressFactor(baseline(0, b, geom.Upper, true))
		down := p.PressFactor(baseline(0, b, geom.Lower, true))
		odd := p.PressFactor(baseline(1, b, geom.Upper, true))
		// O7: reversing direction or row parity swaps the pattern.
		return up != down && up != odd && down == odd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHammerThresholdMatchesFlips(t *testing.T) {
	p := params()
	n := susceptibleBaseline(true, geom.Upper)
	f := p.HammerFactor(n)
	for x := 0; x < 50; x++ {
		th := p.HammerThreshold(0, 10, x, f)
		if th <= 0 {
			t.Fatalf("threshold must be positive, got %v", th)
		}
		// Just below: no flip; just above: flip.
		if p.HammerFlips(0, 10, x, f*th*0.999) {
			t.Fatalf("cell %d flipped below threshold", x)
		}
		if !p.HammerFlips(0, 10, x, f*th*1.001) {
			t.Fatalf("cell %d did not flip above threshold", x)
		}
	}
}

func TestHammerStressFloor(t *testing.T) {
	p := params()
	// Below the floor nothing flips, no matter how weak the cell.
	for x := 0; x < 100000; x++ {
		if p.HammerFlips(0, 3, x, p.HammerMinStress*0.99) {
			t.Fatal("flip below the stress floor")
		}
	}
	if p.PressFlips(0, 3, 0, p.PressMinStress*0.5) {
		t.Fatal("press flip below the stress floor")
	}
}

func TestHammerThresholdRespectsFloor(t *testing.T) {
	p := params()
	// A cell with a tiny draw still cannot flip before the floor.
	for x := 0; x < 5000; x++ {
		th := p.HammerThreshold(0, 9, x, 1.0)
		if th < p.HammerMinStress {
			t.Fatalf("threshold %v below floor %v", th, p.HammerMinStress)
		}
	}
}

func TestMaxFactorsBound(t *testing.T) {
	p := params()
	maxH, maxP := p.MaxHammerFactor(), p.MaxPressFactor()
	for charged := 0; charged < 2; charged++ {
		for bl := 0; bl < 2; bl++ {
			for vic := 0; vic < 32; vic++ {
				for aggr := 0; aggr < 32; aggr++ {
					n := Neighborhood{WL: 0, BL: bl, Dir: geom.Upper, Charged: charged == 1}
					for i := 0; i < 5; i++ {
						n.Vic[i] = Tri((vic >> uint(i)) & 1)
						n.Aggr[i] = Tri((aggr >> uint(i)) & 1)
					}
					n.Vic[2] = TriOf(n.Charged)
					if f := p.HammerFactor(n); f > maxH {
						t.Fatalf("hammer factor %v exceeds bound %v", f, maxH)
					}
					if f := p.PressFactor(n); f > maxP {
						t.Fatalf("press factor %v exceeds bound %v", f, maxP)
					}
				}
			}
		}
	}
}

func TestHammerThresholdInfiniteWhenImmune(t *testing.T) {
	p := params()
	if !math.IsInf(p.HammerThreshold(0, 0, 0, 0), 1) {
		t.Fatal("immune cells must have infinite threshold")
	}
}

// The linear model: flip fraction over a large population matches
// BaseP * stress / N0.
func TestHammerFlipFractionLinear(t *testing.T) {
	p := params()
	const cells = 200000
	acts := 300000.0
	for _, f := range []float64{0.5, 1.0, 1.7} {
		flips := 0
		for x := 0; x < cells; x++ {
			if p.HammerFlips(0, 7, x, f*acts) {
				flips++
			}
		}
		got := float64(flips) / cells
		want := p.HammerBaseP * f
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("factor %v: flip fraction %v, want ~%v", f, got, want)
		}
	}
}

func TestRetentionOnlyChargedAndMonotone(t *testing.T) {
	p := params()
	if p.RetentionFlips(0, 0, 0, false, sim.Time(1e18)) {
		t.Fatal("discharged cells cannot lose charge")
	}
	// No failures within the refresh window.
	for x := 0; x < 10000; x++ {
		if p.RetentionFlips(0, 0, x, true, 64*sim.Millisecond) {
			t.Fatal("no retention failures within tREFW")
		}
	}
	// Nearly all cells fail after an extreme wait.
	fails := 0
	for x := 0; x < 10000; x++ {
		if p.RetentionFlips(0, 0, x, true, sim.Time(2e6)*sim.Second) {
			fails++
		}
	}
	if fails < 9000 {
		t.Fatalf("only %d/10000 cells failed after ~max retention", fails)
	}
}

func TestRetentionTimeDeterministic(t *testing.T) {
	p := params()
	if p.RetentionTime(1, 2, 3) != p.RetentionTime(1, 2, 3) {
		t.Fatal("retention time must be deterministic")
	}
	if p.RetentionTime(1, 2, 3) == p.RetentionTime(1, 2, 4) {
		t.Fatal("neighboring cells should draw different retention times")
	}
}

// The retention screen must decide every cell exactly as the scalar
// RetentionFlips does: far from the threshold by its compares, at the
// threshold (elapsed within a picosecond of the cell's retention time)
// by the exact path inside the band.
func TestRetentionFlipsUMatchesRetentionFlips(t *testing.T) {
	for _, p := range []Params{params(), func() Params {
		p := params()
		p.RetentionMaxSec = p.RetentionMinSec // degenerate: ln(max/min) = 0
		return p
	}()} {
		scale := p.RetentionScale()
		inBand := 0
		check := func(x int, elapsed sim.Time) {
			scr := NewRetentionScreen(scale, elapsed)
			u := p.RetentionU(3, 7, x)
			if scr.Flip <= u && u <= scr.Keep {
				inBand++
			}
			if got, want := RetentionFlipsU(&scr, u), p.RetentionFlips(3, 7, x, true, elapsed); got != want {
				t.Fatalf("min %v max %v cell %d elapsed %v: screen %v, scalar %v",
					p.RetentionMinSec, p.RetentionMaxSec, x, elapsed, got, want)
			}
		}
		for x := 0; x < 4000; x++ {
			rt := p.RetentionTime(3, 7, x)
			if got := RetentionTimeU(scale, p.RetentionU(3, 7, x)); got != rt {
				t.Fatalf("cell %d: RetentionTimeU %v != RetentionTime %v", x, got, rt)
			}
			for _, d := range []sim.Time{-1, 0, 1} {
				check(x, rt+d)
			}
			check(x, sim.Time(x)*37*sim.Millisecond)
		}
		check(0, 0)
		check(0, -sim.Second)
		if inBand < 3*4000 {
			t.Fatalf("only %d threshold trials landed in the exact band", inBand)
		}
	}
}

// The draw streams are pinned: the hash words of each mechanism are
// (seed, 1|2|3, bank, wl, x), and a Row stream yields the per-cell
// draws. Changing either would move every report byte.
func TestRowMatchesPerCellDraws(t *testing.T) {
	p := params()
	for m := Mechanism(0); m < NumMechanisms; m++ {
		row := p.Row(m, 2, 77)
		for x := 0; x < 300; x++ {
			v := row.Uniform(uint64(x))
			if want := rng.Uniform(p.Seed, uint64(m)+1, 2, 77, uint64(x)); v != want || p.U(m, 2, 77, x) != want {
				t.Fatalf("mechanism %d cell %d: Row %v, U %v, hash %v", m, x, v, p.U(m, 2, 77, x), want)
			}
		}
	}
	if p.HammerU(1, 2, 3) != p.U(Hammer, 1, 2, 3) || p.PressU(1, 2, 3) != p.U(Press, 1, 2, 3) ||
		p.RetentionU(1, 2, 3) != p.U(Retention, 1, 2, 3) {
		t.Fatal("per-mechanism draws diverge from U")
	}
}

func TestDrawsIndependentAcrossMechanisms(t *testing.T) {
	p := params()
	if p.HammerU(0, 1, 2) == p.PressU(0, 1, 2) {
		t.Fatal("hammer and press draws must differ")
	}
}

func TestSeedChangesDraws(t *testing.T) {
	a, b := Default(1), Default(2)
	same := 0
	for x := 0; x < 100; x++ {
		if a.HammerU(0, 0, x) == b.HammerU(0, 0, x) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 draws identical across seeds", same)
	}
}

func TestTriOf(t *testing.T) {
	if TriOf(true) != 1 || TriOf(false) != 0 {
		t.Fatal("TriOf broken")
	}
}

// Factor must never be negative and must be zero only for immune
// geometry.
func TestHammerFactorQuick(t *testing.T) {
	p := params()
	f := func(wl, bl uint8, dirB, charged bool, vicBits, aggrBits uint8) bool {
		dir := geom.Upper
		if dirB {
			dir = geom.Lower
		}
		n := Neighborhood{WL: int(wl), BL: int(bl), Dir: dir, Charged: charged}
		for i := 0; i < 5; i++ {
			n.Vic[i] = Tri((vicBits >> uint(i)) & 1)
			n.Aggr[i] = Tri((aggrBits >> uint(i)) & 1)
		}
		n.Vic[2] = TriOf(charged)
		got := p.HammerFactor(n)
		immune := !geom.HammerFlips(int(wl), int(bl), dir, charged)
		if immune {
			return got == 0
		}
		return got > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
