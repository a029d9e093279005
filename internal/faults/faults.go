// Package faults implements the activate-induced bitflip (AIB),
// retention, and RowCopy fault physics of the simulated DRAM devices.
//
// # Model
//
// Every cell draws a deterministic uniform value u per mechanism
// (package rng). A victim cell flips under RowHammer when
//
//	u < BaseP * (sum over directions of acts_dir * factor_dir) / N0
//
// i.e. a Pareto-style per-cell threshold linear in effective stress.
// Linearity makes measured bit-error-rate *ratios* equal the
// configured factor ratios, which is exactly how the paper reports its
// findings (Figures 10 and 12-16 are all relative or shape
// comparisons), and it makes the first-flip activation count (Hcnt) of
// a given cell scale as 1/factor.
//
// The factor encodes the paper's microscopic observations:
//
//   - O8-O10 (gate predicate): a cell is susceptible to exactly one
//     aggressor direction for a given charge state, alternating along
//     the bitline and reversing with wordline parity, direction, and
//     written value (package geom).
//   - O11 (horizontal victim boost): victim cells at bitline distance
//     1 and 2 holding the opposite value raise the BER; distance 2
//     dominates (Fig. 14a).
//   - O12 (horizontal aggressor damping): aggressor cells vertically
//     matching same-valued victim columns lower the BER; strongest
//     when closest for the damping (Fig. 14b).
//   - O13/O14 (adversarial cross pattern): vertically-opposite,
//     2-bit-repeating victim/aggressor arrangements compound the
//     boosts (Fig. 16's 0x33/0xCC worst case; CrossBoost2 below).
//   - O6 (edge damping): dummy bitlines in edge subarrays damp AIB,
//     more strongly for a charged aggressor (Fig. 10).
//
// All constants are per-charge-state pairs indexed by the victim
// cell's charge (0 = discharged, 1 = charged); the paper's "data 0/1"
// matches charge directly on true-cell devices.
package faults

import (
	"math"

	"dramscope/internal/geom"
	"dramscope/internal/rng"
	"dramscope/internal/sim"
)

// Tri is a tri-state charge observation: 0 or 1 for a known charge,
// Absent past a MAT boundary (peripheral circuits isolate MATs, so
// horizontal influence never crosses them).
type Tri int8

// Absent marks a neighbor position outside the victim's MAT.
const Absent Tri = -1

// TriOf converts a charge to a Tri.
func TriOf(charged bool) Tri {
	if charged {
		return 1
	}
	return 0
}

// Params holds the fault-model constants. Pair fields are indexed by
// charge state [discharged, charged].
type Params struct {
	Seed uint64

	// BaseScale is a per-device overall AIB rate multiplier (vendors
	// differ in absolute BER; Fig. 10).
	BaseScale float64

	// RowHammer.
	HammerBaseP float64    // flip probability per unit factor at HammerN0 acts
	HammerN0    float64    // reference single-sided activation count (300K, §V-B)
	HammerRate  [2]float64 // base rate by victim charge (Fig. 13 right)
	// HammerMinStress is the factor-weighted activation count below
	// which no cell can flip: sub-threshold disturbance is fully
	// restored (real first-flip counts are in the tens of thousands).
	HammerMinStress float64

	// Horizontal victim boosts: pair factors (both sides opposite)
	// from Fig. 14a, indexed by victim charge.
	VicBoost1 [2]float64
	VicBoost2 [2]float64

	// Horizontal aggressor damping when the aggressor cell vertically
	// matches a same-valued victim column (Fig. 14b): distance 0 is a
	// single-cell factor, distances 1 and 2 are pair factors.
	AggrDamp0 [2]float64
	AggrDamp1 [2]float64
	AggrDamp2 [2]float64

	// CrossBoost2 is the pair bonus when a distance-2 victim column is
	// opposite-valued AND its aggressor cell is vertically opposite
	// (the O13/O14 adversarial arrangement; calibrated so the
	// 0x33/0xCC sweep peaks near the paper's 1.69x).
	CrossBoost2 [2]float64

	// EdgeDamp damps AIB in edge subarrays, indexed by the aggressor
	// cell's charge (dummy bitlines; O6, Fig. 10).
	EdgeDamp [2]float64

	// RowPress.
	PressBaseP float64 // flip probability per unit factor at PressS0 stress
	PressS0    float64 // reference press stress in act*picoseconds (8K acts x 7.8us)
	// PressMinStress is the press analogue of HammerMinStress
	// (factor-weighted act*picoseconds).
	PressMinStress float64
	// PressRate by the gate type the aggressor presents (Fig. 13
	// left: both gates flip charged cells, at different rates).
	PressPassingRate     float64
	PressNeighboringRate float64

	// Retention time bounds (log-uniform per cell), in seconds.
	RetentionMinSec float64
	RetentionMaxSec float64
}

// Default returns the calibrated parameter set used by the catalog
// devices. EXPERIMENTS.md records the paper sources of each constant.
func Default(seed uint64) Params {
	return Params{
		Seed:      seed,
		BaseScale: 1.0,

		HammerBaseP:     2e-3,
		HammerN0:        300_000,
		HammerRate:      [2]float64{1.0, 1.45}, // Fig. 13: charged flips ~1.45x more
		HammerMinStress: 5_000,

		VicBoost1: [2]float64{1.12, 1.00}, // Fig. 14a
		VicBoost2: [2]float64{1.54, 1.35}, // Fig. 14a

		AggrDamp0: [2]float64{0.58, 0.72}, // Fig. 14b
		AggrDamp1: [2]float64{0.46, 0.58}, // Fig. 14b
		AggrDamp2: [2]float64{0.38, 0.08}, // Fig. 14b

		CrossBoost2: [2]float64{1.37, 1.37}, // calibrated for Fig. 16's 1.69x peak

		EdgeDamp: [2]float64{0.5, 0.25}, // O6: stronger damping for charged aggressor

		PressBaseP:           2e-3,
		PressS0:              8192 * 7.8e6, // 8K activations x 7.8us, in act*ps
		PressMinStress:       1e8,          // ~100us of cumulative over-tRAS on-time
		PressPassingRate:     2.0,          // Fig. 13 left: ~2:1 between gate types
		PressNeighboringRate: 1.0,

		RetentionMinSec: 0.1, // comfortably above tREFW: no failures under refresh
		RetentionMaxSec: 1e6, // ~11.5 days; keeps times within sim.Time range
	}
}

// Neighborhood captures everything the hammer factor depends on for
// one victim cell under one aggressor direction. Vic and Aggr hold
// charges at bitline offsets -2..+2 (index 2 is the victim's own
// column); positions beyond the MAT boundary are Absent.
type Neighborhood struct {
	WL, BL  int      // physical victim coordinates
	Dir     geom.Dir // aggressor direction
	Charged bool     // victim charge state
	Vic     [5]Tri   // victim-row charges, offsets -2..+2
	Aggr    [5]Tri   // aggressor-row charges, offsets -2..+2
	Edge    bool     // victim lies in an edge subarray
}

func chargeIdx(charged bool) int {
	if charged {
		return 1
	}
	return 0
}

// HammerFactor computes the effective stress multiplier for one
// victim cell under one aggressor direction. Zero means the geometry
// makes the cell immune to this direction for its current charge.
func (p *Params) HammerFactor(n Neighborhood) float64 {
	if !geom.HammerFlips(n.WL, n.BL, n.Dir, n.Charged) {
		return 0
	}
	ci := chargeIdx(n.Charged)
	self := TriOf(n.Charged)
	f := p.HammerRate[ci] * p.BaseScale

	for _, d := range [...]int{-2, -1, 1, 2} {
		v := n.Vic[2+d]
		if v == Absent {
			continue
		}
		a := n.Aggr[2+d]
		dist2 := d == 2 || d == -2
		if v != self {
			// Opposite-valued horizontal victim: boost (O11).
			if dist2 {
				f *= math.Sqrt(p.VicBoost2[ci])
				if a != Absent && a != v {
					// Vertically-opposite distance-2 column: the
					// adversarial compound arrangement (O13/O14).
					f *= math.Sqrt(p.CrossBoost2[ci])
				}
			} else {
				f *= math.Sqrt(p.VicBoost1[ci])
			}
			continue
		}
		// Same-valued victim column: an aggressor cell matching it
		// vertically damps the attack (O12).
		if a != Absent && a == v {
			if dist2 {
				f *= math.Sqrt(p.AggrDamp2[ci])
			} else {
				f *= math.Sqrt(p.AggrDamp1[ci])
			}
		}
	}
	if a := n.Aggr[2]; a != Absent && a == self {
		f *= p.AggrDamp0[ci]
	}
	if n.Edge {
		f *= p.edgeDamp(n.Aggr[2])
	}
	return f
}

// PressFactor computes the stress multiplier for RowPress. RowPress
// flips only charged cells (§II-D), at both gate types with different
// rates (Fig. 13 left), damped in edge subarrays like RowHammer.
func (p *Params) PressFactor(n Neighborhood) float64 {
	if !geom.PressFlips(n.Charged) {
		return 0
	}
	f := p.BaseScale
	if geom.GateOf(n.WL, n.BL, n.Dir) == geom.Passing {
		f *= p.PressPassingRate
	} else {
		f *= p.PressNeighboringRate
	}
	if n.Edge {
		f *= p.edgeDamp(n.Aggr[2])
	}
	return f
}

func (p *Params) edgeDamp(aggrCenter Tri) float64 {
	switch aggrCenter {
	case 0:
		return p.EdgeDamp[0]
	case 1:
		return p.EdgeDamp[1]
	default:
		return (p.EdgeDamp[0] + p.EdgeDamp[1]) / 2
	}
}

// Mechanism names one of the fault model's per-cell draw streams.
type Mechanism uint8

// The mechanisms with a per-cell uniform draw.
const (
	Hammer Mechanism = iota
	Press
	Retention
	NumMechanisms
)

// tag is the mechanism's word in the draw hash.
func (m Mechanism) tag() uint64 { return uint64(m) + 1 }

// U returns the cell's deterministic uniform draw for a mechanism.
func (p *Params) U(m Mechanism, bank, wl, x int) float64 {
	return rng.Uniform(p.Seed, m.tag(), uint64(bank), uint64(wl), uint64(x))
}

// Row returns a mechanism's draw stream along wordline wl of a bank:
// Row(m, bank, wl).Uniform(uint64(x)) == U(m, bank, wl, x). The
// coordinates the row shares are hashed once, so a cell costs two
// mixing rounds.
func (p *Params) Row(m Mechanism, bank, wl int) rng.Prefix {
	return rng.NewPrefix(p.Seed, m.tag(), uint64(bank), uint64(wl))
}

// HammerU returns the cell's deterministic uniform draw for the
// RowHammer mechanism.
func (p *Params) HammerU(bank, wl, x int) float64 { return p.U(Hammer, bank, wl, x) }

// PressU returns the cell's deterministic uniform draw for RowPress.
func (p *Params) PressU(bank, wl, x int) float64 { return p.U(Press, bank, wl, x) }

// HammerFlips reports whether the accumulated hammer stress flips the
// cell. Stress is the factor-weighted activation count summed over
// directions; stress below HammerMinStress never flips.
func (p *Params) HammerFlips(bank, wl, x int, stress float64) bool {
	return p.HammerFlipsU(p.HammerU(bank, wl, x), stress)
}

// HammerFlipsU is HammerFlips with the cell's uniform draw supplied by
// the caller. The chip's flip-threshold tables cache HammerU per cell
// and decide through this function, so the cached path evaluates the
// exact float expression the scalar path does — flip decisions are
// bit-identical by construction, not by approximation.
func (p *Params) HammerFlipsU(u, stress float64) bool {
	if stress < p.HammerMinStress {
		return false
	}
	return u < p.HammerBaseP*stress/p.HammerN0
}

// HammerThreshold returns the exact single-sided activation count at
// which the cell first flips under constant factor f (the cell's
// Hcnt). Returns +Inf for immune cells.
func (p *Params) HammerThreshold(bank, wl, x int, f float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	t := p.HammerU(bank, wl, x) * p.HammerN0 / (p.HammerBaseP * f)
	if floor := p.HammerMinStress / f; t < floor {
		return floor
	}
	return t
}

// PressFlips reports whether accumulated press stress (factor-weighted
// activation-on-time in act*picoseconds) flips the cell; stress below
// PressMinStress never flips.
func (p *Params) PressFlips(bank, wl, x int, stress float64) bool {
	return p.PressFlipsU(p.PressU(bank, wl, x), stress)
}

// PressFlipsU is PressFlips with the cell's uniform draw supplied by
// the caller (see HammerFlipsU).
func (p *Params) PressFlipsU(u, stress float64) bool {
	if stress < p.PressMinStress {
		return false
	}
	return u < p.PressBaseP*stress/p.PressS0
}

// MaxHammerFactor bounds HammerFactor over all neighborhoods; used to
// prove a stress delta cannot flip anything without scanning cells.
func (p *Params) MaxHammerFactor() float64 {
	rate := math.Max(p.HammerRate[0], p.HammerRate[1])
	v1 := math.Max(p.VicBoost1[0], p.VicBoost1[1])
	v2 := math.Max(p.VicBoost2[0], p.VicBoost2[1])
	cb := math.Max(p.CrossBoost2[0], p.CrossBoost2[1])
	f := p.BaseScale * rate * math.Max(v1, 1) * math.Max(v2, 1) * math.Max(cb, 1)
	ed := math.Max(p.EdgeDamp[0], p.EdgeDamp[1])
	return f * math.Max(ed, 1)
}

// MaxPressFactor bounds PressFactor over all neighborhoods.
func (p *Params) MaxPressFactor() float64 {
	f := p.BaseScale * math.Max(p.PressPassingRate, p.PressNeighboringRate)
	return f * math.Max(math.Max(p.EdgeDamp[0], p.EdgeDamp[1]), 1)
}

// RetentionTime returns the cell's retention time: how long a charged
// cell holds its charge without refresh. It is the scalar definition;
// kernels that decide many cells draw RetentionU once per cell and
// decide through a RetentionScreen instead.
func (p *Params) RetentionTime(bank, wl, x int) sim.Time {
	sec := rng.LogUniform(p.RetentionMinSec, p.RetentionMaxSec,
		p.Seed, Retention.tag(), uint64(bank), uint64(wl), uint64(x))
	return sim.Time(sec * float64(sim.Second))
}

// RetentionFlips reports whether a charged cell loses its charge after
// the given unrefreshed interval.
func (p *Params) RetentionFlips(bank, wl, x int, charged bool, elapsed sim.Time) bool {
	if !charged || elapsed <= 0 {
		return false
	}
	return elapsed > p.RetentionTime(bank, wl, x)
}

// RetentionU returns the cell's deterministic uniform draw for
// retention: RetentionTime is RetentionTimeU(p.RetentionScale(), u).
func (p *Params) RetentionU(bank, wl, x int) float64 { return p.U(Retention, bank, wl, x) }

// RetentionScale returns the log-uniform retention-time distribution
// in seconds. It evaluates ln(max/min) once; hoist it out of per-cell
// loops.
func (p *Params) RetentionScale() rng.LogScale {
	return rng.NewLogScale(p.RetentionMinSec, p.RetentionMaxSec)
}

// RetentionTimeU maps a retention draw onto the cell's retention time.
// It evaluates the float expression RetentionTime does, bit for bit.
func RetentionTimeU(s rng.LogScale, u float64) sim.Time {
	return sim.Time(s.At(u) * float64(sim.Second))
}

// RetentionMargin is the half-width, in natural-log units of time, of
// the band around the inverted retention threshold inside which
// RetentionFlipsU falls back to the exact comparison.
//
// The exact test is elapsed > T(u) with T(u) = trunc(fl(fl(lo ·
// expf(fl(u·ln))) · 1e12)); the screen inverts the real-valued
// lo·1e12·e^(u·ln) with math.Log. The margin must cover everything
// that separates the two, in log space:
//
//   - expf's relative error: at most 1e-12 for exponents u·ln with u in
//     [0, 1] and ln = lnf(1e7) (rng's
//     TestLnfExpfRelativeErrorOverRetentionDomain; measured 1.3e-15);
//   - rounding u·ln (|u·ln| <= 16.2, so at most 1.8e-15) and the two
//     products (2.2e-16);
//   - the screen's own math.Log, conversions and divisions (about
//     1e-15, scaled by ln into draw space and back);
//   - nothing for the truncation to integer picoseconds: for an
//     integer e and real T >= 0, e > trunc(T) exactly when e > T.
//
// That sums to at most 1.01e-12; 1e-9 leaves about 1000x headroom. In
// draw space the band is 2·RetentionMargin/ln wide (1.2e-10 for the
// default bounds), so about one cell in 8e9 takes the exact path.
const RetentionMargin = 1e-9

// RetentionScreen is the retention test of one unrefreshed interval
// inverted onto the cells' uniform draws. T(u) is increasing in u, so
// the interval elapsed decays exactly the cells whose draw lies below
// the threshold u* = ln(elapsed/min)/ln(max/min). The screen brackets
// u* by RetentionMargin: a draw below Flip always decays, a draw above
// Keep never does, and only a draw inside [Flip, Keep] needs its
// retention time evaluated.
type RetentionScreen struct {
	Flip, Keep float64
	elapsed    sim.Time
	scale      rng.LogScale
}

// NewRetentionScreen builds the screen of one interval. Build it once
// per scan, not per cell.
func NewRetentionScreen(s rng.LogScale, elapsed sim.Time) RetentionScreen {
	r := RetentionScreen{Flip: math.Inf(-1), Keep: math.Inf(-1), elapsed: elapsed, scale: s}
	if elapsed <= 0 {
		return r // nothing decays
	}
	// With min == max, ln is 0 and the bounds are infinite or NaN; a NaN
	// bound fails every comparison, which sends draws to the exact path.
	l := math.Log(float64(elapsed) / (s.Lo() * float64(sim.Second)))
	r.Flip = (l - RetentionMargin) / s.Ln()
	r.Keep = (l + RetentionMargin) / s.Ln()
	return r
}

// RetentionFlipsU is RetentionFlips for a charged cell with its
// uniform draw supplied by the caller (see HammerFlipsU), decided
// through the interval's screen: a compare for all but the draws
// inside the band, which take the exact RetentionTimeU comparison.
// Decisions are bit-identical to RetentionFlips.
func RetentionFlipsU(s *RetentionScreen, u float64) bool {
	if u < s.Flip {
		return true
	}
	return u <= s.Keep && s.exact(u)
}

// exact is the in-band decision. It stays out of line so that the
// screen's two compares inline into the caller's per-cell loop.
//
//go:noinline
func (s *RetentionScreen) exact(u float64) bool {
	return s.elapsed > RetentionTimeU(s.scale, u)
}
