package core

import (
	"fmt"
	"math/bits"

	"dramscope/internal/host"
	"dramscope/internal/sim"
	"dramscope/internal/stats"
)

// Side selects the aggressor's physical direction relative to the
// victim row.
type Side uint8

const (
	// AggrAbove hammers the victim's upper physical neighbor.
	AggrAbove Side = iota
	// AggrBelow hammers the victim's lower physical neighbor.
	AggrBelow
)

// String names the side.
func (s Side) String() string {
	if s == AggrAbove {
		return "upper"
	}
	return "lower"
}

// Mode selects the AIB attack pattern.
type Mode uint8

const (
	// ModeHammer: repeated short activations (RowHammer, §V-B:
	// 300K activations).
	ModeHammer Mode = iota
	// ModePress: long activations (RowPress, §V-B: 8K activations of
	// 7.8us each).
	ModePress
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHammer {
		return "RowHammer"
	}
	return "RowPress"
}

// AIB is the activate-induced-bitflip measurement harness. It drives
// victim/aggressor row pairs in inferred physical order and aggregates
// bit error rates, optionally keyed by the physically remapped bit
// index from a recovered SwizzleMap ("our analysis is highly dependent
// on accurate data swizzling reverse-engineering", §V-B).
type AIB struct {
	H     *host.Host
	Bank  int
	Order *RowOrder
	Map   *SwizzleMap // optional: enables physically remapped indexing
}

// Run describes one measurement configuration.
type Run struct {
	Mode       Mode
	Acts       int
	PressOn    sim.Time // on-time per activation for ModePress
	VictimPhys []int    // physical positions of victim rows
	Side       Side
	// Both hammers both physical neighbors (Side is ignored), as in
	// the Figure 16/17 arrangement with upper and lower aggressors.
	Both bool
	// VictimData and AggrData give the burst written to each column.
	VictimData func(col int) uint64
	AggrData   func(col int) uint64
	// TargetMask, when non-nil, restricts error accounting to the
	// cells where TargetMask(col) has a 1 bit (used by the targeted
	// Fig. 14 pattern experiments).
	TargetMask func(col int) uint64
}

// Result aggregates a run's errors.
type Result struct {
	// ByBit profiles errors per logical burst bit index.
	ByBit *stats.Profile
	// ByPhysClass profiles errors per physically remapped bit index
	// (only if the harness has a SwizzleMap).
	ByPhysClass *stats.Profile
	// Flips10 and Flips01 count 1->0 and 0->1 flips.
	Flips10, Flips01 int64
	// Total is the overall bit error rate.
	Total stats.BER
}

// Solid returns a constant-data pattern.
func Solid(v uint64) func(int) uint64 {
	return func(int) uint64 { return v }
}

// Measure runs the configuration and aggregates errors.
func (a *AIB) Measure(cfg Run) (*Result, error) {
	if cfg.VictimData == nil || cfg.AggrData == nil {
		return nil, fmt.Errorf("core: Measure needs victim and aggressor data")
	}
	if len(cfg.VictimPhys) == 0 {
		return nil, fmt.Errorf("core: Measure needs victim rows")
	}
	h := a.H
	res := &Result{ByBit: stats.NewProfile()}
	if a.Map != nil {
		res.ByPhysClass = stats.NewProfile()
	}

	got := make([]uint64, h.Columns()) // readback buffer reused across victims
	width := h.DataWidth()
	// PhysClass is a search over the recovered swizzle, not a lookup;
	// resolve every burst bit once instead of once per observed cell.
	var physClass []int
	if a.Map != nil {
		physClass = make([]int, width)
		for b := range physClass {
			physClass[b] = a.Map.PhysClass(b)
		}
	}
	// Per-bit error and trial counts, summed over every victim and
	// handed to the profiles once at the end. Columns without a target
	// mask count one trial on every bit (fullCols).
	var errs, trials [64]int64
	var fullCols int64
	aggrPhys := make([]int, 0, 2)
	aggrs := make([]int, 0, 2)
	for _, p := range cfg.VictimPhys {
		aggrPhys = aggrPhys[:0]
		switch {
		case cfg.Both:
			aggrPhys = append(aggrPhys, p+1, p-1)
		case cfg.Side == AggrBelow:
			aggrPhys = append(aggrPhys, p-1)
		default:
			aggrPhys = append(aggrPhys, p+1)
		}
		victim := a.Order.RowAt(p)
		if err := h.WriteRow(a.Bank, victim, cfg.VictimData); err != nil {
			return nil, err
		}
		aggrs = aggrs[:0]
		for _, ap := range aggrPhys {
			if ap < 0 || ap >= h.Rows() {
				return nil, fmt.Errorf("core: victim at physical row %d lacks an aggressor at %d", p, ap)
			}
			aggr := a.Order.RowAt(ap)
			if err := h.WriteRow(a.Bank, aggr, cfg.AggrData); err != nil {
				return nil, err
			}
			aggrs = append(aggrs, aggr)
		}
		for _, aggr := range aggrs {
			var err error
			if cfg.Mode == ModeHammer {
				err = h.Hammer(a.Bank, aggr, cfg.Acts)
			} else {
				err = h.Press(a.Bank, aggr, cfg.Acts, cfg.PressOn)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := h.ReadRowInto(a.Bank, victim, got); err != nil {
			return nil, err
		}
		for col, v := range got {
			want := cfg.VictimData(col)
			mask := allOnes(h)
			if cfg.TargetMask != nil {
				mask &= cfg.TargetMask(col)
				for m := mask; m != 0; m &= m - 1 {
					trials[bits.TrailingZeros64(m)]++
				}
			} else {
				fullCols++
			}
			diff := (v ^ want) & mask
			res.Flips10 += int64(bits.OnesCount64(diff & want))
			res.Flips01 += int64(bits.OnesCount64(diff &^ want))
			for m := diff; m != 0; m &= m - 1 {
				errs[bits.TrailingZeros64(m)]++
			}
		}
	}
	for b := 0; b < width; b++ {
		n := trials[b] + fullCols
		if n == 0 {
			continue // never targeted: the bit stays out of the profiles
		}
		res.ByBit.Observe(b, errs[b], n)
		if res.ByPhysClass != nil {
			res.ByPhysClass.Observe(physClass[b], errs[b], n)
		}
	}
	res.Total = res.ByBit.Total()
	return res, nil
}

// Neighbor resolves the horizontally adjacent cell at the given
// physical distance from (col, bit), using the recovered swizzle.
// ok is false past the row edge.
func (s *SwizzleMap) Neighbor(col, bit, dist int) (ncol, nbit int, ok bool) {
	ci := -1
	pos := -1
	for i, ord := range s.Orders {
		for p, c := range ord {
			if c == bit {
				ci, pos = i, p
			}
		}
	}
	if ci < 0 {
		return 0, 0, false
	}
	b := s.BitsPerMAT
	p2 := pos + dist
	shift := 0
	for p2 < 0 {
		p2 += b
		shift--
	}
	for p2 >= b {
		p2 -= b
		shift++
	}
	ncol = col + shift*s.ColumnStride
	nbit = s.Orders[ci][p2]
	return ncol, nbit, ncol >= 0
}

// GateClass classifies which of the two (unidentifiable) gate types A
// or B an aggressor presents to a victim cell, from the recovered
// parity class, the victim row's physical parity, and the aggressor
// direction. Like the paper (§V-B), the probe can tell the two
// classes apart but cannot name which is passing and which is
// neighboring.
func (s *SwizzleMap) GateClass(physRow, bit int, side Side) int {
	g := s.Parity[bit] ^ (physRow & 1)
	if side == AggrBelow {
		g ^= 1
	}
	return g
}
