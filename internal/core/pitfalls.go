package core

import (
	"fmt"
	"math/bits"
	"sort"

	"dramscope/internal/module"
	"dramscope/internal/sim"
)

// RCDPitfallReport is the Figure 5 / §III-C pitfall-1 demonstration:
// the victim-row distances an analyst infers from a module-level
// RowHammer experiment, with and without accounting for the RCD's
// B-side address inversion.
type RCDPitfallReport struct {
	AggressorRow int
	// UnawareDistances are |victim - aggressor| module-row distances
	// as a naive analyst sees them.
	UnawareDistances []int
	// AwareDistances are the distances after translating each chip's
	// rows through the (publicly documented) inversion.
	AwareDistances []int
}

// PhantomNonAdjacent reports whether the unaware reading contains the
// debunked "non-adjacent RowHammer" effect (victims at distance > 1).
func (r *RCDPitfallReport) PhantomNonAdjacent() bool {
	for _, d := range r.UnawareDistances {
		if d > 1 {
			return true
		}
	}
	return false
}

// Consistent reports whether the aware reading restores plain
// adjacent-row RowHammer.
func (r *RCDPitfallReport) Consistent() bool {
	for _, d := range r.AwareDistances {
		if d != 1 {
			return false
		}
	}
	return len(r.AwareDistances) > 0
}

// AnalyzeRCDPitfall hammers a module row that sits at an address-carry
// boundary and scans nearby module rows for victims. On the B side the
// inverted row bits relocate the aggressor, so victims surface at
// module distances far from 1 unless the inversion is accounted for.
func AnalyzeRCDPitfall(m *module.Module, bank int) (*RCDPitfallReport, error) {
	const aggr = 8 // carries into the inverted bit range at 7<->8
	scan := 33     // rows 0..32 cover the relocated victims

	doc := m.DesignDoc()
	tm := m.Timing()
	at := m.Now()

	exec := func(op sim.Op, row, col int, data uint64, delay sim.Time) ([]uint64, error) {
		at += delay
		return m.Exec(sim.Command{Op: op, At: at, Bank: bank, Row: row, Col: col, Data: data})
	}
	fillRow := func(row int, v uint64) error {
		if _, err := exec(sim.ACT, row, 0, 0, tm.TRP+tm.TCK); err != nil {
			return err
		}
		for col := 0; col < m.Columns(); col++ {
			if _, err := exec(sim.WR, row, col, v, tm.TRCD); err != nil {
				return err
			}
		}
		_, err := exec(sim.PRE, 0, 0, 0, tm.TRAS)
		return err
	}

	ones := uint64(1)<<uint(m.DataWidth()) - 1
	for r := 0; r < scan; r++ {
		v := ones
		if r == aggr {
			v = 0
		}
		if err := fillRow(r, v); err != nil {
			return nil, err
		}
	}
	at += tm.TRP
	if err := m.AdvanceTo(at); err != nil {
		return nil, err
	}
	if err := m.Pulse(bank, aggr, rowOrderHammerActs, tm.TRAS, tm.TRP); err != nil {
		return nil, err
	}
	at = m.Now()

	unaware := map[int]bool{}
	aware := map[int]bool{}
	for r := 0; r < scan; r++ {
		if r == aggr {
			continue
		}
		if _, err := exec(sim.ACT, r, 0, 0, tm.TRP+tm.TCK); err != nil {
			return nil, err
		}
		flipsPerChip := make([]int, m.Chips())
		for col := 0; col < m.Columns(); col++ {
			bursts, err := exec(sim.RD, r, col, 0, tm.TRCD)
			if err != nil {
				return nil, err
			}
			for chipIdx, v := range bursts {
				flipsPerChip[chipIdx] += bits.OnesCount64(v ^ ones)
			}
		}
		if _, err := exec(sim.PRE, 0, 0, 0, tm.TRAS); err != nil {
			return nil, err
		}
		for chipIdx, flips := range flipsPerChip {
			if flips == 0 {
				continue
			}
			du := r - aggr
			if du < 0 {
				du = -du
			}
			unaware[du] = true
			// Aware translation: compare rows in the chip's own
			// address space.
			cv := doc.RCD.RowTo(chipIdx, r, m.Rows())
			ca := doc.RCD.RowTo(chipIdx, aggr, m.Rows())
			da := cv - ca
			if da < 0 {
				da = -da
			}
			aware[da] = true
		}
	}

	rep := &RCDPitfallReport{AggressorRow: aggr}
	for d := range unaware {
		rep.UnawareDistances = append(rep.UnawareDistances, d)
	}
	for d := range aware {
		rep.AwareDistances = append(rep.AwareDistances, d)
	}
	sort.Ints(rep.UnawareDistances)
	sort.Ints(rep.AwareDistances)
	if len(rep.UnawareDistances) == 0 {
		return nil, fmt.Errorf("core: RCD pitfall probe saw no victims at all")
	}
	return rep, nil
}

// DQImages returns the per-chip values a host burst actually lands as,
// given the module's public routing description (§III-C pitfall 3):
// writing 0x55… does not place 0x55 in every chip.
func DQImages(m *module.Module, hostBurst uint64) []uint64 {
	doc := m.DesignDoc()
	out := make([]uint64, len(doc.Twists))
	for i, tw := range doc.Twists {
		out[i] = tw.ToChip(hostBurst, 8)
	}
	return out
}

// DistinctImages counts how many different chip-side images a host
// burst produces across the module.
func DistinctImages(m *module.Module, hostBurst uint64) int {
	seen := map[uint64]bool{}
	for _, v := range DQImages(m, hostBurst) {
		seen[v] = true
	}
	return len(seen)
}
