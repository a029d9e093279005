// Package module models a registered DIMM: several identical DRAM
// chips behind a registered clock driver (RCD) with per-chip data-pin
// (DQ) twisting (paper §III-C, Figure 5).
//
// The module is where two of the paper's three reverse-engineering
// pitfalls live:
//
//   - The RCD drives B-side chips with inverted row-address bits, so
//     one module row maps to different chip rows on the two sides.
//   - DQ lanes are routed out of order per chip, so one host data
//     pattern arrives as different values at different chips.
//
// Both are "publicly disclosed but scattered" (JEDEC DDR4RCD02, vendor
// DIMM design files); DesignDoc exposes them the way the real
// documents do. The pitfall experiments deliberately ignore it.
package module

import (
	"fmt"

	"dramscope/internal/chip"
	"dramscope/internal/rng"
	"dramscope/internal/sim"
	"dramscope/internal/swizzle"
	"dramscope/internal/topo"
)

// Module is a simulated RDIMM.
type Module struct {
	prof   topo.Profile
	chips  []*chip.Chip
	rcd    swizzle.RCD
	twists []swizzle.DQTwist
	now    sim.Time
}

// DesignDoc is the publicly-available module description (the
// information "scattered across documents" that §III-C warns about).
type DesignDoc struct {
	RCD    swizzle.RCD
	Twists []swizzle.DQTwist
}

// New builds a module of nchips chips from the profile. Each chip
// gets an independent fault map derived from the module seed.
func New(prof topo.Profile, nchips int, seed uint64) (*Module, error) {
	if nchips <= 0 {
		return nil, fmt.Errorf("module: need at least one chip")
	}
	t, err := prof.Build()
	if err != nil {
		return nil, err
	}
	if n := t.LogicalRows(); n&(n-1) != 0 {
		return nil, fmt.Errorf("module: RCD inversion needs a power-of-two row count, got %d", n)
	}
	m := &Module{
		prof:   prof,
		rcd:    swizzle.NewRCD(nchips),
		twists: swizzle.StandardTwists(nchips, prof.ChipWidth),
	}
	for i := 0; i < nchips; i++ {
		c, err := chip.New(prof, rng.Hash(seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		m.chips = append(m.chips, c)
	}
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(prof topo.Profile, nchips int, seed uint64) *Module {
	m, err := New(prof, nchips, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Chips returns the number of chips on the module.
func (m *Module) Chips() int { return len(m.chips) }

// Chip exposes chip i directly (ground truth / validation only).
func (m *Module) Chip(i int) *chip.Chip { return m.chips[i] }

// Rows, Columns, DataWidth and Timing mirror the chip geometry.
func (m *Module) Rows() int          { return m.chips[0].Rows() }
func (m *Module) Columns() int       { return m.chips[0].Columns() }
func (m *Module) DataWidth() int     { return m.chips[0].DataWidth() }
func (m *Module) Timing() sim.Timing { return m.chips[0].Timing() }

// Now returns the module's current simulated time.
func (m *Module) Now() sim.Time { return m.now }

// DesignDoc returns the module's public routing description.
func (m *Module) DesignDoc() DesignDoc {
	tw := make([]swizzle.DQTwist, len(m.twists))
	copy(tw, m.twists)
	return DesignDoc{RCD: m.rcd, Twists: tw}
}

// beats is the burst length (BL8 for DDR4; HBM2 modeled alike).
const beats = 8

// Exec broadcasts a command to all chips through the RCD. For RD it
// returns the per-chip bursts as seen on the module side (after
// un-twisting). For WR, cmd.Data is the module-side burst written to
// every chip (each chip receives its own twisted image).
func (m *Module) Exec(cmd sim.Command) ([]uint64, error) {
	if cmd.At < m.now {
		return nil, fmt.Errorf("module: command %v is before current time %v", cmd, m.now)
	}
	m.now = cmd.At
	var out []uint64
	for i, c := range m.chips {
		cc := cmd
		if cmd.Op == sim.ACT {
			cc.Row = m.rcd.RowTo(i, cmd.Row, c.Rows())
		}
		if cmd.Op == sim.WR {
			cc.Data = m.twists[i].ToChip(cmd.Data, beats)
		}
		v, err := c.Exec(cc)
		if err != nil {
			return nil, fmt.Errorf("module: chip %d: %w", i, err)
		}
		if cmd.Op == sim.RD {
			out = append(out, m.twists[i].ToModule(v, beats))
		}
	}
	return out, nil
}

// Pulse hammers a module row (n ACT/PRE pairs) on every chip.
func (m *Module) Pulse(bank, row, n int, tOn, tGap sim.Time) error {
	for i, c := range m.chips {
		if err := c.AdvanceTo(m.now); err != nil {
			return err
		}
		if err := c.Pulse(bank, m.rcd.RowTo(i, row, c.Rows()), n, tOn, tGap); err != nil {
			return fmt.Errorf("module: chip %d: %w", i, err)
		}
	}
	m.now = m.chips[0].Now()
	return nil
}

// AdvanceTo moves module time forward (all chips follow).
func (m *Module) AdvanceTo(t sim.Time) error {
	if t < m.now {
		return fmt.Errorf("module: cannot advance backwards")
	}
	for _, c := range m.chips {
		if err := c.AdvanceTo(t); err != nil {
			return err
		}
	}
	m.now = t
	return nil
}
