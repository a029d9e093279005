package host

import (
	"fmt"

	"dramscope/internal/sim"
)

// Program is a DRAM-Bender-style command program: a straight-line
// sequence of timed DRAM commands with counted loops. Programs make
// the timing explicit — every instruction carries the delay since the
// previous one, in tCK multiples — which is how the FPGA
// infrastructure expresses specification-violating sequences such as
// RowCopy.
type Program struct {
	instrs []instr
}

type instrKind uint8

const (
	iCmd instrKind = iota
	iLoop
)

type instr struct {
	kind     instrKind
	op       sim.Op
	delayTCK int // tCKs since the previous instruction
	bank     int
	row      int
	col      int
	data     uint64
	count    int // loop iterations
	body     *Program
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// Act appends an ACT after delayTCK clocks.
func (p *Program) Act(delayTCK, bank, row int) *Program {
	p.instrs = append(p.instrs, instr{kind: iCmd, op: sim.ACT, delayTCK: delayTCK, bank: bank, row: row})
	return p
}

// Pre appends a PRE after delayTCK clocks.
func (p *Program) Pre(delayTCK, bank int) *Program {
	p.instrs = append(p.instrs, instr{kind: iCmd, op: sim.PRE, delayTCK: delayTCK, bank: bank})
	return p
}

// Read appends an RD after delayTCK clocks; its result is appended to
// the run's output.
func (p *Program) Read(delayTCK, bank, col int) *Program {
	p.instrs = append(p.instrs, instr{kind: iCmd, op: sim.RD, delayTCK: delayTCK, bank: bank, col: col})
	return p
}

// Write appends a WR after delayTCK clocks.
func (p *Program) Write(delayTCK, bank, col int, data uint64) *Program {
	p.instrs = append(p.instrs, instr{kind: iCmd, op: sim.WR, delayTCK: delayTCK, bank: bank, col: col, data: data})
	return p
}

// Ref appends a REF after delayTCK clocks.
func (p *Program) Ref(delayTCK, bank int) *Program {
	p.instrs = append(p.instrs, instr{kind: iCmd, op: sim.REF, delayTCK: delayTCK, bank: bank})
	return p
}

// Nop appends a pure delay.
func (p *Program) Nop(delayTCK int) *Program {
	p.instrs = append(p.instrs, instr{kind: iCmd, op: sim.NOP, delayTCK: delayTCK})
	return p
}

// Loop appends a counted loop of the given body.
func (p *Program) Loop(count int, body *Program) *Program {
	p.instrs = append(p.instrs, instr{kind: iLoop, count: count, body: body})
	return p
}

// Len returns the number of top-level instructions.
func (p *Program) Len() int { return len(p.instrs) }

// Run executes the program on the host's target starting at the
// host's current time, returning all RD results in order.
func (h *Host) Run(p *Program) ([]uint64, error) {
	var out []uint64
	if err := h.run(p, &out); err != nil {
		return out, err
	}
	return out, nil
}

func (h *Host) run(p *Program, out *[]uint64) error {
	tck := h.tm.TCK
	for i := range p.instrs {
		in := &p.instrs[i]
		if in.kind == iLoop {
			if in.count < 0 {
				return fmt.Errorf("host: negative loop count")
			}
			for k := 0; k < in.count; k++ {
				if err := h.run(in.body, out); err != nil {
					return fmt.Errorf("host: loop iteration %d: %w", k, err)
				}
			}
			continue
		}
		h.step(sim.Time(in.delayTCK) * tck)
		if in.op == sim.NOP {
			if err := h.t.AdvanceTo(h.at); err != nil {
				return err
			}
			continue
		}
		v, err := h.exec(sim.Command{
			Op: in.op, Bank: in.bank, Row: in.row, Col: in.col, Data: in.data,
		})
		if err != nil {
			return fmt.Errorf("host: instruction %d (%v): %w", i, in.op, err)
		}
		if in.op == sim.RD {
			*out = append(*out, v)
		}
	}
	return nil
}
