package core

import (
	"math/bits"

	"dramscope/internal/host"
)

// CoupledResult reports coupled-row aliasing (§IV-B, O3): whether a
// single activation drives a second addressed row, and at what
// address distance.
type CoupledResult struct {
	// Distance is the row-address distance to the coupled partner
	// (the paper's (n, n + N/2) relation), or 0 if rows are not
	// coupled.
	Distance int
}

// Coupled reports whether the device exhibits coupled-row activation.
func (c *CoupledResult) Coupled() bool { return c.Distance > 0 }

// ProbeCoupledRows detects coupled rows with single-sided RowHammer:
// hammering row r must produce victims not only around r but also
// around its coupled partner, because both addresses alias one
// physical wordline. Candidate distances are swept over powers of two
// (the aliasing follows the address MSB on real parts).
func ProbeCoupledRows(h *host.Host, bank int, order *RowOrder) (*CoupledResult, error) {
	const aggr = 64 // group-aligned, clear of the probe windows used earlier
	ones := allOnes(h)

	// Candidate partners: power-of-two distances plus the natural
	// top-address-bit hypothesis N/2.
	var candidates []int
	for k := 8; aggr+k+4 < h.Rows(); k *= 2 {
		candidates = append(candidates, k)
	}
	if half := h.Rows() / 2; aggr+half+4 < h.Rows() {
		dup := false
		for _, k := range candidates {
			if k == half {
				dup = true
			}
		}
		if !dup {
			candidates = append(candidates, half)
		}
	}

	// Victim rows around a candidate q: the addressed rows mapping to
	// the physical positions just above/below q's position.
	victimsOf := func(q int) []int {
		p := order.PhysIndex(q)
		out := []int{}
		for _, pp := range []int{p - 1, p + 1} {
			if pp >= 0 && pp < h.Rows() {
				out = append(out, order.RowAt(pp))
			}
		}
		return out
	}

	// Pre-fill all monitored victim rows with 1s and the aggressor
	// with 0s.
	monitored := map[int]bool{}
	for _, v := range victimsOf(aggr) {
		monitored[v] = true
	}
	for _, k := range candidates {
		for _, v := range victimsOf(aggr + k) {
			monitored[v] = true
		}
	}
	for v := range monitored {
		if err := h.FillRow(bank, v, ones); err != nil {
			return nil, err
		}
	}
	if err := h.FillRow(bank, aggr, 0); err != nil {
		return nil, err
	}
	// Zero every candidate partner row as well: if one of them aliases
	// the aggressor's wordline, its columns are part of the aggressor's
	// data and must be controlled like the rest (stale charge there
	// damps the partner-side victims through the data-dependence of
	// AIB, masking the coupling signature).
	for _, k := range candidates {
		if err := h.FillRow(bank, aggr+k, 0); err != nil {
			return nil, err
		}
	}
	if err := h.Hammer(bank, aggr, rowOrderHammerActs); err != nil {
		return nil, err
	}

	got := make([]uint64, h.Columns())
	flipsAround := func(q int) (int, error) {
		total := 0
		for _, v := range victimsOf(q) {
			if err := h.ReadRowInto(bank, v, got); err != nil {
				return 0, err
			}
			for _, w := range got {
				total += bits.OnesCount64(w ^ ones)
			}
		}
		return total, nil
	}

	base, err := flipsAround(aggr)
	if err != nil {
		return nil, err
	}
	if base == 0 {
		// The direct victims must flip; if not, the hammer budget is
		// wrong for this device and no conclusion is safe.
		return nil, errNoDirectVictims
	}
	for _, k := range candidates {
		n, err := flipsAround(aggr + k)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			return &CoupledResult{Distance: k}, nil
		}
	}
	return &CoupledResult{}, nil
}

var errNoDirectVictims = &probeError{"coupled-row probe saw no flips next to the aggressor"}

type probeError struct{ msg string }

func (e *probeError) Error() string { return "core: " + e.msg }
