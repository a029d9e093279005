package core

import (
	"fmt"
	"math/bits"

	"dramscope/internal/host"
)

// RowOrder is the result of the internal row-remapping probe (§III-C
// pitfall 2): the inferred permutation between addressed rows and
// physical wordline order.
//
// All tested devices that scramble rows do so within aligned 4-row
// groups (the Mfr. A pattern), so the result is expressed as a 4-entry
// LUT. The identity LUT means addressed order == physical order. The
// absolute physical direction is unknowable from bitflips alone (the
// paper has the same ambiguity); the LUT is canonicalized so that
// logical row 0 precedes logical row 3 of its group.
type RowOrder struct {
	LUT [4]int
}

// Remapped reports whether the device scrambles row addresses.
func (ro *RowOrder) Remapped() bool {
	return ro.LUT != [4]int{0, 1, 2, 3}
}

// PhysIndex returns the inferred physical position of an addressed
// row. It is its own inverse for the LUTs that occur in practice
// (involutions), and is validated as a bijection by the probe.
func (ro *RowOrder) PhysIndex(row int) int {
	return (row &^ 3) | ro.LUT[row&3]
}

// RowAt returns the addressed row at an inferred physical position.
func (ro *RowOrder) RowAt(phys int) int {
	base := phys &^ 3
	for k := 0; k < 4; k++ {
		if ro.LUT[k] == phys&3 {
			return base | k
		}
	}
	panic("core: LUT is not a permutation")
}

// rowOrderHammerActs is sized so every victim row shows many flips
// (λ >> 1) while staying under the minimum retention time in wall
// time, so the adjacency sets are reliable.
const rowOrderHammerActs = 1_500_000

// ProbeRowOrder recovers the row-address scramble by single-sided
// RowHammer: for each aggressor in a window, the rows that accumulate
// bitflips are its physical neighbors (§III-C, following Kim et al.).
//
// Before each hammer the window must hold all-1 victims around an
// all-0 aggressor. Only rows that may not hold that are re-filled: the
// aggressor, the previous aggressor, and rows that read back with
// flips. Every other row was just read back as all-1, and that read's
// ACT restored its charge just as a fill's would. Less than one hammer
// train passes between a row's restore and its next read, under the
// minimum retention time, so retention cannot tell the two schedules
// apart.
func ProbeRowOrder(h *host.Host, bank int) (*RowOrder, error) {
	const (
		base = 16 // 4-row-group aligned, away from the bank edge
		wnd  = 16 // window size: 4 groups
	)
	if h.Rows() < base+2*wnd {
		return nil, fmt.Errorf("core: bank too small for row-order probe")
	}

	lo, hi := base-4, base+wnd+4 // rows scanned for victims
	adj := make(map[int][]int)   // aggressor -> victim rows

	ones := allOnes(h)
	got := make([]uint64, h.Columns()) // reused across the whole scan
	held := make([]bool, hi-lo)        // rows known to hold all-1
	for aggr := base; aggr < base+wnd; aggr++ {
		// Reset the window: victims all-1, aggressor all-0.
		for r := lo; r < hi; r++ {
			if r != aggr && held[r-lo] {
				continue
			}
			v := ones
			if r == aggr {
				v = 0
			}
			if err := h.FillRow(bank, r, v); err != nil {
				return nil, err
			}
			held[r-lo] = r != aggr
		}
		if err := h.Hammer(bank, aggr, rowOrderHammerActs); err != nil {
			return nil, err
		}
		for r := lo; r < hi; r++ {
			if r == aggr {
				continue
			}
			if err := h.ReadRowInto(bank, r, got); err != nil {
				return nil, err
			}
			flips := 0
			for _, v := range got {
				flips += bits.OnesCount64(v ^ ones)
			}
			if flips > 0 {
				adj[aggr] = append(adj[aggr], r)
				held[r-lo] = false
			}
		}
	}

	lut, err := lutFromAdjacency(adj, base, wnd)
	if err != nil {
		return nil, err
	}
	return &RowOrder{LUT: lut}, nil
}

// lutFromAdjacency reconstructs the physical chain from the adjacency
// sets and expresses it as a 4-row-group LUT.
func lutFromAdjacency(adj map[int][]int, base, wnd int) ([4]int, error) {
	// Build the undirected adjacency restricted to the window.
	nb := make(map[int]map[int]bool)
	link := func(a, b int) {
		if nb[a] == nil {
			nb[a] = make(map[int]bool)
		}
		nb[a][b] = true
	}
	for a, vs := range adj {
		for _, v := range vs {
			if v >= base && v < base+wnd {
				link(a, v)
				link(v, a)
			}
		}
	}
	// Walk the chain from the row with external-or-single linkage:
	// the row adjacent to base-1's physical position has a neighbor
	// outside the window; detect endpoints as rows with exactly one
	// in-window neighbor among hammered rows... Every in-window row
	// was hammered, so endpoints have one in-window neighbor.
	var start = -1
	for r := base; r < base+wnd; r++ {
		if len(nb[r]) == 1 {
			if start == -1 || r < start {
				start = r
			}
		}
	}
	if start == -1 {
		return [4]int{}, fmt.Errorf("core: no chain endpoint found (window may cross a subarray boundary)")
	}
	chain := []int{start}
	visited := map[int]bool{start: true}
	for cur := start; len(chain) < wnd; {
		next, branches := -1, 0
		for n := range nb[cur] {
			if !visited[n] {
				next = n
				branches++
			}
		}
		switch {
		case branches == 0:
			return [4]int{}, fmt.Errorf("core: adjacency chain broke at row %d", cur)
		case branches > 1:
			// Which branch the walk took would depend on map order.
			return [4]int{}, fmt.Errorf("core: adjacency chain branches at row %d (%d unvisited in-window neighbors)", cur, branches)
		}
		chain = append(chain, next)
		visited[next] = true
		cur = next
	}

	// The absolute physical direction is unknowable; canonicalize by
	// ascending logical 4-row groups (the scramble is group-local, so
	// each physical 4-block holds one logical group).
	if (chain[0]-base)/4 > (chain[len(chain)-1]-base)/4 {
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
	}
	lut, ok := lutFromChain(chain, base)
	if !ok {
		return [4]int{}, fmt.Errorf("core: adjacency chain is not 4-group periodic")
	}
	return lut, nil
}

// lutFromChain checks that the chain is consistent with a per-4-group
// permutation and extracts it.
func lutFromChain(chain []int, base int) ([4]int, bool) {
	var lut [4]int
	seen := [4]bool{}
	// First group defines the LUT: position i in the chain holds
	// logical row base+k => LUT[k] = i.
	for i := 0; i < 4; i++ {
		k := chain[i] - base
		if k < 0 || k > 3 || seen[k] {
			return lut, false
		}
		lut[k] = i
		seen[k] = true
	}
	// All later groups must repeat it.
	for g := 1; g*4 < len(chain); g++ {
		for i := 0; i < 4; i++ {
			logical := chain[g*4+i]
			k := logical - base - g*4
			if k < 0 || k > 3 || lut[k] != i {
				return lut, false
			}
		}
	}
	return lut, true
}
