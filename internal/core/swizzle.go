package core

import (
	"fmt"
	"sort"

	"dramscope/internal/host"
)

// SwizzleMap is the recovered chip-internal data swizzle (§IV-A,
// Figures 6-7): how the bits of one RD burst scatter across MATs and
// physical bitline positions.
//
// Like the paper, the probe cannot learn the physical ordering of the
// MATs themselves, so components are normalized by their smallest bit
// class; within a component, the cell order is oriented along
// ascending columns (the backward cross-column edge defines "left").
type SwizzleMap struct {
	// ColumnStride is the column-address stride between cells that
	// share a MAT: 1, or 2 on devices that split even/odd columns
	// across MAT groups (uncoupled x4).
	ColumnStride int
	// Components lists, per MAT, the burst bit classes it serves
	// (sorted ascending). O1: one burst spans multiple MATs.
	Components [][]int
	// Orders lists, per component, the bit classes in physical cell
	// order within one column period.
	Orders [][]int
	// Parity gives each bit class's bitline-parity class (0/1, up to
	// a global flip), from the RowCopy stripe classification.
	Parity []int
	// MATWidthBits is the recovered MAT width in cells (O2).
	MATWidthBits int
	// BitsPerMAT is the number of burst bits each MAT contributes.
	BitsPerMAT int
}

// MATsPerBurst returns the number of MATs serving one burst.
func (s *SwizzleMap) MATsPerBurst() int { return len(s.Components) }

// PhysClass returns the "physically remapped bit index" of a burst
// bit: component ordinal * BitsPerMAT + position within the component
// order. Figure 12 plots BER against this index.
func (s *SwizzleMap) PhysClass(bit int) int {
	for ci, comp := range s.Components {
		for _, c := range comp {
			if c != bit {
				continue
			}
			for pos, v := range s.Orders[ci] {
				if v == bit {
					return ci*s.BitsPerMAT + pos
				}
			}
		}
	}
	return -1
}

// weakCell is a victim cell with a known-small RowHammer threshold,
// found by the hunting pass; all precise measurements are performed on
// weak cells so trials stay inside the refresh-safe time budget.
type weakCell struct {
	row  int // addressed victim row
	aggr int // addressed upper-neighbor aggressor row
	col  int
	bit  int
	hth  int // measured baseline first-flip activation count
}

// swizzle probe tuning.
const (
	huntActs  = 1_000_000 // hunting hammer budget (wall time < min retention)
	huntPairs = 24        // victim/aggressor row pairs hunted
)

// ProbeSwizzle reverse-engineers the data swizzle with the paper's
// two-step method: (1) find each cell's horizontally adjacent cells
// via the AIB horizontal influence (O11), using exact first-flip
// thresholds on weak cells; (2) classify bitline parity via RowCopy
// across a subarray boundary, which separates distance-1 from
// distance-2 neighbors and orients the chain.
//
// pol (optional) is the retention probe's polarity result: the
// influence hunt targets DISCHARGED cells (distance-1 influence
// vanishes for charged targets, Fig. 14a), so on anti-cell subarrays
// the hunting data must be all-1 instead of all-0. A nil pol assumes
// true cells.
func ProbeSwizzle(h *host.Host, bank int, order *RowOrder, sub *SubarrayLayout, pol *CellPolarity) (*SwizzleMap, error) {
	parity, err := probeBitParity(h, bank, order, sub)
	if err != nil {
		return nil, err
	}

	p := &swizzleProber{h: h, bank: bank, order: order, sub: sub}
	// The hunt works inside subarray 1 (interiorBase); choose the
	// data value that leaves its cells discharged.
	if pol != nil && len(pol.AntiBySubarray) > 1 && pol.AntiBySubarray[1] {
		p.vfill = allOnes(h)
	}
	if err := p.hunt(); err != nil {
		return nil, err
	}
	edges, err := p.mapInfluence()
	if err != nil {
		return nil, err
	}
	return assembleSwizzle(h, edges, parity)
}

// probeBitParity RowCopies a marker row across the first in-region
// subarray boundary; burst bits that arrive are on the shared-stripe
// bitline parity, the rest are on the other (§IV-A, Figure 6).
func probeBitParity(h *host.Host, bank int, order *RowOrder, sub *SubarrayLayout) ([]int, error) {
	boundary := -1
	for _, b := range sub.Boundaries {
		isRegionEdge := false
		for _, e := range sub.RegionEdges {
			if e == b {
				isRegionEdge = true
			}
		}
		if !isRegionEdge {
			boundary = b
			break
		}
	}
	if boundary < 0 {
		return nil, fmt.Errorf("core: no stripe-sharing boundary available for parity classification")
	}
	src := order.RowAt(boundary)
	dst := order.RowAt(boundary + 1)

	ones := allOnes(h)
	cols := []int{0, 1}
	covered := make([]int, h.DataWidth()) // votes for "copied"
	for phase := 0; phase < 2; phase++ {
		dstFill := uint64(0)
		if phase == 1 {
			dstFill = ones
		}
		if err := h.WriteCols(bank, src, cols, []uint64{ones, ones}); err != nil {
			return nil, err
		}
		if err := h.WriteCols(bank, dst, cols, []uint64{dstFill, dstFill}); err != nil {
			return nil, err
		}
		if err := h.RowCopy(bank, src, dst); err != nil {
			return nil, err
		}
		got, err := h.ReadCols(bank, dst, cols)
		if err != nil {
			return nil, err
		}
		for _, v := range got {
			for b := 0; b < h.DataWidth(); b++ {
				if (v^dstFill)&(1<<uint(b)) != 0 {
					covered[b]++
				}
			}
		}
	}
	parity := make([]int, h.DataWidth())
	n0 := 0
	for b, votes := range covered {
		if votes > 0 {
			parity[b] = 1
		} else {
			n0++
		}
	}
	if n0 != h.DataWidth()/2 {
		return nil, fmt.Errorf("core: parity classification split %d/%d, want even halves",
			n0, h.DataWidth()-n0)
	}
	return parity, nil
}

type swizzleProber struct {
	h     *host.Host
	bank  int
	order *RowOrder
	sub   *SubarrayLayout
	vfill uint64 // victim fill data that leaves cells discharged

	weak map[int][]weakCell // bit class -> instances
}

// interiorBase picks a physical row deep inside a non-edge subarray.
func (p *swizzleProber) interiorBase() int {
	// Middle of the second subarray: clear of bank edges and of the
	// rows other probes have stressed.
	if len(p.sub.Boundaries) >= 2 {
		return (p.sub.Boundaries[0] + p.sub.Boundaries[1]) / 2
	}
	return p.sub.Boundaries[0] / 2
}

// hunt finds weak victim cells: all-0 victim rows hammered from their
// upper physical neighbor; cells that flip within huntActs have small
// thresholds. Pairs alternate wordline parity so every bit class is
// covered (susceptibility alternates with row parity).
func (p *swizzleProber) hunt() error {
	p.weak = make(map[int][]weakCell)
	base := p.interiorBase()
	h := p.h
	ones := allOnes(h)
	for k := 0; k < huntPairs; k++ {
		vp := base + 3*k
		victim := p.order.RowAt(vp)
		aggr := p.order.RowAt(vp + 1)
		if err := h.FillRow(p.bank, victim, p.vfill); err != nil {
			return err
		}
		if err := h.FillRow(p.bank, aggr, ones^p.vfill); err != nil {
			return err
		}
		if err := h.Hammer(p.bank, aggr, huntActs); err != nil {
			return err
		}
		got, err := h.ReadRow(p.bank, victim)
		if err != nil {
			return err
		}
		for col, v := range got {
			v ^= p.vfill
			for b := 0; v != 0 && b < h.DataWidth(); b++ {
				if v&(1<<uint(b)) != 0 {
					p.weak[b] = append(p.weak[b], weakCell{
						row: victim, aggr: aggr, col: col, bit: b,
					})
				}
			}
		}
	}
	for b := 0; b < h.DataWidth(); b++ {
		if len(p.weak[b]) == 0 {
			return fmt.Errorf("core: no weak cell found for burst bit %d; raise the hunt budget", b)
		}
	}
	return nil
}

// cellNode identifies a candidate relative to a target: a burst bit
// class at a column offset.
type cellNode struct {
	class int
	dcol  int
}

// trial writes the local victim pattern (all-0 except an optional
// candidate cell set to 1), re-arms the aggressor's local columns
// (long measurement campaigns would otherwise let the aggressor's
// charged cells decay, silently changing the victim's data-dependent
// factor), hammers the target's aggressor n times, and reports whether
// the target bit flipped.
func (p *swizzleProber) trial(w weakCell, cand *cellNode, n int) (bool, error) {
	h := p.h
	lo, hi := w.col-2, w.col+2
	if lo < 0 {
		lo = 0
	}
	if hi >= h.Columns() {
		hi = h.Columns() - 1
	}
	cols := make([]int, 0, 5)
	data := make([]uint64, 0, 5)
	aggrData := make([]uint64, 0, 5)
	ones := allOnes(h)
	for c := lo; c <= hi; c++ {
		v := p.vfill
		if cand != nil && c == w.col+cand.dcol {
			v ^= 1 << uint(cand.class)
		}
		cols = append(cols, c)
		data = append(data, v)
		aggrData = append(aggrData, ones^p.vfill)
	}
	if err := h.WriteCols(p.bank, w.row, cols, data); err != nil {
		return false, err
	}
	if err := h.WriteCols(p.bank, w.aggr, cols, aggrData); err != nil {
		return false, err
	}
	if err := h.Hammer(p.bank, w.aggr, n); err != nil {
		return false, err
	}
	got, err := h.ReadCols(p.bank, w.row, []int{w.col})
	if err != nil {
		return false, err
	}
	return (got[0]^p.vfill)&(1<<uint(w.bit)) != 0, nil
}

// bisectHth measures the exact baseline first-flip count of a weak
// cell.
func (p *swizzleProber) bisectHth(w *weakCell) error {
	lo, hi := 1, huntActs
	flip, err := p.trial(*w, nil, hi)
	if err != nil {
		return err
	}
	if !flip {
		return fmt.Errorf("core: stale weak cell at row %d col %d bit %d", w.row, w.col, w.bit)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		flip, err := p.trial(*w, nil, mid)
		if err != nil {
			return err
		}
		if flip {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	w.hth = lo
	return nil
}

// influences reports whether setting the candidate cell opposite to
// the target's value lowers the target's threshold (the O11/O12
// horizontal influence signature).
func (p *swizzleProber) influences(w weakCell, cand cellNode) (bool, error) {
	n := w.hth - w.hth/50 - 1
	if n < 1 {
		return false, fmt.Errorf("core: weak cell threshold %d too small for a differential trial", w.hth)
	}
	return p.trial(w, &cand, n)
}

// mapInfluence finds, for every burst bit class, its horizontally
// adjacent cells among candidates within ±2 columns.
func (p *swizzleProber) mapInfluence() (map[int]map[cellNode]bool, error) {
	h := p.h
	edges := make(map[int]map[cellNode]bool)
	addEdge := func(u int, v cellNode) {
		if edges[u] == nil {
			edges[u] = make(map[cellNode]bool)
		}
		edges[u][v] = true
	}

	for u := 0; u < h.DataWidth(); u++ {
		// Prefer an instance away from the column edges so all five
		// candidate columns exist.
		var w weakCell
		found := false
		for _, cand := range p.weak[u] {
			if cand.col >= 2 && cand.col < h.Columns()-2 {
				w = cand
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: no interior weak cell for bit %d", u)
		}
		if err := p.bisectHth(&w); err != nil {
			return nil, err
		}

		nEdges := 0
		for dcol := -2; dcol <= 2 && nEdges < 4; dcol++ {
			for v := 0; v < h.DataWidth() && nEdges < 4; v++ {
				if dcol == 0 && v == u {
					continue
				}
				// Symmetry: reuse the reverse edge if already found.
				if edges[v][cellNode{u, -dcol}] {
					addEdge(u, cellNode{v, dcol})
					nEdges++
					continue
				}
				// Skip pairs already known non-adjacent from the
				// reverse direction scan.
				if edges[v] != nil && len(edges[v]) == 4 && !edges[v][cellNode{u, -dcol}] {
					continue
				}
				inf, err := p.influences(w, cellNode{v, dcol})
				if err != nil {
					return nil, err
				}
				if inf {
					addEdge(u, cellNode{v, dcol})
					nEdges++
				}
			}
		}
		if nEdges != 4 {
			return nil, fmt.Errorf("core: bit %d has %d horizontal neighbors, want 4", u, nEdges)
		}
	}
	return edges, nil
}

// assembleSwizzle turns influence edges and parity classes into the
// final map: components, physical cell orders, stride, and MAT width.
func assembleSwizzle(h *host.Host, edges map[int]map[cellNode]bool, parity []int) (*SwizzleMap, error) {
	w := h.DataWidth()

	// Column stride: the smallest non-zero |dcol| among edges.
	stride := 0
	for _, es := range edges {
		for e := range es {
			d := e.dcol
			if d < 0 {
				d = -d
			}
			if d != 0 && (stride == 0 || d < stride) {
				stride = d
			}
		}
	}
	if stride == 0 {
		return nil, fmt.Errorf("core: no cross-column influence found")
	}

	// Components: connected bit classes.
	comp := make([]int, w)
	for i := range comp {
		comp[i] = -1
	}
	var components [][]int
	for u := 0; u < w; u++ {
		if comp[u] >= 0 {
			continue
		}
		id := len(components)
		stack := []int{u}
		comp[u] = id
		var members []int
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, x)
			for e := range edges[x] {
				if comp[e.class] < 0 {
					comp[e.class] = id
					stack = append(stack, e.class)
				}
			}
		}
		sort.Ints(members)
		components = append(components, members)
	}
	sort.Slice(components, func(i, j int) bool { return components[i][0] < components[j][0] })

	// Physical order within each component: walk distance-1 edges
	// (parity-different neighbors). The class with a distance-1 edge
	// into the previous column is the leftmost cell of the period.
	orders := make([][]int, len(components))
	for ci, members := range components {
		b := len(members)
		var start int = -1
		for _, u := range members {
			for e := range edges[u] {
				if e.dcol == -stride && parity[e.class] != parity[u] {
					start = u
				}
			}
		}
		if start < 0 {
			return nil, fmt.Errorf("core: component %d has no leftmost cell", ci)
		}
		orderList := []int{start}
		prev := -1
		cur := start
		for len(orderList) < b {
			next := -1
			for e := range edges[cur] {
				if e.dcol == 0 && parity[e.class] != parity[cur] && e.class != prev {
					next = e.class
				}
			}
			if next < 0 {
				return nil, fmt.Errorf("core: order chain broke in component %d at class %d", ci, cur)
			}
			orderList = append(orderList, next)
			prev, cur = cur, next
		}
		orders[ci] = orderList
	}

	bitsPerMAT := len(components[0])
	for _, c := range components {
		if len(c) != bitsPerMAT {
			return nil, fmt.Errorf("core: uneven component sizes")
		}
	}
	return &SwizzleMap{
		ColumnStride: stride,
		Components:   components,
		Orders:       orders,
		Parity:       parity,
		MATWidthBits: h.Columns() / stride * bitsPerMAT,
		BitsPerMAT:   bitsPerMAT,
	}, nil
}
