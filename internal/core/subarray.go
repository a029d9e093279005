package core

import (
	"fmt"
	"math/bits"

	"dramscope/internal/host"
)

// SubarrayLayout is the result of the RowCopy-based subarray probe
// (§IV-C): boundaries, heights, open-bitline evidence, cross-boundary
// copy polarity, and the edge-subarray pairing.
//
// All row indices in this struct are in *inferred physical order* —
// positions under the RowOrder mapping — matching the paper's
// convention of analyzing remapped row addresses.
type SubarrayLayout struct {
	// ScannedRows is the physical-order prefix that was scanned.
	ScannedRows int
	// Boundaries lists physical positions p such that rows p and p+1
	// lie in different subarrays.
	Boundaries []int
	// RegionEdges lists physical positions p where rows p and p+1
	// share no bitlines at all: the dummy-bitline gap between edge
	// regions.
	RegionEdges []int
	// Heights lists the subarray heights found between boundaries
	// (first and last entries are omitted if truncated by the scan
	// range; Heights covers fully-enclosed subarrays plus the leading
	// subarray which starts at row 0).
	Heights []int
	// OpenBitline reports that every cross-boundary copy moved only
	// half the columns — the open-bitline signature (§IV-C).
	OpenBitline bool
	// InvertedCopy reports whether cross-boundary copies returned
	// inverted data (true for true-cell-only devices; false when
	// true-/anti-cells interleave per subarray, §III-B).
	InvertedCopy bool
	// EdgeRegionSubarrays is the number of consecutive subarrays
	// forming one edge region: the first and last subarray of each
	// region are RowCopy-coupled tandem partners (O5). Zero if no
	// pairing was found in the scanned range.
	EdgeRegionSubarrays int
}

// SubarrayScan configures the probe.
type SubarrayScan struct {
	// MaxRows bounds the physical-order prefix the boundary search
	// covers (0 = the whole bank).
	MaxRows int
	// Cols are the burst columns sampled per RowCopy classification.
	Cols []int
}

// DefaultSubarrayScan scans up to 40960 physical rows with four
// sample columns — enough to cover a full edge region of every
// catalog device.
var DefaultSubarrayScan = SubarrayScan{
	MaxRows: 40960,
	Cols:    []int{0, 1, 2, 3},
}

// copyClass classifies one RowCopy attempt.
type copyClass uint8

const (
	copyNothing copyClass = iota
	copyHalf
	copyFull
)

// copyClassifier runs RowCopy classification attempts with reusable
// fill/readback buffers, so the boundary search — hundreds of
// classifications per bank — issues nothing but command batches.
type copyClassifier struct {
	h    *host.Host
	bank int
	cols []int
	data []uint64
	got  []uint64
}

func newCopyClassifier(h *host.Host, bank int, cols []int) *copyClassifier {
	return &copyClassifier{
		h: h, bank: bank, cols: cols,
		data: make([]uint64, len(cols)),
		got:  make([]uint64, len(cols)),
	}
}

func (cc *copyClassifier) fill(row int, v uint64) error {
	for i := range cc.data {
		cc.data[i] = v
	}
	return cc.h.WriteCols(cc.bank, row, cc.cols, cc.data)
}

// classify writes an all-1 source image and probes whether the
// destination picks it up as-is (polarity 0) or inverted (polarity 1),
// over the sampled columns. It returns the coverage class and the
// polarity (meaningful only when coverage > none).
func (cc *copyClassifier) classify(src, dst int) (copyClass, int, error) {
	h, bank, cols := cc.h, cc.bank, cc.cols
	ones := allOnes(h)

	// Phase a: src=1, dst=0. Non-inverted copies surface as 1s.
	if err := cc.fill(src, ones); err != nil {
		return 0, 0, err
	}
	if err := cc.fill(dst, 0); err != nil {
		return 0, 0, err
	}
	if err := h.RowCopy(bank, src, dst); err != nil {
		return 0, 0, err
	}
	if err := h.ReadColsInto(bank, dst, cols, cc.got); err != nil {
		return 0, 0, err
	}
	changed := 0
	for _, v := range cc.got {
		changed += bits.OnesCount64(v)
	}
	total := len(cols) * h.DataWidth()
	if cls := coverage(changed, total); cls != copyNothing {
		return cls, 0, nil
	}

	// Phase c: src=1, dst=1. Inverted copies surface as 0s.
	if err := cc.fill(src, ones); err != nil {
		return 0, 0, err
	}
	if err := cc.fill(dst, ones); err != nil {
		return 0, 0, err
	}
	if err := h.RowCopy(bank, src, dst); err != nil {
		return 0, 0, err
	}
	if err := h.ReadColsInto(bank, dst, cols, cc.got); err != nil {
		return 0, 0, err
	}
	changed = 0
	for _, v := range cc.got {
		changed += bits.OnesCount64(v ^ ones)
	}
	return coverage(changed, total), 1, nil
}

// classifyCopy is the one-shot form of copyClassifier.classify.
func classifyCopy(h *host.Host, bank, src, dst int, cols []int) (copyClass, int, error) {
	return newCopyClassifier(h, bank, cols).classify(src, dst)
}

// coverage buckets a changed-bit count into none/half/full.
func coverage(changed, total int) copyClass {
	switch {
	case changed >= total*9/10:
		return copyFull
	case changed >= total*3/10 && changed <= total*7/10:
		return copyHalf
	default:
		return copyNothing
	}
}

// ProbeSubarrays finds the subarray boundaries with RowCopy (§IV-C):
// inside a subarray a copy moves every column, between adjacent
// subarrays it moves only the shared-stripe half, and across a region
// edge it moves nothing. Because a copy is full between any two rows of
// one subarray and never between two subarrays, the probe searches
// instead of walking every adjacent pair as the paper does: from each
// subarray's first row p it gallops (p+1, p+2, p+4, ...) to the first
// row that does not copy fully, bisects back to the last row b that
// does, and classifies the adjacent pair (b, b+1) to record the
// boundary, any region edge and the copy's polarity. That is about
// 2·log2(height)+1 classifications per subarray instead of one per row.
// The search reads no ground truth and assumes no minimum height.
func ProbeSubarrays(h *host.Host, bank int, order *RowOrder, scan SubarrayScan) (*SubarrayLayout, error) {
	s := newLayoutScan(h, bank, order, scan)
	n := s.out.ScannedRows
	for p := 0; p+1 < n; {
		// Invariant: (p, lo) copies fully; (p, hi) does not, or hi == n.
		lo, hi := p, n
		for step := 1; p+step < n; step *= 2 { // gallop
			cls, _, err := s.classify(p, p+step)
			if err != nil {
				return nil, err
			}
			if cls != copyFull {
				hi = p + step
				break
			}
			lo = p + step
		}
		for hi-lo > 1 { // bisect
			mid := lo + (hi-lo)/2
			cls, _, err := s.classify(p, mid)
			if err != nil {
				return nil, err
			}
			if cls == copyFull {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo+1 >= n {
			break // the scan range ends inside this subarray
		}
		cls, pol, err := s.classify(lo, lo+1)
		if err != nil {
			return nil, err
		}
		if cls == copyFull {
			return nil, fmt.Errorf("core: rowcopy scan: physical row %d copies fully from row %d but not from row %d",
				lo+1, lo, p)
		}
		s.record(lo, cls, pol)
		p = lo + 1
	}
	return s.finish()
}

// layoutScan holds the state of one subarray probe: the classifier,
// the layout being built, and the polarity votes of the cross-boundary
// copies. The probe and the tests' exhaustive reference walk share it,
// so both record boundaries and finish the layout the same way.
type layoutScan struct {
	h     *host.Host
	order *RowOrder
	cc    *copyClassifier
	out   *SubarrayLayout

	invertedVotes, totalVotes int
}

func newLayoutScan(h *host.Host, bank int, order *RowOrder, scan SubarrayScan) *layoutScan {
	n := h.Rows()
	if scan.MaxRows > 0 && scan.MaxRows < n {
		n = scan.MaxRows
	}
	if len(scan.Cols) == 0 {
		scan.Cols = DefaultSubarrayScan.Cols
	}
	return &layoutScan{
		h: h, order: order,
		cc:  newCopyClassifier(h, bank, scan.Cols),
		out: &SubarrayLayout{ScannedRows: n, OpenBitline: true},
	}
}

// classify RowCopies physical position a onto physical position b.
func (s *layoutScan) classify(a, b int) (copyClass, int, error) {
	cls, pol, err := s.cc.classify(s.order.RowAt(a), s.order.RowAt(b))
	if err != nil {
		return 0, 0, fmt.Errorf("core: rowcopy scan at physical rows %d->%d: %w", a, b, err)
	}
	return cls, pol, nil
}

// record files the classification of the adjacent pair (p, p+1).
func (s *layoutScan) record(p int, cls copyClass, pol int) {
	switch cls {
	case copyFull:
		// Same subarray.
	case copyHalf:
		s.out.Boundaries = append(s.out.Boundaries, p)
		s.totalVotes++
		s.invertedVotes += pol
	default:
		// No shared bitlines between physically consecutive rows:
		// the dummy-bitline gap between edge regions.
		s.out.Boundaries = append(s.out.Boundaries, p)
		s.out.RegionEdges = append(s.out.RegionEdges, p)
	}
}

// finish derives the heights and the edge pairing from the recorded
// boundaries.
func (s *layoutScan) finish() (*SubarrayLayout, error) {
	out, n, order := s.out, s.out.ScannedRows, s.order
	if len(out.Boundaries) == 0 {
		return nil, fmt.Errorf("core: no subarray boundary within %d rows; increase scan range", n)
	}
	out.InvertedCopy = s.invertedVotes*2 > s.totalVotes

	// Heights between consecutive boundaries; the leading subarray
	// starts at physical row 0.
	prev := -1
	for _, b := range out.Boundaries {
		out.Heights = append(out.Heights, b-prev)
		prev = b
	}
	// When the scan reached the end of the bank, the final subarray
	// has no trailing boundary; close it so the composition is
	// complete.
	if n == s.h.Rows() && prev < n-1 {
		out.Heights = append(out.Heights, n-1-prev)
	}

	// Edge pairing (O5): try to RowCopy from the first row of the
	// bank into the same-offset row of each later subarray's start; a
	// half-copy between non-adjacent subarrays reveals the tandem
	// partner and hence the region size.
	starts := []int{0}
	for _, b := range out.Boundaries {
		starts = append(starts, b+1)
	}
	for k := 2; k < len(starts); k++ {
		src := order.RowAt(0)
		dst := order.RowAt(starts[k])
		cls, _, err := s.cc.classify(src, dst)
		if err != nil {
			return nil, err
		}
		if cls == copyHalf {
			out.EdgeRegionSubarrays = k + 1
			break
		}
	}
	return out, nil
}
