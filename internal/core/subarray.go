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
	// MaxRows bounds the linear boundary scan (0 = scan everything).
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
// fill/readback buffers, so the boundary scan — tens of thousands of
// classifications — issues nothing but command batches.
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

// ProbeSubarrays runs the RowCopy boundary scan (§IV-C): walking rows
// in inferred physical order, a copy onto the next row moves every
// column inside a subarray but only the shared-stripe half across a
// boundary.
func ProbeSubarrays(h *host.Host, bank int, order *RowOrder, scan SubarrayScan) (*SubarrayLayout, error) {
	n := h.Rows()
	if scan.MaxRows > 0 && scan.MaxRows < n {
		n = scan.MaxRows
	}
	if len(scan.Cols) == 0 {
		scan.Cols = DefaultSubarrayScan.Cols
	}

	out := &SubarrayLayout{ScannedRows: n, OpenBitline: true}
	sawBoundary := false
	invertedVotes, totalVotes := 0, 0
	cc := newCopyClassifier(h, bank, scan.Cols)
	for p := 0; p+1 < n; p++ {
		src, dst := order.RowAt(p), order.RowAt(p+1)
		cls, pol, err := cc.classify(src, dst)
		if err != nil {
			return nil, fmt.Errorf("core: rowcopy scan at physical row %d: %w", p, err)
		}
		switch cls {
		case copyFull:
			// Same subarray.
		case copyHalf:
			out.Boundaries = append(out.Boundaries, p)
			sawBoundary = true
			totalVotes++
			invertedVotes += pol
		default:
			// No shared bitlines between physically consecutive rows:
			// the dummy-bitline gap between edge regions.
			out.Boundaries = append(out.Boundaries, p)
			out.RegionEdges = append(out.RegionEdges, p)
			sawBoundary = true
		}
	}
	if !sawBoundary {
		return nil, fmt.Errorf("core: no subarray boundary within %d rows; increase scan range", n)
	}
	out.InvertedCopy = invertedVotes*2 > totalVotes

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
	if n == h.Rows() && prev < n-1 {
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
		cls, _, err := cc.classify(src, dst)
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
