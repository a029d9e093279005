package core

import (
	"fmt"
	"math/bits"

	"dramscope/internal/host"
	"dramscope/internal/sim"
)

// CellPolarity is the result of the retention-time probe (§III-B): the
// true-cell/anti-cell layout of the device.
type CellPolarity struct {
	// AntiBySubarray[i] reports whether subarray i (in scanned
	// physical order) stores logical 1 as a discharged capacitor.
	AntiBySubarray []bool
	// Interleaved reports the Mfr. C pattern: polarity alternating at
	// subarray granularity.
	Interleaved bool
}

// retentionWait is long enough that a majority of charged cells decay
// (the probe needs a strong majority signal, not a precise time).
const retentionWait = 5000 * sim.Second

// ProbeCellPolarity distinguishes true-cells from anti-cells. Charge
// only ever leaks from the charged state, so after a long unrefreshed
// wait, a row written with all-1 data decays heavily on true cells
// and not at all on anti cells (§III-B).
func ProbeCellPolarity(h *host.Host, bank int, sub *SubarrayLayout) (*CellPolarity, error) {
	// One sample row per scanned subarray: the row after each
	// boundary, plus row 0 for the leading subarray.
	samples := []int{0}
	for _, b := range sub.Boundaries {
		samples = append(samples, b+1)
	}
	cols := []int{0, 1}
	ones := allOnes(h)
	fill := func(row int, v uint64) error {
		data := []uint64{v, v}
		return h.WriteCols(bank, row, cols, data)
	}

	decayed := func(row int, wrote uint64) (int, error) {
		got, err := h.ReadCols(bank, row, cols)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, v := range got {
			n += bits.OnesCount64(v ^ wrote)
		}
		return n, nil
	}

	// Pass 1: all-1 data everywhere, one long wait.
	for _, r := range samples {
		if err := fill(r, ones); err != nil {
			return nil, err
		}
	}
	if err := h.Wait(retentionWait); err != nil {
		return nil, err
	}
	onesDecay := make([]int, len(samples))
	for i, r := range samples {
		n, err := decayed(r, ones)
		if err != nil {
			return nil, err
		}
		onesDecay[i] = n
	}

	// Pass 2: all-0 data.
	for _, r := range samples {
		if err := fill(r, 0); err != nil {
			return nil, err
		}
	}
	if err := h.Wait(retentionWait); err != nil {
		return nil, err
	}
	zerosDecay := make([]int, len(samples))
	for i, r := range samples {
		n, err := decayed(r, 0)
		if err != nil {
			return nil, err
		}
		zerosDecay[i] = n
	}

	out := &CellPolarity{AntiBySubarray: make([]bool, len(samples))}
	total := len(cols) * h.DataWidth()
	for i := range samples {
		hi, lo := onesDecay[i], zerosDecay[i]
		switch {
		case hi > total/4 && lo <= total/20:
			out.AntiBySubarray[i] = false // 1 = charged: true cells
		case lo > total/4 && hi <= total/20:
			out.AntiBySubarray[i] = true // 0 = charged: anti cells
		default:
			return nil, fmt.Errorf("core: ambiguous retention signature in subarray %d (1s decay %d, 0s decay %d)",
				i, hi, lo)
		}
	}
	for i := 1; i < len(out.AntiBySubarray); i++ {
		if out.AntiBySubarray[i] != out.AntiBySubarray[i-1] {
			out.Interleaved = true
		}
	}
	return out, nil
}
