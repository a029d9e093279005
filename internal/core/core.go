// Package core implements DRAMScope itself: the reverse-engineering
// suite that uncovers DRAM microarchitecture and error characteristics
// by issuing memory commands (paper §III-§V).
//
// Every probe observes the device exclusively through the host's
// command interface — activations, reads, writes, and deliberately
// timing-violating sequences. The three mutually cross-validating
// techniques are:
//
//   - activate-induced bitflips (RowHammer §V-B, RowPress §V-B),
//   - RowCopy charge-sharing (§III-B),
//   - retention-time tests (§III-B).
//
// The probes are designed to be run as a pipeline (Discover): row
// order first (§III-C pitfall 2), then subarray structure (§IV-C),
// coupled rows (§IV-B), cell polarity (§III-B), and finally data
// swizzling (§IV-A). Later probes consume earlier results, exactly as
// the paper's analyses build on the remapped row addresses.
package core

import (
	"fmt"

	"dramscope/internal/host"
)

// Mapping aggregates everything the pipeline has reverse-engineered
// about a device. Fields are nil/zero until the corresponding probe
// has run.
type Mapping struct {
	Order     *RowOrder
	Subarrays *SubarrayLayout
	Coupled   *CoupledResult
	Cells     *CellPolarity
	Swizzle   *SwizzleMap
}

// Discover runs the full reverse-engineering pipeline on one bank.
func Discover(h *host.Host, bank int) (*Mapping, error) {
	m := &Mapping{}
	var err error
	if m.Order, err = ProbeRowOrder(h, bank); err != nil {
		return nil, fmt.Errorf("core: row order: %w", err)
	}
	if m.Subarrays, err = ProbeSubarrays(h, bank, m.Order, DefaultSubarrayScan); err != nil {
		return nil, fmt.Errorf("core: subarrays: %w", err)
	}
	if m.Coupled, err = ProbeCoupledRows(h, bank, m.Order); err != nil {
		return nil, fmt.Errorf("core: coupled rows: %w", err)
	}
	if m.Cells, err = ProbeCellPolarity(h, bank, m.Subarrays); err != nil {
		return nil, fmt.Errorf("core: cell polarity: %w", err)
	}
	if m.Swizzle, err = ProbeSwizzle(h, bank, m.Order, m.Subarrays, m.Cells); err != nil {
		return nil, fmt.Errorf("core: swizzle: %w", err)
	}
	return m, nil
}

// allOnes returns a burst of all-1 data for the host's burst width.
func allOnes(h *host.Host) uint64 {
	return uint64(1)<<uint(h.DataWidth()) - 1
}
