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
// The probes form a chain, which expt.Env runs and caches: row order
// first (§III-C pitfall 2), then subarray structure (§IV-C), cell
// polarity (§III-B), and finally data swizzling (§IV-A). The coupled-row
// probe (§IV-B) needs only the row order and runs where an experiment
// asks for it. Later probes consume earlier results, exactly as the
// paper's analyses build on the remapped row addresses.
package core

import "dramscope/internal/host"

// allOnes returns a burst of all-1 data for the host's burst width.
func allOnes(h *host.Host) uint64 {
	return uint64(1)<<uint(h.DataWidth()) - 1
}
