package swizzle

// RCD models the registered clock driver of an RDIMM/LRDIMM (§III-C
// pitfall 1, Figure 5b). To cut simultaneous output switching current,
// the RCD drives the B-side chips with *inverted* address bits by
// default (JEDEC DDR4RCD02 [21]); the A-side receives the address
// unchanged.
//
// The inversion is transparent to plain reads and writes (the same
// inversion applies on both), but it silently relocates rows for half
// the chips: module rows that are adjacent on the A side are usually,
// but not always, adjacent on the B side. Ignoring it produced the
// phantom "non-adjacent RowHammer", "half-row", and spare-row
// misreadings the paper debunks.
type RCD struct {
	// RowInvertMask selects the row-address bits inverted on B-side
	// outputs.
	RowInvertMask int
	// BSide[i] reports whether chip i hangs off the inverted B-side
	// outputs.
	BSide []bool
}

// NewRCD builds an RCD for the given chip count with the default
// DDR4RCD02-style inversion: row bits 3..9 inverted, chips in the
// upper half of the DIMM on the B side.
func NewRCD(chips int) RCD {
	b := make([]bool, chips)
	for i := chips / 2; i < chips; i++ {
		b[i] = true
	}
	return RCD{RowInvertMask: 0x3F8, BSide: b}
}

// RowTo returns the row address chip sees when the host issues
// moduleRow, folding the inversion into the chip's row space.
func (r RCD) RowTo(chip, moduleRow, rowCount int) int {
	if !r.BSide[chip] {
		return moduleRow
	}
	return (moduleRow ^ r.RowInvertMask) & (rowCount - 1)
}

// Inverts reports whether the given chip receives inverted addresses.
func (r RCD) Inverts(chip int) bool {
	return r.BSide[chip] && r.RowInvertMask != 0
}
