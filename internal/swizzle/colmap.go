// Package swizzle holds the ground-truth column-dimension mappings of
// the simulated devices: the chip-internal data swizzle that scatters
// one RD burst across multiple MATs (paper §IV-A, Figure 7), the
// module-to-chip DQ pin twisting (§III-C pitfall 3, Figure 5c), and
// the RCD address inversion of registered DIMMs (§III-C pitfall 1,
// Figure 5b).
//
// Like package topo, nothing here is directly observable by the
// reverse-engineering suite; probes must reconstruct these maps from
// AIB and RowCopy behaviour alone.
package swizzle

import "fmt"

// HalfSource describes how a device selects the MAT group serving a
// given access when only half the MATs participate per burst.
type HalfSource uint8

const (
	// AllMATs: every MAT serves every column (x8 devices: the full
	// 8192-cell wordline belongs to one logical row).
	AllMATs HalfSource = iota
	// RowHalf: the addressed row's coupled half selects even or odd
	// MATs (coupled x4 devices: rows i and i+N/2 share a wordline).
	RowHalf
	// ColumnLSB: the column address LSB selects even or odd MATs
	// (uncoupled x4 devices).
	ColumnLSB
)

// ColumnMap is the ground-truth chip-internal swizzle: a bijection
// between logical (column, bit-within-burst, half) coordinates and
// physical bitline positions along the wordline.
//
// Layout model (matches the reverse-engineered structure of Fig. 7):
// each participating MAT contributes bitsPerMAT bits to a burst; bits
// are grouped in (even,odd) index pairs; within a MAT, one column's
// cells are contiguous, ordered so that a burst bit's horizontally
// adjacent cells are the ones the paper's example reports (bit 0 of a
// burst is adjacent to bits 16 and 1 of the same burst and bits 17
// and 1 of the previous burst, for the Mfr. A x4 geometry).
type ColumnMap struct {
	rowBits   int // cells per physical wordline
	matWidth  int // cells per MAT
	dataWidth int // bits per burst (RDdata): 8 x chip width
	source    HalfSource

	nmats      int // MATs per wordline
	nOwned     int // MATs serving one burst
	bitsPerMAT int // burst bits contributed by each serving MAT
	pairGroups int // bitsPerMAT / 2
	columns    int // bursts per logical row
}

// NewColumnMap validates the geometry and builds the map.
func NewColumnMap(rowBits, matWidth, dataWidth int, source HalfSource) (*ColumnMap, error) {
	m := &ColumnMap{
		rowBits: rowBits, matWidth: matWidth, dataWidth: dataWidth, source: source,
	}
	if rowBits <= 0 || matWidth <= 0 || rowBits%matWidth != 0 {
		return nil, fmt.Errorf("swizzle: MAT width %d must divide row bits %d", matWidth, rowBits)
	}
	m.nmats = rowBits / matWidth
	if dataWidth <= 0 || dataWidth > 64 || dataWidth%8 != 0 {
		return nil, fmt.Errorf("swizzle: burst width %d must be a multiple of 8 up to 64", dataWidth)
	}
	m.nOwned = m.nmats
	if source != AllMATs {
		if m.nmats%2 != 0 {
			return nil, fmt.Errorf("swizzle: half-selected layouts need an even MAT count, got %d", m.nmats)
		}
		m.nOwned = m.nmats / 2
	}
	if dataWidth%m.nOwned != 0 {
		return nil, fmt.Errorf("swizzle: %d serving MATs cannot evenly supply a %d-bit burst", m.nOwned, dataWidth)
	}
	m.bitsPerMAT = dataWidth / m.nOwned
	if m.bitsPerMAT%4 != 0 {
		return nil, fmt.Errorf("swizzle: bits per MAT %d must be a multiple of 4 (paired quads)", m.bitsPerMAT)
	}
	m.pairGroups = m.bitsPerMAT / 2
	ownedBits := m.rowBits
	if source == RowHalf {
		ownedBits /= 2
	}
	m.columns = ownedBits / dataWidth
	if m.matWidth%m.bitsPerMAT != 0 {
		return nil, fmt.Errorf("swizzle: bits per MAT %d must divide MAT width %d", m.bitsPerMAT, m.matWidth)
	}
	return m, nil
}

// MustColumnMap is NewColumnMap that panics on error.
func MustColumnMap(rowBits, matWidth, dataWidth int, source HalfSource) *ColumnMap {
	m, err := NewColumnMap(rowBits, matWidth, dataWidth, source)
	if err != nil {
		panic(err)
	}
	return m
}

// Columns returns the number of bursts addressable within one logical
// row.
func (m *ColumnMap) Columns() int { return m.columns }

// DataWidth returns the burst width in bits.
func (m *ColumnMap) DataWidth() int { return m.dataWidth }

// Halves reports whether the map distinguishes two row halves
// (coupled devices).
func (m *ColumnMap) Halves() int {
	if m.source == RowHalf {
		return 2
	}
	return 1
}

// ServingMATs returns how many MATs serve one burst.
func (m *ColumnMap) ServingMATs() int { return m.nOwned }

// BitsPerMAT returns how many burst bits each serving MAT contributes:
// the width of one field.
func (m *ColumnMap) BitsPerMAT() int { return m.bitsPerMAT }

// BitPosition returns the serving-MAT ordinal of burst bit i and the
// bit's cell offset (0..BitsPerMAT-1) within that MAT's field. It is
// the same for every column and half:
//
//	PhysBL(col, i, half) == FieldBase(col, half, ordinal) + pos
//
// The quad order [lo, hi, lo+1, hi+1] reproduces the paper's adjacency
// example.
func (m *ColumnMap) BitPosition(i int) (ordinal, pos int) {
	ordinal = (i / 2) % m.nOwned
	k := (i / 2) / m.nOwned // pair-group index 0..pairGroups-1
	parity := i & 1
	half := m.pairGroups / 2
	if half == 0 {
		// bitsPerMAT == 2 is rejected by the constructor; pairGroups
		// is always >= 2 here.
		panic("swizzle: internal: pairGroups < 2")
	}
	if k < half {
		pos = k*4 + 0 + 2*parity // "lo" slot of quad k
	} else {
		pos = (k-half)*4 + 1 + 2*parity // "hi" slot of quad k-half
	}
	return ordinal, pos
}

// FieldBase returns the first physical bitline of the field that the
// serving MAT with the given ordinal contributes to (col, half): its
// BitsPerMAT cells are contiguous from there.
func (m *ColumnMap) FieldBase(col, half, ordinal int) int {
	mat, intraCol := m.physMAT(col, half, ordinal)
	return mat*m.matWidth + intraCol*m.bitsPerMAT
}

// bitFromPosition inverts BitPosition.
func (m *ColumnMap) bitFromPosition(ordinal, pos int) int {
	quad := pos / 4
	slot := pos % 4
	half := m.pairGroups / 2
	var k, parity int
	switch slot {
	case 0:
		k, parity = quad, 0
	case 1:
		k, parity = quad+half, 0
	case 2:
		k, parity = quad, 1
	default:
		k, parity = quad+half, 1
	}
	return (k*m.nOwned+ordinal)*2 + parity
}

// physMAT returns the physical MAT index serving (column, half) for a
// given serving ordinal, and the intra-MAT column index.
func (m *ColumnMap) physMAT(col, half, ordinal int) (mat, intraCol int) {
	switch m.source {
	case AllMATs:
		return ordinal, col
	case RowHalf:
		return 2*ordinal + half, col
	default: // ColumnLSB
		return 2*ordinal + (col & 1), col >> 1
	}
}

// PhysBL maps a logical (column, burst bit, row half) coordinate to
// the physical bitline position on the wordline.
func (m *ColumnMap) PhysBL(col, bit, half int) int {
	if col < 0 || col >= m.columns {
		panic(fmt.Sprintf("swizzle: column %d out of range [0,%d)", col, m.columns))
	}
	if bit < 0 || bit >= m.dataWidth {
		panic(fmt.Sprintf("swizzle: bit %d out of range [0,%d)", bit, m.dataWidth))
	}
	if half < 0 || half >= m.Halves() {
		panic(fmt.Sprintf("swizzle: half %d out of range [0,%d)", half, m.Halves()))
	}
	ordinal, pos := m.BitPosition(bit)
	return m.FieldBase(col, half, ordinal) + pos
}

// FromPhysBL inverts PhysBL: it returns the logical coordinate of the
// cell at physical bitline x.
func (m *ColumnMap) FromPhysBL(x int) (col, bit, half int) {
	if x < 0 || x >= m.rowBits {
		panic(fmt.Sprintf("swizzle: bitline %d out of range [0,%d)", x, m.rowBits))
	}
	mat := x / m.matWidth
	off := x % m.matWidth
	intraCol := off / m.bitsPerMAT
	pos := off % m.bitsPerMAT
	var ordinal int
	switch m.source {
	case AllMATs:
		ordinal, col, half = mat, intraCol, 0
	case RowHalf:
		ordinal, half = mat/2, mat%2
		col = intraCol
	default: // ColumnLSB
		ordinal, half = mat/2, 0
		col = intraCol*2 + mat%2
	}
	bit = m.bitFromPosition(ordinal, pos)
	return col, bit, half
}

// MATOf returns the physical MAT index of bitline x.
func (m *ColumnMap) MATOf(x int) int { return x / m.matWidth }

// SameMAT reports whether two bitline positions lie in the same MAT.
// Peripheral circuits between MATs (local row decoders, sub-wordline
// drivers) isolate cells in different MATs from each other's
// horizontal AIB influence (§IV-A).
func (m *ColumnMap) SameMAT(a, b int) bool { return m.MATOf(a) == m.MATOf(b) }
