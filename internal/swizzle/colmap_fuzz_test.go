package swizzle

import "testing"

// FuzzColmap fuzzes the ground-truth column map over randomized
// geometries: the logical->physical mapping and its inverse must be
// exact bijections for every shape the constructor accepts. The
// selector encoding maps any 4 input bytes onto a plausible geometry
// so mutations stay productive:
//
//	rowBits   = 64 << (a % 8)   (64 .. 8192 cells per wordline)
//	matWidth  = 32 << (b % 6)   (32 .. 1024 cells per MAT)
//	dataWidth = 8 * (1 + c % 8) (8 .. 64 bits per burst)
//	source    = d % 3           (AllMATs / RowHalf / ColumnLSB)
//
// The seed corpus (f.Add plus testdata/fuzz/FuzzColmap) covers every
// catalog geometry: x4 ColumnLSB, coupled x4 RowHalf, x8 AllMATs, and
// the 1024-cell-MAT Mfr. B shapes.
func FuzzColmap(f *testing.F) {
	f.Add(uint8(7), uint8(4), uint8(3), uint8(2)) // MfrA x4, uncoupled (ColumnLSB)
	f.Add(uint8(7), uint8(4), uint8(3), uint8(1)) // MfrA x4, coupled (RowHalf)
	f.Add(uint8(7), uint8(4), uint8(7), uint8(0)) // MfrA x8 (AllMATs)
	f.Add(uint8(7), uint8(5), uint8(7), uint8(0)) // MfrB x8, 1024-cell MATs
	f.Add(uint8(7), uint8(5), uint8(3), uint8(1)) // MfrB x4, coupled
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0)) // minimal geometry
	f.Fuzz(func(t *testing.T, a, b, c, d uint8) {
		rowBits := 64 << (a % 8)
		matWidth := 32 << (b % 6)
		dataWidth := 8 * (1 + int(c)%8)
		source := HalfSource(d % 3)
		m, err := NewColumnMap(rowBits, matWidth, dataWidth, source)
		if err != nil {
			return // constructor rejected the geometry; nothing to map
		}

		// Inverse round trip: every physical bitline position maps to a
		// logical coordinate that maps back to it.
		for x := 0; x < rowBits; x++ {
			col, bit, half := m.FromPhysBL(x)
			if y := m.PhysBL(col, bit, half); y != x {
				t.Fatalf("rowBits=%d mat=%d width=%d src=%d: FromPhysBL(%d) = (%d,%d,%d) maps back to %d",
					rowBits, matWidth, dataWidth, source, x, col, bit, half, y)
			}
		}

		// Forward round trip and bijection: every logical coordinate
		// lands on a distinct in-range physical position and maps back
		// to itself.
		seen := make([]bool, rowBits)
		count := 0
		for half := 0; half < m.Halves(); half++ {
			for col := 0; col < m.Columns(); col++ {
				for bit := 0; bit < m.DataWidth(); bit++ {
					x := m.PhysBL(col, bit, half)
					if x < 0 || x >= rowBits {
						t.Fatalf("PhysBL(%d,%d,%d) = %d out of range [0,%d)", col, bit, half, x, rowBits)
					}
					if seen[x] {
						t.Fatalf("PhysBL(%d,%d,%d) = %d already mapped", col, bit, half, x)
					}
					seen[x] = true
					count++
					// The exported field layout composes to PhysBL.
					if o, pos := m.BitPosition(bit); m.FieldBase(col, half, o)+pos != x {
						t.Fatalf("FieldBase(%d,%d,%d)+%d != PhysBL = %d", col, half, o, pos, x)
					}
					c2, b2, h2 := m.FromPhysBL(x)
					if c2 != col || b2 != bit || h2 != half {
						t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)",
							col, bit, half, x, c2, b2, h2)
					}
				}
			}
		}
		if count != rowBits {
			t.Fatalf("mapping covers %d of %d cells", count, rowBits)
		}
	})
}
