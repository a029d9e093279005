package chip

import (
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/swizzle"
	"dramscope/internal/topo"
)

// refReadBurst is the scalar definition of RD's data path: one
// ColumnMap.PhysBL lookup per burst bit.
func refReadBurst(cm *swizzle.ColumnMap, charge []uint64, col, half int) uint64 {
	var data uint64
	for bit := 0; bit < cm.DataWidth(); bit++ {
		if getBit(charge, cm.PhysBL(col, bit, half)) {
			data |= 1 << uint(bit)
		}
	}
	return data
}

// refWriteBurst is the scalar definition of WR's data path. Bits at or
// above DataWidth are never looked at.
func refWriteBurst(cm *swizzle.ColumnMap, charge []uint64, col, half int, data uint64) {
	for bit := 0; bit < cm.DataWidth(); bit++ {
		x := cm.PhysBL(col, bit, half)
		if data&(1<<uint(bit)) != 0 {
			charge[x>>6] |= 1 << uint(x&63)
		} else {
			charge[x>>6] &^= 1 << uint(x&63)
		}
	}
}

// checkBurstMap drives every burst of a column map through the
// word-grouped kernels and the scalar reference, both polarities, and
// compares readback and every charge word bit for bit. WR data carries
// garbage above DataWidth, which both sides must ignore.
func checkBurstMap(t testing.TB, cm *swizzle.ColumnMap, s *xorshift) {
	words := (cm.Halves()*cm.Columns()*cm.DataWidth() + 63) / 64
	m := newBurstMap(cm, words)
	charge := make([]uint64, words)
	for w := range charge {
		charge[w] = s.next()
	}
	got, want := make([]uint64, words), make([]uint64, words)
	mask := widthMask(cm.DataWidth())
	for half := 0; half < cm.Halves(); half++ {
		for col := 0; col < cm.Columns(); col++ {
			if g, w := m.read(charge, col, half), refReadBurst(cm, charge, col, half); g != w {
				t.Fatalf("%d-bit burst (col %d, half %d): kernel read %#x, PhysBL %#x",
					cm.DataWidth(), col, half, g, w)
			}
			for _, inv := range []uint64{0, mask} {
				data := s.next() ^ inv
				copy(got, charge)
				copy(want, charge)
				m.store(got, col, half, m.image(data))
				refWriteBurst(cm, want, col, half, data)
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%d-bit burst (col %d, half %d) write %#x: word %d kernel %#x, PhysBL %#x",
							cm.DataWidth(), col, half, data, w, got[w], want[w])
					}
				}
			}
		}
	}
}

// chipStrideWalk writes and reads back strided RD/WR batches on both
// halves of an anti-cell and a true-cell wordline of a real chip, and
// checks the stored charge and the readback against the reference.
func chipStrideWalk(t *testing.T, c *Chip, s *xorshift) {
	tp, cm := c.Topology(), c.ColumnMap()
	mask := widthMask(cm.DataWidth())
	tm := c.Timing()
	at := sim.Time(0)
	for sub := 0; sub < 2 && sub < tp.SubarrayCount(); sub++ {
		start, _ := tp.SubarrayBounds(sub)
		wl := start + 1
		var inv uint64
		if tp.AntiCells(sub) {
			inv = mask
		}
		for half := 0; half < cm.Halves(); half++ {
			row := tp.UnmapRow(wl, half)
			for _, stride := range []int{1, 3, 7} {
				first := int(s.next() % uint64(stride))
				count := (cm.Columns() - first + stride - 1) / stride
				data := make([]uint64, count)
				for i := range data {
					data[i] = s.next() // garbage above DataWidth included
				}
				if stride == 7 {
					data = data[:1] // a broadcast burst
				}

				at += tm.TRP + sim.Nanosecond
				if _, err := c.Exec(sim.Command{Op: sim.ACT, At: at, Row: row}); err != nil {
					t.Fatal(err)
				}
				want := append([]uint64(nil), c.banks[0].rows[wl].charge...)
				for i := 0; i < count; i++ {
					d := data[0]
					if len(data) > 1 {
						d = data[i]
					}
					refWriteBurst(cm, want, first+i*stride, half, d^inv)
				}
				wr := sim.Batch{Op: sim.WR, At: at + tm.TRCD, Gap: tm.TRCD,
					Col: first, Stride: stride, Count: count, Data: data}
				if err := c.ExecBatch(wr, nil); err != nil {
					t.Fatal(err)
				}
				for w, v := range c.banks[0].rows[wl].charge {
					if v != want[w] {
						t.Fatalf("%s wl %d half %d stride %d: word %d holds %#x, PhysBL %#x",
							c.Profile().Name, wl, half, stride, w, v, want[w])
					}
				}
				out := make([]uint64, count)
				rd := sim.Batch{Op: sim.RD, At: c.Now() + tm.TRCD, Gap: tm.TRCD,
					Col: first, Stride: stride, Count: count}
				if err := c.ExecBatch(rd, out); err != nil {
					t.Fatal(err)
				}
				for i, v := range out {
					col := first + i*stride
					if w := refReadBurst(cm, want, col, half) ^ inv; v != w {
						t.Fatalf("%s wl %d half %d col %d: read %#x, PhysBL %#x",
							c.Profile().Name, wl, half, col, v, w)
					}
				}
				at = c.Now() + tm.TRAS
				if _, err := c.Exec(sim.Command{Op: sim.PRE, At: at}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// The word-grouped RD/WR kernels must agree bit for bit with the
// scalar per-bit PhysBL walk on every device geometry: every burst of
// both halves, both polarities, and strided batches on true- and
// anti-cell subarrays of a real chip.
func TestBurstKernelsMatchPhysBL(t *testing.T) {
	profiles := append(topo.Catalog(), topo.Small())
	for i, p := range profiles {
		p.Scheme = topo.InterleavedTrueAnti
		c := MustNew(p, 1)
		s := xorshift(uint64(i)*0x9e3779b97f4a7c15 + 5)
		checkBurstMap(t, c.ColumnMap(), &s)
		chipStrideWalk(t, c, &s)
	}
}

// FuzzBurstKernels checks the kernels against the scalar reference on
// any geometry NewColumnMap accepts, including the ones whose fields
// straddle a 64-bit charge word (bits per MAT not dividing 64):
//
//	MATs      = 1 + a % 16
//	matWidth  = 4 * (1 + b % 512)  (4 .. 2048 cells per MAT)
//	dataWidth = 8 * (1 + c % 8)    (8 .. 64 bits per burst)
//	source    = d % 3              (AllMATs / RowHalf / ColumnLSB)
func FuzzBurstKernels(f *testing.F) {
	f.Add(uint8(15), uint16(127), uint8(3), uint8(1), uint64(1)) // MfrA x4, coupled
	f.Add(uint8(15), uint16(127), uint8(3), uint8(2), uint64(2)) // MfrA x4, uncoupled
	f.Add(uint8(15), uint16(127), uint8(7), uint8(0), uint64(3)) // MfrA/C x8
	f.Add(uint8(7), uint16(255), uint8(7), uint8(0), uint64(4))  // MfrB x8
	f.Add(uint8(7), uint16(255), uint8(3), uint8(1), uint64(5))  // MfrB x4, coupled
	f.Add(uint8(1), uint16(11), uint8(2), uint8(0), uint64(6))   // 12-bit fields: straddles
	f.Add(uint8(3), uint16(29), uint8(4), uint8(1), uint64(7))   // 20-bit fields: straddles
	f.Add(uint8(0), uint16(15), uint8(7), uint8(0), uint64(8))   // one 64-bit field
	f.Fuzz(func(t *testing.T, a uint8, b uint16, c, d uint8, seed uint64) {
		nmats := 1 + int(a)%16
		matWidth := 4 * (1 + int(b)%512)
		cm, err := swizzle.NewColumnMap(nmats*matWidth, matWidth, 8*(1+int(c)%8), swizzle.HalfSource(d%3))
		if err != nil {
			return // constructor rejected the geometry
		}
		s := xorshift(seed | 1)
		checkBurstMap(t, cm, &s)
	})
}

// NewColumnMap accepts geometries whose fields straddle a charge word
// (12-bit fields at bitlines 60..71 here); the kernels split such a
// field into two runs and still match the reference.
func TestBurstKernelsSplitStraddlingFields(t *testing.T) {
	cm, err := swizzle.NewColumnMap(96, 48, 24, swizzle.AllMATs)
	if err != nil {
		t.Fatal(err)
	}
	m := newBurstMap(cm, 2)
	if runs, fields := len(m.segs), cm.Halves()*cm.Columns()*cm.ServingMATs(); runs <= fields {
		t.Fatalf("%d runs for %d fields: no field straddles a word", runs, fields)
	}
	s := xorshift(9)
	checkBurstMap(t, cm, &s)
}

// A WR to every column of one half overwrites the whole wordline
// exactly on the uncoupled geometries: a coupled row is half a
// wordline. writeBatch drops the faults parked on a row only there.
func TestWholeRowCoverage(t *testing.T) {
	for _, p := range append(topo.Catalog(), topo.Small(), uncoupledSmall()) {
		c := MustNew(p, 1)
		for half, whole := range c.burst.wholeRow {
			if whole == p.Coupled {
				t.Errorf("%s (coupled %v): half %d covers the whole wordline: %v", p.Name, p.Coupled, half, whole)
			}
		}
	}
}
