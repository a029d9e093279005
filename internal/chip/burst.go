package chip

import "dramscope/internal/swizzle"

// burstMap is the RD/WR data path: the column swizzle compiled into
// word-grouped field operations.
//
// A burst's DataWidth bits come from ServingMATs fields, one per
// serving MAT, each BitsPerMAT contiguous cells on the wordline. The
// kernels move a burst between the charge words and a MAT-ordered
// image, in which field o occupies bits [o*BitsPerMAT, (o+1)*BitsPerMAT)
// and a cell at offset pos in its field sits at bit o*BitsPerMAT+pos.
// That move costs one mask-and-shift per field. The image-to-burst
// permutation (swizzle.ColumnMap.BitPosition) is the same for every
// column and half, so byte lookup tables built once per chip apply it
// in DataWidth/8 lookups. A burst is therefore 4-8 lookups and 4-16
// field operations instead of one operation per bit.
type burstMap struct {
	cols  int
	bytes int // burst bytes: DataWidth/8

	// segs[off[i]:off[i+1]] are the field runs of burst i = half*cols+col.
	segs []fieldSeg
	off  []int32

	// wholeRow[half] reports whether the bursts of one half together
	// cover every cell of the wordline, so a WR to each of its columns
	// overwrites the whole row. True for uncoupled geometries; a
	// coupled row is half a wordline.
	wholeRow []bool

	toBurst [8][256]uint64 // image byte j -> its bits in burst order
	toImage [8][256]uint64 // burst byte j -> its bits in image order
}

// fieldSeg is one run of a burst's cells inside one charge word. A
// field that straddles a word boundary is two runs.
type fieldSeg struct {
	mask  uint64 // run mask, right-aligned
	word  int32  // charge word holding the run
	shift uint8  // bit offset of the run within the word
	img   uint8  // bit offset of the run within the image
}

// newBurstMap compiles the column map of a wordline of the given
// number of charge words.
func newBurstMap(cm *swizzle.ColumnMap, words int) *burstMap {
	width, bpm := cm.DataWidth(), cm.BitsPerMAT()
	m := &burstMap{cols: cm.Columns(), bytes: width / 8}

	var imgOf, bitOf [64]int
	for bit := 0; bit < width; bit++ {
		o, pos := cm.BitPosition(bit)
		imgOf[bit] = o*bpm + pos
		bitOf[o*bpm+pos] = bit
	}
	for j := 0; j < m.bytes; j++ {
		for v := 0; v < 256; v++ {
			for k := 0; k < 8; k++ {
				if v&(1<<k) != 0 {
					m.toImage[j][v] |= 1 << uint(imgOf[8*j+k])
					m.toBurst[j][v] |= 1 << uint(bitOf[8*j+k])
				}
			}
		}
	}

	for half := 0; half < cm.Halves(); half++ {
		for col := 0; col < m.cols; col++ {
			m.off = append(m.off, int32(len(m.segs)))
			for o := 0; o < cm.ServingMATs(); o++ {
				x, img := cm.FieldBase(col, half, o), o*bpm
				for rem := bpm; rem > 0; {
					n := min(rem, 64-(x&63))
					m.segs = append(m.segs, fieldSeg{
						mask: widthMask(n), word: int32(x >> 6),
						shift: uint8(x & 63), img: uint8(img),
					})
					x, img, rem = x+n, img+n, rem-n
				}
			}
		}
	}
	m.off = append(m.off, int32(len(m.segs)))

	covered := make([]uint64, words)
	for half := 0; half < cm.Halves(); half++ {
		clear(covered)
		for _, s := range m.segs[m.off[half*m.cols]:m.off[(half+1)*m.cols]] {
			covered[s.word] |= s.mask << s.shift
		}
		whole := true
		for _, w := range covered {
			whole = whole && w == ^uint64(0)
		}
		m.wholeRow = append(m.wholeRow, whole)
	}
	return m
}

// The shift counts below are masked with &63 (a no-op on their range)
// so the compiler emits bare shifts.

// read gathers burst (col, half) from a row's charge words.
func (m *burstMap) read(charge []uint64, col, half int) uint64 {
	i := half*m.cols + col
	var img uint64
	for _, s := range m.segs[m.off[i]:m.off[i+1]] {
		img |= (charge[s.word] >> (s.shift & 63) & s.mask) << (s.img & 63)
	}
	return m.permute(&m.toBurst, img)
}

// image permutes burst data into image order. Bits at or above
// DataWidth are ignored.
func (m *burstMap) image(data uint64) uint64 {
	return m.permute(&m.toImage, data)
}

// permute applies a byte-wise permutation table to the low DataWidth
// bits of v.
func (m *burstMap) permute(tab *[8][256]uint64, v uint64) uint64 {
	var out uint64
	for j := 0; j < m.bytes; j++ {
		out |= tab[j&7][uint8(v)]
		v >>= 8
	}
	return out
}

// store scatters an image into burst (col, half) of a row's charge
// words.
func (m *burstMap) store(charge []uint64, col, half int, img uint64) {
	i := half*m.cols + col
	for _, s := range m.segs[m.off[i]:m.off[i+1]] {
		w := &charge[s.word]
		*w = *w&^(s.mask<<(s.shift&63)) | (img>>(s.img&63)&s.mask)<<(s.shift&63)
	}
}
