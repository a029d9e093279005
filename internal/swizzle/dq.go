package swizzle

// DQTwist is a per-chip permutation of the data pins between the
// module edge connector and the chip (§III-C pitfall 3). DIMM layout
// constraints route DQ lanes out of order, so a host byte like 0x55
// can arrive at a chip as 0x33, 0xCC, or 0x99 unless the twist is
// corrected.
//
// twist[moduleLane] = chipLane: the value the host drives on module
// lane i is latched by the chip on its own lane twist[i].
type DQTwist []int

// Identity returns the no-twist permutation of the given width.
func Identity(width int) DQTwist {
	t := make(DQTwist, width)
	for i := range t {
		t[i] = i
	}
	return t
}

// Inverse returns the inverse permutation.
func (t DQTwist) Inverse() DQTwist {
	inv := make(DQTwist, len(t))
	for m, c := range t {
		inv[c] = m
	}
	return inv
}

// ToChip rearranges one burst of module-side data into chip-side
// order. Burst data is packed beat-major: bit (beat*width + lane).
func (t DQTwist) ToChip(data uint64, beats int) uint64 {
	return t.apply(data, beats, false)
}

// ToModule rearranges chip-side burst data back into module order.
func (t DQTwist) ToModule(data uint64, beats int) uint64 {
	return t.apply(data, beats, true)
}

func (t DQTwist) apply(data uint64, beats int, inverse bool) uint64 {
	width := len(t)
	if width*beats > 64 {
		panic("swizzle: burst exceeds 64 bits")
	}
	var out uint64
	for beat := 0; beat < beats; beat++ {
		for lane := 0; lane < width; lane++ {
			dst := t[lane]
			if inverse {
				// chip lane t[lane] -> module lane "lane"
				src := beat*width + dst
				if data&(1<<uint(src)) != 0 {
					out |= 1 << uint(beat*width+lane)
				}
				continue
			}
			src := beat*width + lane
			if data&(1<<uint(src)) != 0 {
				out |= 1 << uint(beat*width+dst)
			}
		}
	}
	return out
}

// StandardTwists returns a plausible per-chip twist assignment for a
// DIMM with the given number of chips of the given width, modeled
// after vendor routing tables (Micron RDIMM design files [43], [44]):
// chips alternate between rotated and nibble-swapped lane orders so
// that no two adjacent chips share a twist.
func StandardTwists(chips, width int) []DQTwist {
	out := make([]DQTwist, chips)
	for c := 0; c < chips; c++ {
		t := make(DQTwist, width)
		switch c % 4 {
		case 0: // straight
			copy(t, Identity(width))
		case 1: // rotate by 1
			for i := range t {
				t[i] = (i + 1) % width
			}
		case 2: // reverse
			for i := range t {
				t[i] = width - 1 - i
			}
		default: // swap lane pairs
			for i := range t {
				t[i] = i ^ 1
			}
		}
		out[c] = t
	}
	return out
}
