package swizzle

import (
	"testing"
	"testing/quick"
)

func TestIdentityTwistIsNoop(t *testing.T) {
	id := Identity(4)
	if got := id.ToChip(0xdeadbeef, 8); got != 0xdeadbeef {
		t.Fatalf("identity twist changed data: %#x", got)
	}
}

func TestTwistRoundTrip(t *testing.T) {
	for _, tw := range StandardTwists(8, 4) {
		f := func(data uint32) bool {
			d := uint64(data)
			return tw.ToModule(tw.ToChip(d, 8), 8) == d
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("twist %v: %v", tw, err)
		}
	}
}

func TestTwistInverse(t *testing.T) {
	tw := DQTwist{2, 0, 3, 1}
	inv := tw.Inverse()
	for lane := 0; lane < 4; lane++ {
		if inv[tw[lane]] != lane {
			t.Fatalf("Inverse broken at lane %d", lane)
		}
	}
}

// The paper's example: a host pattern 0x55 (01010101 per byte,
// alternating lanes) arrives at a twisted chip as a different value.
func TestTwistDistorts0x55(t *testing.T) {
	// 4-lane chip, 8 beats; module burst with lanes 0 and 2 high on
	// every beat (the per-lane view of a 0x55-style column stripe).
	var data uint64
	for beat := 0; beat < 8; beat++ {
		data |= 0b0101 << uint(4*beat)
	}
	rot := DQTwist{1, 2, 3, 0} // rotate lanes
	got := rot.ToChip(data, 8)
	if got == data {
		t.Fatal("rotated twist should distort an alternating lane pattern")
	}
	// Lane-pair swap maps the alternating pattern to its complement
	// per pair: 0101 -> 1010.
	swap := DQTwist{1, 0, 3, 2}
	want := uint64(0)
	for beat := 0; beat < 8; beat++ {
		want |= 0b1010 << uint(4*beat)
	}
	if got := swap.ToChip(data, 8); got != want {
		t.Fatalf("pair-swap twist: got %#x want %#x", got, want)
	}
}

func TestStandardTwistsValidPermutations(t *testing.T) {
	for chips := 1; chips <= 16; chips++ {
		for _, width := range []int{4, 8} {
			for i, tw := range StandardTwists(chips, width) {
				seen := make([]bool, len(tw))
				for _, lane := range tw {
					if lane < 0 || lane >= len(tw) || seen[lane] {
						t.Fatalf("chips=%d width=%d twist %d: %v is not a permutation", chips, width, i, tw)
					}
					seen[lane] = true
				}
			}
		}
	}
}

func TestStandardTwistsDiffer(t *testing.T) {
	tws := StandardTwists(4, 8)
	equal := func(a, b DQTwist) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := 1; i < len(tws); i++ {
		if equal(tws[0], tws[i]) {
			t.Fatalf("twists 0 and %d identical; adjacent chips should differ", i)
		}
	}
}

func TestRCDDefaultInvertsBSideOnly(t *testing.T) {
	r := NewRCD(8)
	const rows = 32768
	for chip := 0; chip < 8; chip++ {
		got := r.RowTo(chip, 100, rows)
		if chip < 4 {
			if got != 100 {
				t.Errorf("A-side chip %d saw row %d, want 100", chip, got)
			}
			if r.Inverts(chip) {
				t.Errorf("A-side chip %d reports inversion", chip)
			}
		} else {
			if got != 100^0x3F8 {
				t.Errorf("B-side chip %d saw row %d, want %d", chip, got, 100^0x3F8)
			}
			if !r.Inverts(chip) {
				t.Errorf("B-side chip %d should report inversion", chip)
			}
		}
	}
}

// RowTo is an involution (an XOR mask), so applying it twice restores
// the module row.
func TestRCDRoundTrip(t *testing.T) {
	r := NewRCD(8)
	const rows = 32768
	f := func(row16 uint16, chip8 uint8) bool {
		row := int(row16) % rows
		chip := int(chip8) % 8
		return r.RowTo(chip, r.RowTo(chip, row, rows), rows) == row
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The inversion usually preserves adjacency but breaks it at carry
// boundaries — the root of the phantom "non-adjacent RowHammer".
func TestRCDAdjacencyBreaksAtCarries(t *testing.T) {
	r := NewRCD(2) // chip 1 is B-side
	const rows = 32768
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	// Away from carries, module-adjacent rows stay chip-adjacent.
	if d := abs(r.RowTo(1, 101, rows) - r.RowTo(1, 100, rows)); d != 1 {
		t.Fatalf("rows 100,101 map %d apart on the B side, want 1", d)
	}
	// At a carry into the inverted bits the B-side images diverge.
	if d := abs(r.RowTo(1, 8, rows) - r.RowTo(1, 7, rows)); d == 1 {
		t.Fatal("rows 7,8 should not stay adjacent on the B side")
	}
}
