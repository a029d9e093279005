package chip

import (
	"math/bits"
	"testing"

	"dramscope/internal/faults"
	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// refFaultsRow is the scalar reference definition of one wordline's
// fault materialization: retention first, then full-neighborhood
// hammer/press evaluation for EVERY cell through the per-coordinate
// HammerFlips/PressFlips draws — no cached tables, no candidate
// screening, no word skipping. The production kernel must agree with
// it cell for cell.
func refFaultsRow(c *Chip, bankID, wl int, pre, up, down []uint64,
	dUpA, dDownA int64, dUpP, dDownP float64,
	elapsed sim.Time, upOK, downOK bool) []uint64 {

	out := append([]uint64(nil), pre...)
	// A direction without a same-subarray neighbor has no aggressor
	// wordline, so its counters can never accumulate: materialize
	// computes zero deltas for it, and the reference must agree —
	// PressFactor is nonzero even for an uncharged aggressor, so a
	// phantom delta would add phantom stress.
	if !upOK {
		dUpA, dUpP = 0, 0
	}
	if !downOK {
		dDownA, dDownP = 0, 0
	}
	hammerOn := float64(dUpA+dDownA)*c.maxHammerF >= c.fp.HammerMinStress
	pressOn := (dUpP+dDownP)*c.maxPressF >= c.fp.PressMinStress
	hasRet := elapsed > c.retMin
	if !hammerOn && !pressOn && !hasRet {
		return out
	}
	if !hammerOn {
		dUpA, dDownA = 0, 0
	}
	if !pressOn {
		dUpP, dDownP = 0, 0
	}
	var upC, downC []uint64
	if upOK {
		upC = up
	}
	if downOK {
		downC = down
	}
	edge := c.topo.IsEdgeSubarray(c.topo.SubarrayOf(wl))
	rs := &rowState{charge: append([]uint64(nil), pre...)}
	for x := 0; x < c.prof.RowBits; x++ {
		charged := getBit(rs.charge, x)
		flip := charged && c.fp.RetentionFlips(bankID, wl, x, true, elapsed)
		if !flip && (dUpA > 0 || dDownA > 0 || dUpP > 0 || dDownP > 0) {
			hs, ps := c.cellStress(rs, wl, x, dUpA, dDownA, dUpP, dDownP, upC, downC, edge)
			if hs > 0 && c.fp.HammerFlips(bankID, wl, x, hs) {
				flip = true
			}
			if !flip && ps > 0 && c.fp.PressFlips(bankID, wl, x, ps) {
				flip = true
			}
		}
		if flip {
			out[x>>6] ^= 1 << uint(x&63)
		}
	}
	return out
}

// runFaultTrial stages one wordline with the given charges and
// neighbor counter deltas on a Reset chip, materializes it through the
// production kernel, and compares the result against the scalar
// reference. Tables persist across Reset, so repeated trials on the
// same wordlines exercise both the cold (table-building) and warm
// (table-cached) paths.
func runFaultTrial(t testing.TB, c *Chip, wl int, pre, up, down []uint64,
	dUpA, dDownA int64, dUpP, dDownP float64, elapsed sim.Time) {

	c.Reset()
	b := c.banks[0]
	rs := c.rowStateFor(b, wl)
	copy(rs.charge, pre)

	upWL, downWL := wl+1, wl-1
	upOK := upWL < c.topo.PhysRows() && c.topo.SameSubarray(wl, upWL)
	downOK := downWL >= 0 && c.topo.SameSubarray(wl, downWL)
	if upOK {
		copy(c.rowStateFor(b, upWL).charge, up)
		b.acts[upWL] = dUpA
		b.press[upWL] = dUpP
	}
	if downOK {
		copy(c.rowStateFor(b, downWL).charge, down)
		b.acts[downWL] = dDownA
		b.press[downWL] = dDownP
	}

	want := refFaultsRow(c, 0, wl, pre, up, down, dUpA, dDownA, dUpP, dDownP, elapsed, upOK, downOK)
	c.materialize(0, wl, elapsed) // lastRestore is 0, so t == elapsed
	for w := range want {
		if rs.charge[w] != want[w] {
			t.Fatalf("wl %d word %d: kernel %#x, scalar reference %#x (dA=%d/%d dP=%g/%g elapsed=%v)",
				wl, w, rs.charge[w], want[w], dUpA, dDownA, dUpP, dDownP, elapsed)
		}
	}
}

// A never-written victim first touched after the retention floor takes
// materialize's fresh-row branch, which skips retention, while its
// aggressor's 2M pulses keep the hammer live. It must still match the
// scalar reference bit for bit, discharged-cell flips included. The ACT
// parks the flips, so the charge is compared after the PRE, the first
// command that observes it.
func TestFreshVictimMatchesReference(t *testing.T) {
	h := newTB(t, topo.Small(), 21)
	c := h.c
	const victim, aggr = 40, 41 // interior wordlines of subarray 0
	h.writeRow(0, c.topo.UnmapRow(aggr, 0), 0xa5a5a5a5)
	h.step(sim.Nanosecond)
	if err := c.AdvanceTo(h.at); err != nil {
		t.Fatal(err)
	}
	if err := c.Pulse(0, c.topo.UnmapRow(aggr, 0), 2_000_000, c.Timing().TRAS, c.Timing().TRP); err != nil {
		t.Fatal(err)
	}
	h.at = c.Now() + 20*sim.Millisecond

	b := c.banks[0]
	if b.rows[victim] != nil || b.rows[victim-1] != nil {
		t.Fatal("victim or its lower neighbor already holds state")
	}
	tAct := h.at + c.Timing().TRP + sim.Nanosecond // when h.act issues the ACT
	if tAct <= c.retMin {
		t.Fatalf("victim touched at %v, not after the retention floor %v", tAct, c.retMin)
	}
	want := refFaultsRow(c, 0, victim, make([]uint64, c.words), b.rows[aggr].charge, nil,
		b.acts[aggr], 0, b.press[aggr], 0, tAct, true, true)
	flips := 0
	for _, w := range want {
		flips += bits.OnesCount64(w)
	}
	if flips == 0 {
		t.Fatal("the reference flips no cell: the hammer never reaches the fresh victim")
	}

	h.act(0, c.topo.UnmapRow(victim, 0))
	if h.at != tAct {
		t.Fatalf("ACT issued at %v, reference taken at %v", h.at, tAct)
	}
	h.pre(0)
	got := b.rows[victim].charge
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("word %d: fresh victim %#x, scalar reference %#x", w, got[w], want[w])
		}
	}
}

// bandElapsed returns an interval within a picosecond of the retention
// time of the k-th charged cell of a row (d in {-1, 0, 1}), so the
// cell's draw lands inside the retention screen's exact band — random
// intervals essentially never do. ok is false for an empty row. It
// fails the test if the cell misses the band, so a trial built on it
// provably exercises the exact path.
func bandElapsed(t testing.TB, c *Chip, wl int, row []uint64, k uint64, d sim.Time) (elapsed sim.Time, ok bool) {
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return 0, false
	}
	k %= uint64(n)
	x := -1
	for w, word := range row {
		if c := uint64(bits.OnesCount64(word)); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		x = w<<6 | bits.TrailingZeros64(word)
		break
	}
	elapsed = c.fp.RetentionTime(0, wl, x) + d
	scr := faults.NewRetentionScreen(c.retScale, elapsed)
	if u := c.fp.RetentionU(0, wl, x); elapsed > c.retMin && !(scr.Flip <= u && u <= scr.Keep) {
		t.Fatalf("wl %d cell %d: draw %v outside the band [%v, %v] at elapsed %v",
			wl, x, u, scr.Flip, scr.Keep, elapsed)
	}
	return elapsed, true
}

// xorshift is a tiny deterministic generator for trial patterns.
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

// patterns returns a charge row drawn from the generator: dense random
// words, sparse words, or solid fills, so trials cover the word-skip
// fast paths as well as the per-cell slow path.
func trialRow(s *xorshift, words int) []uint64 {
	row := make([]uint64, words)
	switch s.next() % 4 {
	case 0: // dense random
		for w := range row {
			row[w] = s.next()
		}
	case 1: // sparse
		for i := uint64(0); i < 4; i++ {
			row[s.next()%uint64(words)] = 1 << (s.next() % 64)
		}
	case 2: // solid ones
		for w := range row {
			row[w] = ^uint64(0)
		}
	default: // empty
	}
	return row
}

// The word-packed, table-cached fault kernel must agree cell for cell
// with the scalar per-cell definition across seeds, charge patterns,
// stress levels, and elapsed times — including sub-floor stresses that
// the screening gates drop and huge ones where everything flips.
func TestWordPackedFaultsMatchScalarReference(t *testing.T) {
	actChoices := []int64{0, 500, 20_000, 300_000, 2_000_000}
	pressChoices := []float64{0, 3e7, 2e8, 5e9}
	elapsedChoices := []sim.Time{0, 20 * sim.Millisecond, 400 * sim.Millisecond, 30 * sim.Second, 5000 * sim.Second}

	for seed := uint64(1); seed <= 4; seed++ {
		c := MustNew(topo.Small(), seed)
		s := xorshift(seed*0x9e3779b97f4a7c15 + 1)
		// A small wordline set so later trials revisit wordlines whose
		// tables the earlier trials built.
		wls := []int{1, 2, 40, 41, 100, c.topo.PhysRows() - 2}
		for trial := 0; trial < 60; trial++ {
			wl := wls[s.next()%uint64(len(wls))]
			pre := trialRow(&s, c.words)
			up := trialRow(&s, c.words)
			down := trialRow(&s, c.words)
			runFaultTrial(t, c, wl,
				pre, up, down,
				actChoices[s.next()%uint64(len(actChoices))],
				actChoices[s.next()%uint64(len(actChoices))],
				pressChoices[s.next()%uint64(len(pressChoices))],
				pressChoices[s.next()%uint64(len(pressChoices))],
				elapsedChoices[s.next()%uint64(len(elapsedChoices))])
		}
		// Threshold trials: elapsed within a picosecond of a charged
		// cell's retention time, the only intervals that reach the
		// screen's exact path.
		for trial := 0; trial < 30; trial++ {
			wl := wls[s.next()%uint64(len(wls))]
			pre := trialRow(&s, c.words)
			elapsed, ok := bandElapsed(t, c, wl, pre, s.next(), sim.Time(s.next()%3)-1)
			if !ok {
				continue
			}
			runFaultTrial(t, c, wl,
				pre, trialRow(&s, c.words), trialRow(&s, c.words),
				actChoices[s.next()%uint64(len(actChoices))],
				actChoices[s.next()%uint64(len(actChoices))],
				pressChoices[s.next()%uint64(len(pressChoices))],
				pressChoices[s.next()%uint64(len(pressChoices))],
				elapsed)
		}
	}
}

// FuzzWordPackedFaults lets the fuzzer search for charge patterns and
// stress combinations where the screened kernel and the scalar
// reference disagree. With the top bit of elapsedMs set, the trial is
// a threshold trial instead: elapsed sits within a picosecond (bits
// 0-1: -1, 0, +1) of the retention time of a charged victim cell (bits
// 2 and up pick which), inside the retention screen's exact band.
func FuzzWordPackedFaults(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint64(0xffffffffffffffff), uint64(0), uint64(0), uint32(300_000), uint32(0), uint64(0))
	f.Add(uint64(2), uint16(2), uint64(0x8421084210842108), uint64(0xf), uint64(0xf0), uint32(20_000), uint32(200_000), uint64(30_000))
	f.Add(uint64(3), uint16(100), uint64(1), uint64(1), uint64(1), uint32(0), uint32(0), uint64(5_000_000))
	f.Add(uint64(4), uint16(7), uint64(0xffffffffffffffff), uint64(0), uint64(0), uint32(0), uint32(0), uint64(1<<63|5<<2|1))
	f.Add(uint64(5), uint16(41), uint64(0x0123456789abcdef), uint64(0xf0f0), uint64(0x0f0f), uint32(300_000), uint32(150_000), uint64(1<<63|77<<2|2))
	f.Add(uint64(6), uint16(99), uint64(0x8000000000000001), uint64(0), uint64(0), uint32(0), uint32(0), uint64(1<<63|3<<2))
	f.Fuzz(func(t *testing.T, seed uint64, wlRaw uint16, patA, patB, patC uint64, acts uint32, pressUs uint32, elapsedMs uint64) {
		c := MustNew(topo.Small(), seed%8)
		wl := 1 + int(wlRaw)%(c.topo.PhysRows()-2)
		fill := func(pat uint64) []uint64 {
			row := make([]uint64, c.words)
			for w := range row {
				row[w] = pat * (uint64(w)*2 + 1)
			}
			return row
		}
		pre := fill(patA)
		elapsed := sim.Time(elapsedMs) * sim.Millisecond
		if elapsedMs>>63 != 0 {
			var ok bool
			if elapsed, ok = bandElapsed(t, c, wl, pre, (elapsedMs&^(1<<63))>>2, sim.Time((elapsedMs&3)%3)-1); !ok {
				return
			}
		}
		runFaultTrial(t, c, wl, pre, fill(patB), fill(patC),
			int64(acts), int64(acts)/2,
			float64(pressUs)*1e6, float64(pressUs)*5e5,
			elapsed)
	})
}
