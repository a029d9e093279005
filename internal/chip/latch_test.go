package chip

import (
	"math"
	"testing"

	"dramscope/internal/sim"
	"dramscope/internal/topo"
)

// latchRig runs a decoded command program on bank 0 of a chip and
// checks every charge-sharing ACT against an oracle that never looks at
// the bank's latch: at every PRE or pulse it captures the sensed
// wordline's charge through InspectCharge, and after an ACT inside
// RowCopyMaxGap of that capture every bitline the topology marks as
// covered must hold the captured bit, inverted where the copy inverts.
type latchRig struct {
	t   *testing.T
	c   *Chip
	tp  *topo.Topology
	tm  sim.Timing
	wls []int // candidate wordlines: both sides of subarray boundaries and an edge pair
	at  sim.Time

	srcWL   int      // wordline captured at the last PRE or pulse, or -1
	src     []uint64 // its charge at that moment
	lastPre sim.Time
}

func newLatchRig(c *Chip) *latchRig {
	tp := c.Topology()
	var wls []int
	for id := 0; id < 3 && id < tp.SubarrayCount(); id++ {
		start, end := tp.SubarrayBounds(id)
		wls = append(wls, start, start+1, end-2, end-1)
	}
	if p, ok := tp.EdgePartner(0); ok {
		start, _ := tp.SubarrayBounds(p)
		wls = append(wls, start, start+1)
	}
	return &latchRig{c: c, tp: tp, tm: c.Timing(), wls: wls, src: make([]uint64, c.words)}
}

// reset returns the chip and the oracle to power-on.
func (r *latchRig) reset() {
	r.c.Reset()
	r.at = 0
	r.srcWL = -1
	r.lastPre = math.MinInt64 / 2
}

func (r *latchRig) wl(arg byte) int { return r.wls[int(arg)%len(r.wls)] }

// gap draws a PRE→ACT gap from both sides of RowCopyMaxGap.
func (r *latchRig) gap(arg byte) sim.Time {
	m := r.tm.RowCopyMaxGap
	gaps := [...]sim.Time{sim.Picosecond, r.tm.TCK, 2 * sim.Nanosecond,
		m - sim.Picosecond, m, m + sim.Picosecond, r.tm.TRP, r.tm.TRP + r.tm.TCK}
	return gaps[int(arg)%len(gaps)]
}

func (r *latchRig) capture(wl int, t sim.Time) {
	clear(r.src)
	for x := 0; x < r.c.prof.RowBits; x++ {
		if r.c.InspectCharge(0, wl, x) {
			r.src[x>>6] |= 1 << uint(x&63)
		}
	}
	r.srcWL, r.lastPre = wl, t
}

func (r *latchRig) exec(step int, cmd sim.Command) {
	cmd.At = r.at
	if _, err := r.c.Exec(cmd); err != nil {
		r.t.Fatalf("step %d: %v: %v", step, cmd, err)
	}
}

// act opens wl gap after the current time and checks the oracle.
func (r *latchRig) act(step, wl int, gap sim.Time) {
	r.at += gap
	r.exec(step, sim.Command{Op: sim.ACT, Row: r.tp.UnmapRow(wl, 0)})
	if r.srcWL < 0 || r.at-r.lastPre > r.tm.RowCopyMaxGap {
		return
	}
	rel := r.tp.CopyRelationOf(r.srcWL, wl)
	for x := 0; x < r.c.prof.RowBits; x++ {
		covered, inverted := r.tp.CopyCovers(rel, r.srcWL, x)
		if !covered {
			continue
		}
		if want := getBit(r.src, x) != inverted; r.c.InspectCharge(0, wl, x) != want {
			r.t.Fatalf("step %d: copy wl %d -> wl %d (relation %d, gap %v): bitline %d holds %v, captured source %v, inverted %v",
				step, r.srcWL, wl, rel, r.at-r.lastPre, x, !want, getBit(r.src, x), inverted)
		}
	}
}

// pre closes the open wordline wl after tRAS and captures its charge.
func (r *latchRig) pre(step, wl int) {
	r.at += r.tm.TRAS
	r.exec(step, sim.Command{Op: sim.PRE})
	r.capture(wl, r.at)
}

// run decodes prog three bytes per step: an opcode and two arguments.
func (r *latchRig) run(prog []byte) {
	r.reset()
	for i := 0; i+2 < len(prog) && i < 3*64; i += 3 {
		step, op, a, b := i/3, prog[i]%8, prog[i+1], prog[i+2]
		switch op {
		case 0: // write a row at legal timing
			wl := r.wl(a)
			r.act(step, wl, r.tm.TRP+r.tm.TCK)
			wr := sim.Batch{Op: sim.WR, At: r.at + r.tm.TRCD, Gap: r.tm.TRCD,
				Col: 0, Stride: 1, Count: r.c.Columns(), Data: []uint64{uint64(b) * 0x0101010101010101}}
			if err := r.c.ExecBatch(wr, nil); err != nil {
				r.t.Fatalf("step %d: %v: %v", step, wr, err)
			}
			r.at = wr.End()
			r.pre(step, wl)
		case 1: // ACT after a gap on either side of RowCopyMaxGap
			wl := r.wl(a)
			r.act(step, wl, r.gap(b))
			r.pre(step, wl)
		case 2: // copy onto the latched row itself
			if r.srcWL < 0 {
				continue
			}
			wl := r.srcWL
			r.act(step, wl, r.gap(a))
			r.pre(step, wl)
		case 3: // REF inside the copy window
			r.at += r.tm.TCK
			r.exec(step, sim.Command{Op: sim.REF})
		case 4: // REF outside the copy window
			r.at += r.tm.TRP
			r.exec(step, sim.Command{Op: sim.REF})
		case 5: // a pulse train long enough to cross the retention floor
			wl := r.wl(a)
			n := (1 + int(b)%8) * 3_000_000
			if err := r.c.AdvanceTo(r.at); err != nil {
				r.t.Fatal(err)
			}
			if err := r.c.Pulse(0, r.tp.UnmapRow(wl, 0), n, r.tm.TRAS, r.tm.TRP); err != nil {
				r.t.Fatalf("step %d: pulse: %v", step, err)
			}
			r.at = r.c.Now()
			r.capture(wl, r.at)
		case 6: // a long wait
			r.at += sim.Time(1+int(a)%30) * sim.Second
			if err := r.c.AdvanceTo(r.at); err != nil {
				r.t.Fatal(err)
			}
		case 7:
			r.reset()
		}
	}
}

// latchSeeds are the corpus programs: a self-copy right after a pulse
// train, a REF inside the copy window, and a plain scan classification
// (src=1, dst=0, RowCopy, read back) across a subarray boundary.
var latchSeeds = [][]byte{
	{0, 2, 0xff, 5, 2, 3, 2, 1, 0},
	{0, 2, 0xff, 5, 2, 7, 3, 0, 0, 1, 1, 1, 0, 3, 0xaa, 5, 3, 1, 3, 0, 0, 2, 2, 0},
	{0, 3, 0xff, 0, 4, 0, 1, 3, 6, 1, 4, 2, 1, 4, 6},
}

func FuzzRowCopyLatch(f *testing.F) {
	for _, s := range latchSeeds {
		f.Add(s)
	}
	interleaved := mustProfile(f, "MfrC-DDR4-x8-2016")
	if interleaved.Scheme != topo.InterleavedTrueAnti {
		f.Fatalf("%s: want interleaved true-/anti-cell subarrays", interleaved.Name)
	}
	rigs := []*latchRig{
		newLatchRig(MustNew(topo.Small(), 5)),
		newLatchRig(MustNew(interleaved, 5)),
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, r := range rigs {
			r.t = t
			r.run(prog)
		}
	})
}
