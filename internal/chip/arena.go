package chip

import (
	"math"
	"math/bits"
	"sync"

	"dramscope/internal/faults"
	"dramscope/internal/sim"
)

// This file holds the bank's memory arena, the per-wordline
// flip-threshold caches, and the retention scan that reads them.
//
// # Arena
//
// Row state lives in per-bank chunked arenas instead of one heap
// allocation per touched wordline: rowState records come from
// stateChunks and every record's charge words are a sub-slice of the
// matching slabChunks entry. Chunks are appended, never reallocated,
// so *rowState pointers stay stable for the chip's lifetime; Reset
// recycles records by clearing the used slab prefix (a handful of
// memclears) and handing slots out again in order. Besides making
// Reset cheap, the slab keeps the charge words of consecutively
// touched rows contiguous, which is what the fault, RowCopy, and RD/WR
// field kernels (burst.go) walk.
//
// Charge slabs also outlive their chip: Free clears them and hands them
// to slabPool, and a later chip's arena takes its slabs from there
// before allocating, so a process that builds device after device
// (campaign members, served runs) stops faulting in fresh memory for
// each one.
//
// # Flip-threshold tables
//
// Every per-cell quantity the fault model draws — the hammer, press and
// retention uniforms — is a pure function of (seed, bank, wl, x). One
// table type (drawTab, built by drawTabFor) caches those draws per
// wordline and mechanism so a re-materialized row never recomputes
// them; because clones of an Env share the chip seed, the tables
// legitimately survive Reset and amortize across every pooled
// measurement. The cached values are the draws the scalar path makes
// (a faults.Params.Row stream yields exactly the per-cell U values)
// and are decided through the same HammerFlipsU/PressFlipsU/
// RetentionFlipsU, so decisions taken through them are bit-identical
// to the uncached path.
//
// Every mechanism flips a cell when its draw falls below a threshold,
// which makes the per-word minimum a screen for all three. Hammer and
// press thresholds come from the accumulated stress; the retention
// threshold is the elapsed interval inverted onto the draw scale once
// per scan (faults.RetentionScreen), so a retention scan compares draws
// and evaluates a retention time only for the rare draw within
// faults.RetentionMargin of the threshold.

// arenaChunkRows is the rowState capacity of one arena chunk. Chunks
// are small enough that a sparsely used bank wastes little and large
// enough that Reset is a handful of memclears, not thousands.
const arenaChunkRows = 64

// flipTabMargin pads the conservative per-cell stress bound used to
// skip non-candidate cells. The true per-cell stress is bounded by
// delta * MaxFactor up to a few ULPs of float rounding; the margin is
// many orders of magnitude wider than that, and still far too small to
// admit spurious candidates in practice.
const flipTabMargin = 1 + 1e-9

// drawTab caches one mechanism's per-cell uniform draws for a wordline
// plus their per-64-cell-word minima. Every mechanism flips a cell when
// its draw falls below a threshold, so a kernel skips whole words whose
// smallest draw cannot beat it.
type drawTab struct {
	u    []float64 // per-cell draws, x-indexed
	minW []float64 // per-word minima of u
}

// slabPool holds the all-zero charge slabs of freed chips (*[]uint64,
// any row width). sync.Pool empties itself across garbage collections,
// so an idle process retains nothing extra.
var slabPool sync.Pool

// newSlab returns an all-zero charge slab of n words, recycled from a
// freed chip when the pool holds one of that length.
func newSlab(n int) []uint64 {
	if p, ok := slabPool.Get().(*[]uint64); ok && len(*p) == n {
		return *p
	}
	return make([]uint64, n)
}

// Free clears the chip's charge slabs and hands them to the slab pool
// for chips built later, then drops every bank: any later command or
// Reset on the chip panics. Call it once nothing will use the chip
// again.
func (c *Chip) Free() {
	for i, b := range c.banks {
		b.resetArena(c.words)
		for _, slab := range b.slabChunks {
			slabPool.Put(&slab)
		}
		c.banks[i] = nil
	}
}

// rowStateFor returns (creating lazily) the state of a wordline
// WITHOUT materializing pending faults. Callers on the access path
// must use materialize instead.
func (c *Chip) rowStateFor(b *bank, wl int) *rowState {
	rs := b.rows[wl]
	if rs == nil {
		ci, ri := b.inUse/arenaChunkRows, b.inUse%arenaChunkRows
		if ci == len(b.stateChunks) {
			b.stateChunks = append(b.stateChunks, make([]rowState, arenaChunkRows))
			b.slabChunks = append(b.slabChunks, newSlab(arenaChunkRows*c.words))
		}
		rs = &b.stateChunks[ci][ri]
		slab := b.slabChunks[ci]
		// The charge words were cleared by Reset (or are fresh), so
		// only the snapshot metadata needs zeroing.
		*rs = rowState{charge: slab[ri*c.words : (ri+1)*c.words : (ri+1)*c.words]}
		b.inUse++
		b.rows[wl] = rs
		b.touched = append(b.touched, int32(wl))
	}
	return rs
}

// resetArena recycles a bank's row state: the used slab prefix is
// cleared (at most one memclear per chunk in use) and every slot
// becomes available again. A fault application parked by a row left
// open points into the arena, so it goes too.
func (b *bank) resetArena(words int) {
	b.parked = faultApp{}
	full, rem := b.inUse/arenaChunkRows, b.inUse%arenaChunkRows
	for i := 0; i < full; i++ {
		clear(b.slabChunks[i])
	}
	if rem > 0 {
		clear(b.slabChunks[full][:rem*words])
	}
	b.inUse = 0
}

// drawTabFor returns the wordline's cached draws for a mechanism,
// building them on first use. Building costs two hash rounds per cell
// (faults.Params.Row) — less than a scalar pass over the row spends on
// draws — and pays for itself on the same materialize via the
// word-minima skip.
func (c *Chip) drawTabFor(m faults.Mechanism, bankID int, b *bank, wl int) *drawTab {
	if b.draws[m] == nil {
		b.draws[m] = make([]*drawTab, len(b.rows))
	}
	tb := b.draws[m][wl]
	if tb != nil {
		return tb
	}
	tb = &drawTab{
		u:    make([]float64, c.prof.RowBits),
		minW: make([]float64, c.words),
	}
	row := c.fp.Row(m, bankID, wl)
	for w := range tb.minW {
		min := math.Inf(1)
		for x := w << 6; x < (w+1)<<6; x++ {
			u := row.Uniform(uint64(x))
			tb.u[x] = u
			if u < min {
				min = u
			}
		}
		tb.minW[w] = min
	}
	b.draws[m][wl] = tb
	return tb
}

// retentionScan is the retention test of one wordline over one
// unrefreshed interval: the interval's screen applied to the
// wordline's cached retention draws. The table is fetched at the first
// charged word, so scanning an empty row builds nothing.
type retentionScan struct {
	c          *Chip
	b          *bank
	bankID, wl int
	scr        faults.RetentionScreen
	tab        *drawTab
}

func (c *Chip) newRetentionScan(bankID int, b *bank, wl int, elapsed sim.Time) retentionScan {
	return retentionScan{c: c, b: b, bankID: bankID, wl: wl,
		scr: faults.NewRetentionScreen(c.retScale, elapsed)}
}

// word returns the cells of charge word w that decay. Only charged
// cells can, and a word whose smallest draw lies above the screen's
// band costs one compare.
func (r *retentionScan) word(w int, charged uint64) uint64 {
	if charged == 0 {
		return 0
	}
	if r.tab == nil {
		r.tab = r.c.drawTabFor(faults.Retention, r.bankID, r.b, r.wl)
	}
	if r.tab.minW[w] > r.scr.Keep {
		return 0
	}
	var flips uint64
	for m := charged; m != 0; m &= m - 1 {
		if faults.RetentionFlipsU(&r.scr, r.tab.u[w<<6|bits.TrailingZeros64(m)]) {
			flips |= m & -m
		}
	}
	return flips
}
