// Package mitigate implements the attack and defense models of the
// paper's §VI: MC-side activation-counter trackers and their
// coupled-row bypass, MC-side row swapping and its bypass, the
// DRFM-based in-DRAM mitigation that closes the gap, and the
// row/column-aware data scrambler proposed against adversarial data
// patterns.
package mitigate

import (
	"dramscope/internal/chip"
	"dramscope/internal/host"
	"dramscope/internal/rng"
)

// Defense is an MC-side activation tracker with victim-row refresh
// (a simplified Graphene-style counter table: exact counts, refresh
// and reset on threshold).
type Defense struct {
	H    *host.Host
	Bank int
	// Threshold is the activation count per tracked row that triggers
	// a victim refresh.
	Threshold int
	// CoupledDistance, when non-zero, makes the tracker coupled-row
	// aware: the two aliases of a wordline share one counter and both
	// neighborhoods are refreshed (§VI-B's fix).
	CoupledDistance int
	// VictimsOf overrides the MC's adjacency guess for one address
	// (defaults to row±1). Devices with internal row remapping need
	// the recovered physical order here — exactly the mapping
	// DRAMScope recovers (§III-C pitfall 2); without it the refresh
	// misses real victims.
	VictimsOf func(row int) []int

	counts map[int]int
}

// NewDefense builds a tracker-protected access path.
func NewDefense(h *host.Host, bank, threshold int) *Defense {
	return &Defense{H: h, Bank: bank, Threshold: threshold, counts: make(map[int]int)}
}

// canonical returns the tracker key for a row.
func (d *Defense) canonical(row int) int {
	if d.CoupledDistance > 0 {
		return row % d.CoupledDistance
	}
	return row
}

// chunk is the tracker's observation granularity: thresholds are
// honored to within one chunk of slack.
const chunk = 1024

// Activations routes n activations of a row through the tracker,
// refreshing victims whenever the count trips the threshold. The
// attacker cannot bypass this path (it models the MC observing every
// ACT).
func (d *Defense) Activations(row, n int) error {
	for n > 0 {
		c := chunk
		if c > n {
			c = n
		}
		if err := d.H.Hammer(d.Bank, row, c); err != nil {
			return err
		}
		n -= c
		key := d.canonical(row)
		d.counts[key] += c
		if d.counts[key] < d.Threshold {
			continue
		}
		d.counts[key] = 0
		if err := d.refreshVictims(row); err != nil {
			return err
		}
	}
	return nil
}

// EndWindow models the end of a refresh window (tREFW): auto-refresh
// restores every row and the tracker's per-window counters reset —
// the accounting boundary real counter tables work within.
func (d *Defense) EndWindow() error {
	if err := d.H.Refresh(d.Bank); err != nil {
		return err
	}
	d.counts = make(map[int]int)
	return nil
}

// refreshVictims activates the rows the MC believes are adjacent to
// the aggressor: row±1 (or the configured adjacency), plus the
// coupled alias's neighborhood when aware.
func (d *Defense) refreshVictims(row int) error {
	adj := d.VictimsOf
	if adj == nil {
		adj = func(r int) []int { return []int{r - 1, r + 1} }
	}
	victims := adj(row)
	if d.CoupledDistance > 0 {
		partner := (row + d.CoupledDistance) % (2 * d.CoupledDistance)
		victims = append(victims, adj(partner)...)
	}
	for _, v := range victims {
		if v < 0 || v >= d.H.Rows() {
			continue
		}
		if err := d.H.Activate(d.Bank, v); err != nil {
			return err
		}
		if err := d.H.Precharge(d.Bank); err != nil {
			return err
		}
	}
	return nil
}

// RowSwap is the MC-side randomized row-swap defense (§VI-A cites
// Saileshwar et al. / Woo et al.): once a row's activation count trips
// the threshold, the MC remaps the row to a spare and migrates its
// data, breaking the aggressor/victim spatial correlation — for the
// rows it knows about.
type RowSwap struct {
	H         *host.Host
	Bank      int
	Threshold int

	indirect  map[int]int // addressed row -> device row
	spareNext int
	counts    map[int]int
}

// NewRowSwap builds a row-swap path with spares allocated from the
// given device row upward.
func NewRowSwap(h *host.Host, bank, threshold, spareBase int) *RowSwap {
	return &RowSwap{
		H: h, Bank: bank, Threshold: threshold,
		indirect: make(map[int]int), spareNext: spareBase,
		counts: make(map[int]int),
	}
}

// device resolves the indirection.
func (s *RowSwap) device(row int) int {
	if d, ok := s.indirect[row]; ok {
		return d
	}
	return row
}

// Activations routes n activations through the swap layer.
func (s *RowSwap) Activations(row, n int) error {
	for n > 0 {
		c := chunk
		if c > n {
			c = n
		}
		if err := s.H.Hammer(s.Bank, s.device(row), c); err != nil {
			return err
		}
		n -= c
		s.counts[row] += c
		if s.counts[row] < s.Threshold {
			continue
		}
		s.counts[row] = 0
		if err := s.swap(row); err != nil {
			return err
		}
	}
	return nil
}

// swap migrates the addressed row to a fresh spare.
func (s *RowSwap) swap(row int) error {
	from := s.device(row)
	to := s.spareNext
	s.spareNext++
	data, err := s.H.ReadRow(s.Bank, from)
	if err != nil {
		return err
	}
	if err := s.H.WriteRow(s.Bank, to, func(col int) uint64 { return data[col] }); err != nil {
		return err
	}
	s.indirect[row] = to
	return nil
}

// DRFM models the DDR5 Directed Refresh Management flow (§VI-B): the
// MC samples an activated row; on a DRFM command the DRAM itself
// refreshes the physically adjacent rows. Because the mechanism lives
// inside the DRAM, it keys on the physical wordline — both rows of a
// coupled pair resolve to the same wordline, so split-activation
// attacks cannot evade it.
type DRFM struct {
	C    *chip.Chip
	H    *host.Host
	Bank int
}

// Refresh performs the in-DRAM neighbor refresh for a sampled row.
func (d *DRFM) Refresh(sampledRow int) error {
	t := d.C.Topology()
	wl, _ := t.MapRow(sampledRow)
	for _, nwl := range t.NeighborWLs(wl) {
		// The DRAM drives the victim wordline directly; through the
		// command interface this is an activate-restore of any
		// addressed alias of that wordline.
		row := t.UnmapRow(nwl, 0)
		if err := d.H.Activate(d.Bank, row); err != nil {
			return err
		}
		if err := d.H.Precharge(d.Bank); err != nil {
			return err
		}
	}
	return nil
}

// Scrambler is the §VI-B data-masking proposal: the MC XORs written
// data with a keyed pseudo-random mask derived from BOTH the row and
// the column address, so an attacker cannot place the adversarial
// row/column pattern of O13/O14 into the array.
type Scrambler struct {
	Key uint64
}

// Mask returns the mask burst for an address.
func (s Scrambler) Mask(bank, row, col int) uint64 {
	return rng.Hash(s.Key, uint64(bank), uint64(row), uint64(col))
}
