// Package expt implements one runner per table and figure of the
// paper's evaluation (the artifact → experiment map in README.md). The
// runners are shared by cmd/experiments, the test suite, and the
// benchmark harness; each returns typed results plus a rendered text
// table shaped like the paper's artifact output.
package expt

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dramscope/internal/chip"
	"dramscope/internal/core"
	"dramscope/internal/host"
	"dramscope/internal/stats"
	"dramscope/internal/store"
	"dramscope/internal/topo"
)

// probeCell caches one probe result (value or error) behind a
// sync.Once so concurrent readers share a single probe run. The probes
// drive the device through the Host, so the Once also guarantees the
// device sees each probe's command sequence exactly once.
type probeCell[T any] struct {
	once sync.Once
	done atomic.Bool
	val  T
	err  error
}

func (p *probeCell[T]) get(f func() (T, error)) (T, error) {
	p.once.Do(func() {
		p.val, p.err = f()
		p.done.Store(true)
	})
	return p.val, p.err
}

// copyFrom primes this cell with another cell's completed result, if
// any. The done flag is a release/acquire pair with get's Store, so a
// concurrent cloner sees a fully written (val, err).
func (p *probeCell[T]) copyFrom(src *probeCell[T]) {
	if !src.done.Load() {
		return
	}
	p.once.Do(func() {
		p.val, p.err = src.val, src.err
		p.done.Store(true)
	})
}

// prime seeds the cell with an externally recovered result (a store
// hit). Like copyFrom it is a no-op on a cell that already completed,
// so racing a prime against a live probe is safe — first writer wins
// and both describe the same pure function of (profile, seed).
func (p *probeCell[T]) prime(v T) {
	p.once.Do(func() {
		p.val = v
		p.done.Store(true)
	})
}

// ok reports a completed, successful probe. The done flag's
// release/acquire pairing makes the err read safe.
func (p *probeCell[T]) ok() bool {
	return p.done.Load() && p.err == nil
}

// peek returns the completed value, or the zero value if the probe has
// not completed successfully.
func (p *probeCell[T]) peek() (v T) {
	if p.ok() {
		v = p.val
	}
	return v
}

// Env is one device under test plus its (lazily) recovered mapping.
//
// The probe accessors (Order, Subarrays, Cells, Swizzle) are safe for
// concurrent use: each probe runs exactly once and later callers get
// the cached result. The probes form a chain (Order -> Subarrays ->
// Cells -> Swizzle), so concurrent callers of different accessors
// serialize through the shared prefix. Measurements (AIB runs etc.)
// mutate device state and are NOT safe to run concurrently on one Env:
// the Suite drives a device's shared Env only from that device's warm
// node, and every experiment and unit measures on its own Clone.
type Env struct {
	Prof topo.Profile
	Chip *chip.Chip
	Host *host.Host
	Bank int

	seed uint64

	// parent is the Env this one was cloned from (nil for roots). The
	// root owns the chip pool its clones recycle through: Clone pulls a
	// Reset device instead of building one, Release returns it. Safe
	// for concurrent cloners (sync.Pool).
	parent *Env
	pool   sync.Pool

	order probeCell[*core.RowOrder]
	sub   probeCell[*core.SubarrayLayout]
	cells probeCell[*core.CellPolarity]
	swz   probeCell[*core.SwizzleMap]
}

// NewEnv builds a device and its host.
func NewEnv(prof topo.Profile, seed uint64) (*Env, error) {
	c, err := chip.New(prof, seed)
	if err != nil {
		return nil, err
	}
	return &Env{Prof: prof, Chip: c, Host: host.New(c), seed: seed}, nil
}

// Commands returns a snapshot of the DRAM command totals this Env's
// own Host has issued. On a suite's shared device Env only the probe
// chain ever drives that Host (measurements run on clones), so the
// totals are exactly the probe cost — and a warm store run leaves them
// at zero, the property the store tests and CI assert.
func (e *Env) Commands() host.Counters { return e.Host.Counters() }

// Clone builds a pristine twin of this Env: a freshly powered-on
// device with the same profile and fault seed (so it is bit-identical
// to the one this Env started from), whose probe cache is primed with
// every probe result this Env has already computed — a read-only view
// of the warmed probe chain.
//
// Clones are how shard units measure concurrently without sharing
// device state: each unit measures on its own clone, so its result
// depends only on (profile, seed, unit), never on what other units —
// or experiments on the parent Env — did first. Cloning is safe from
// multiple goroutines; the parent's cached probe results are shared by
// pointer and must be treated as immutable.
func (e *Env) Clone() (*Env, error) {
	root := e
	for root.parent != nil {
		root = root.parent
	}
	var c *chip.Chip
	if v := root.pool.Get(); v != nil {
		// A released clone's device: Reset restores power-on state
		// exactly (same profile and seed family by construction), so the
		// recycled chip is indistinguishable from a fresh one.
		c = v.(*chip.Chip)
		c.Reset()
	} else {
		var err error
		c, err = chip.New(e.Prof, e.seed)
		if err != nil {
			return nil, err
		}
	}
	ne := &Env{
		Prof:   e.Prof,
		Chip:   c,
		Host:   host.New(c),
		Bank:   e.Bank,
		seed:   e.seed,
		parent: root,
	}
	ne.order.copyFrom(&e.order)
	ne.sub.copyFrom(&e.sub)
	ne.cells.copyFrom(&e.cells)
	ne.swz.copyFrom(&e.swz)
	return ne, nil
}

// Release returns a clone's device to its parent's pool for the next
// Clone to recycle, and severs this Env from it. Only the final owner
// may call Release, and the Env must not be used afterward (Chip and
// Host are nil). Releasing a root Env is a no-op.
func (e *Env) Release() {
	if e.parent == nil || e.Chip == nil {
		return
	}
	e.parent.pool.Put(e.Chip)
	e.Chip = nil
	e.Host = nil
}

// free hands the device memory of a root Env, and of every clone chip
// parked in its pool, to the chip package for reuse (chip.Free). The
// Env's probe results and host counters stay readable; its devices are
// gone.
func (e *Env) free() {
	for v := e.pool.Get(); v != nil; v = e.pool.Get() {
		v.(*chip.Chip).Free()
	}
	e.Chip.Free()
}

// Order runs (and caches) the row-order probe.
func (e *Env) Order() (*core.RowOrder, error) {
	return e.order.get(func() (*core.RowOrder, error) {
		return core.ProbeRowOrder(e.Host, e.Bank)
	})
}

// Subarrays runs (and caches) the subarray probe.
func (e *Env) Subarrays() (*core.SubarrayLayout, error) {
	return e.sub.get(func() (*core.SubarrayLayout, error) {
		ro, err := e.Order()
		if err != nil {
			return nil, err
		}
		return core.ProbeSubarrays(e.Host, e.Bank, ro, core.DefaultSubarrayScan)
	})
}

// Cells runs (and caches) the retention-based polarity probe.
func (e *Env) Cells() (*core.CellPolarity, error) {
	return e.cells.get(func() (*core.CellPolarity, error) {
		sub, err := e.Subarrays()
		if err != nil {
			return nil, err
		}
		return core.ProbeCellPolarity(e.Host, e.Bank, sub)
	})
}

// Swizzle runs (and caches) the swizzle probe.
func (e *Env) Swizzle() (*core.SwizzleMap, error) {
	return e.swz.get(func() (*core.SwizzleMap, error) {
		ro, err := e.Order()
		if err != nil {
			return nil, err
		}
		sub, err := e.Subarrays()
		if err != nil {
			return nil, err
		}
		pol, err := e.Cells()
		if err != nil {
			return nil, err
		}
		return core.ProbeSwizzle(e.Host, e.Bank, ro, sub, pol)
	})
}

// ProbeLevel identifies how deep the Order -> Subarrays -> Cells ->
// Swizzle probe chain an experiment needs warmed before it runs.
type ProbeLevel int

const (
	// ProbeNone: the experiment does not touch the cached probes.
	ProbeNone ProbeLevel = iota
	// ProbeOrder: row-order recovery only.
	ProbeOrder
	// ProbeSubarrays: row order plus subarray boundaries.
	ProbeSubarrays
	// ProbeCells: through the retention-based polarity probe.
	ProbeCells
	// ProbeSwizzle: the full chain, enough for AIB measurements.
	ProbeSwizzle
)

// Warm runs the probe chain up to the given level so later accessors
// hit the cache. Warming before any measurement keeps the device's
// command history — and therefore every measurement result —
// independent of which experiment on a shared device runs first.
func (e *Env) Warm(level ProbeLevel) error {
	steps := []func() error{
		func() error { _, err := e.Order(); return err },
		func() error { _, err := e.Subarrays(); return err },
		func() error { _, err := e.Cells(); return err },
		func() error { _, err := e.Swizzle(); return err },
	}
	for i := 0; i < int(level) && i < len(steps); i++ {
		if err := steps[i](); err != nil {
			return err
		}
	}
	return nil
}

// warmedTo reports whether every probe through level has completed
// successfully, i.e. whether Warm(level) would issue zero commands.
func (e *Env) warmedTo(level ProbeLevel) bool {
	checks := []func() bool{e.order.ok, e.sub.ok, e.cells.ok, e.swz.ok}
	for i := 0; i < int(level) && i < len(checks); i++ {
		if !checks[i]() {
			return false
		}
	}
	return true
}

// WarmStored warms the probe chain to level, consulting a persistent
// artifact store first. On a hit the recovered results are primed into
// the probe cache read-only — exactly like Env.Clone primes a clone —
// so a store-warmed Env is indistinguishable from a freshly probed one
// to every reader, and measurements on its clones are byte-identical
// by construction. Entries at other chain depths are reused too: a
// deeper entry serves the request outright (it is a strict superset),
// and a shallower one primes the prefix so only the missing tail is
// probed. On a full miss (including corrupt or incompatible entries,
// which fall back silently) the chain is probed for real and the
// result saved best-effort for the next run. A nil store degrades to
// plain Warm.
func (e *Env) WarmStored(st *store.Store, level ProbeLevel) error {
	if st == nil || level <= ProbeNone || e.warmedTo(level) {
		return e.Warm(level)
	}
	probeKey := func(lv ProbeLevel) store.ProbeKey {
		return store.ProbeKey{Profile: e.Prof, Seed: e.seed, Level: int(lv)}
	}
	// Full hit: the requested level, or any deeper entry — a deeper
	// chain is a strict superset, and ImportProbes primes only through
	// the requested level.
	for lv := level; lv <= ProbeSwizzle; lv++ {
		if ps, ok := st.LoadProbes(probeKey(lv)); ok {
			if err := e.ImportProbes(ps, level); err == nil {
				return nil
			}
			// The entry decoded but does not fit this Env (e.g. the
			// profile's geometry moved without a version bump): stop
			// scanning and re-probe; the save below overwrites it.
			break
		}
	}
	// Partial hit: the deepest shallower entry primes a prefix of the
	// chain, so Warm only pays for the missing tail.
	for lv := level - 1; lv > ProbeNone; lv-- {
		if ps, ok := st.LoadProbes(probeKey(lv)); ok {
			if err := e.ImportProbes(ps, lv); err == nil {
				break
			}
		}
	}
	if err := e.Warm(level); err != nil {
		return err
	}
	if ps, ok := e.ExportProbes(level); ok {
		// Best-effort: a full store disk or permission problem must
		// not fail the run — the next one just probes again.
		_ = st.SaveProbes(probeKey(level), ps)
	}
	return nil
}

// ExportProbes snapshots the successfully completed probe chain
// through level as a serializable ProbeState. It returns false if any
// probe through level has not completed successfully (probe errors are
// never persisted — a failing chain re-probes every run).
func (e *Env) ExportProbes(level ProbeLevel) (*core.ProbeState, bool) {
	if !e.warmedTo(level) {
		return nil, false
	}
	ps := &core.ProbeState{}
	if level >= ProbeOrder {
		ps.Order = e.order.peek()
	}
	if level >= ProbeSubarrays {
		ps.Subarrays = e.sub.peek()
	}
	if level >= ProbeCells {
		ps.Cells = e.cells.peek()
	}
	if level >= ProbeSwizzle {
		ps.Swizzle = e.swz.peek()
	}
	return ps, true
}

// ImportProbes primes the probe cache with a previously exported
// state, through level. The state must already have passed
// core-level validation (DecodeProbeState); this adds the checks that
// need the device at hand — the state has the required chain depth and
// its geometry fits this Env — and rejects rather than poisons the
// cache on mismatch. Priming is read-only and idempotent: cells that
// already completed keep their result (which, by determinism, is the
// same one).
func (e *Env) ImportProbes(ps *core.ProbeState, level ProbeLevel) error {
	if ps == nil {
		return fmt.Errorf("expt: nil probe state")
	}
	if err := ps.Validate(); err != nil {
		return fmt.Errorf("expt: import probes: %w", err)
	}
	if (level >= ProbeOrder && ps.Order == nil) ||
		(level >= ProbeSubarrays && ps.Subarrays == nil) ||
		(level >= ProbeCells && ps.Cells == nil) ||
		(level >= ProbeSwizzle && ps.Swizzle == nil) {
		return fmt.Errorf("expt: probe state too shallow for level %d", level)
	}
	if ps.Subarrays != nil && ps.Subarrays.ScannedRows > e.Host.Rows() {
		return fmt.Errorf("expt: probe state scanned %d rows, device has %d",
			ps.Subarrays.ScannedRows, e.Host.Rows())
	}
	if ps.Swizzle != nil && len(ps.Swizzle.Parity) != e.Host.DataWidth() {
		return fmt.Errorf("expt: probe state covers %d burst bits, device has %d",
			len(ps.Swizzle.Parity), e.Host.DataWidth())
	}
	if level >= ProbeOrder {
		e.order.prime(ps.Order)
	}
	if level >= ProbeSubarrays {
		e.sub.prime(ps.Subarrays)
	}
	if level >= ProbeCells {
		e.cells.prime(ps.Cells)
	}
	if level >= ProbeSwizzle {
		e.swz.prime(ps.Swizzle)
	}
	return nil
}

// AIB returns a measurement harness wired to the recovered mapping.
func (e *Env) AIB() (*core.AIB, error) {
	ro, err := e.Order()
	if err != nil {
		return nil, err
	}
	sm, err := e.Swizzle()
	if err != nil {
		return nil, err
	}
	return &core.AIB{H: e.Host, Bank: e.Bank, Order: ro, Map: sm}, nil
}

// interiorVictims returns n victim physical rows, spaced by 3, inside
// the second subarray (interior: no edge damping), starting past the
// region the swizzle probe used.
func (e *Env) interiorVictims(n int) ([]int, error) {
	sub, err := e.Subarrays()
	if err != nil {
		return nil, err
	}
	if len(sub.Boundaries) < 2 {
		return nil, fmt.Errorf("expt: need two boundaries for interior victims")
	}
	base := sub.Boundaries[0] + 8
	limit := sub.Boundaries[1] - 2
	var out []int
	for p := base; len(out) < n && p < limit; p += 3 {
		out = append(out, p)
	}
	if len(out) < n {
		return nil, fmt.Errorf("expt: subarray too small for %d victims", n)
	}
	return out, nil
}

// edgeVictims returns n victim physical rows inside the first (edge)
// subarray.
func (e *Env) edgeVictims(n int) ([]int, error) {
	sub, err := e.Subarrays()
	if err != nil {
		return nil, err
	}
	limit := sub.Boundaries[0] - 2
	var out []int
	for p := 4; len(out) < n && p < limit; p += 3 {
		out = append(out, p)
	}
	if len(out) < n {
		return nil, fmt.Errorf("expt: edge subarray too small for %d victims", n)
	}
	return out, nil
}

// TableI renders the tested-device population (paper Table I).
func TableI() *stats.Table {
	t := stats.NewTable("DRAM type", "Vendor", "Chip type", "Density", "Year", "# chips")
	for _, p := range topo.Catalog() {
		year := fmt.Sprintf("%d", p.Year)
		if p.Year == 0 {
			year = "N/A"
		}
		kind := fmt.Sprintf("x%d", p.ChipWidth)
		if p.Kind == "HBM2" {
			kind = "4-Hi stack"
		}
		t.Row(p.Kind, "Mfr. "+p.Vendor, kind, p.Density, year, p.ChipsTested)
	}
	return t
}

// TableIIIRow is one device's recovered structure (paper Table III).
type TableIIIRow struct {
	Name string
	// Composition maps subarray height -> count within one region.
	Composition map[int]int
	// EdgeIntervalRows is the edge-region period in addressed rows.
	EdgeIntervalRows int
	// CoupledDistance is the coupled-row distance (0 = N/A).
	CoupledDistance int
	// Remapped reports internal row remapping (§III-C pitfall 2).
	Remapped bool
	// InvertedCopy distinguishes the true-cell-only RowCopy polarity.
	InvertedCopy bool
}

// CompositionString renders "11x640 + 2x576"-style summaries.
func (r TableIIIRow) CompositionString() string {
	heights := make([]int, 0, len(r.Composition))
	for h := range r.Composition {
		heights = append(heights, h)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(heights)))
	parts := make([]string, 0, len(heights))
	for _, h := range heights {
		parts = append(parts, fmt.Sprintf("%dx%d", r.Composition[h], h))
	}
	return strings.Join(parts, " + ")
}

// TableIII reverse-engineers one device's subarray structure.
func TableIII(e *Env) (*TableIIIRow, error) {
	ro, err := e.Order()
	if err != nil {
		return nil, err
	}
	sub, err := e.Subarrays()
	if err != nil {
		return nil, err
	}
	coupled, err := core.ProbeCoupledRows(e.Host, e.Bank, ro)
	if err != nil {
		return nil, err
	}

	row := &TableIIIRow{
		Name:         e.Prof.Name,
		Composition:  map[int]int{},
		Remapped:     ro.Remapped(),
		InvertedCopy: sub.InvertedCopy,
	}
	nsub := sub.EdgeRegionSubarrays
	if nsub == 0 {
		return nil, fmt.Errorf("expt: no edge pairing found for %s", e.Prof.Name)
	}
	// Table III reports the composition per repeating pattern block;
	// find the smallest period of the recovered height sequence,
	// validated across everything the scan saw (a window of one
	// region can alias shorter false periods).
	period := nsub
	for p := 1; p <= nsub; p++ {
		ok := true
		for i := p; i < len(sub.Heights); i++ {
			if sub.Heights[i] != sub.Heights[i-p] {
				ok = false
				break
			}
		}
		if ok {
			period = p
			break
		}
	}
	for i := 0; i < period; i++ {
		row.Composition[sub.Heights[i]]++
	}
	// Edge interval: region size in addressed rows.
	physRows := 0
	for i := 0; i < nsub && i < len(sub.Heights); i++ {
		physRows += sub.Heights[i]
	}
	mult := 1
	if coupled.Coupled() {
		mult = 2
	}
	row.EdgeIntervalRows = physRows * mult
	row.CoupledDistance = coupled.Distance
	return row, nil
}

// RenderTableIII renders recovered rows in the paper's shape.
func RenderTableIII(rows []*TableIIIRow) *stats.Table {
	t := stats.NewTable("Device", "Subarray composition", "Edge interval", "Coupled distance", "Row remap", "Copy polarity")
	for _, r := range rows {
		coupled := "N/A"
		if r.CoupledDistance > 0 {
			coupled = fmt.Sprintf("%d rows", r.CoupledDistance)
		}
		pol := "inverted"
		if !r.InvertedCopy {
			pol = "as-is"
		}
		t.Row(r.Name, r.CompositionString(),
			fmt.Sprintf("per %d rows", r.EdgeIntervalRows), coupled, r.Remapped, pol)
	}
	return t
}
