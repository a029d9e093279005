package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"dramscope/internal/chip"
	"dramscope/internal/host"
	"dramscope/internal/topo"
)

// A row with two unvisited in-window neighbors makes the chain walk's
// next step depend on map iteration order. The walk must reject it
// with one error naming the branching row, every time.
func TestRowOrderChainBranchIsDeterministic(t *testing.T) {
	const base, wnd = 16, 16
	const want = "core: adjacency chain branches at row 17 (2 unvisited in-window neighbors)"
	for i := 0; i < 100; i++ {
		adj := make(map[int][]int)
		for a := base; a < base+wnd; a++ {
			adj[a] = []int{a - 1, a + 1}
		}
		adj[17] = append(adj[17], 19) // one extra victim of row 17
		lut, err := lutFromAdjacency(adj, base, wnd)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got LUT %v, error %v; want error %q", i, lut, err, want)
		}
	}
}

// A RowCopy classification on rows the scan has already touched must
// not allocate: the classifier's buffers, the host's burst path and the
// chip's row state are all reused. Both pairs run both phases' writes;
// the cross-boundary one also runs phase c.
func TestCopyClassifyZeroAlloc(t *testing.T) {
	h := small(t)
	tp := h.Target().(*chip.Chip).Topology()
	cc := newCopyClassifier(h, 0, DefaultSubarrayScan.Cols)
	pairs := [][2]int{
		{tp.UnmapRow(10, 0), tp.UnmapRow(11, 0)}, // same subarray
		{tp.UnmapRow(63, 0), tp.UnmapRow(64, 0)}, // across a boundary
	}
	classify := func() {
		for _, p := range pairs {
			if _, _, err := cc.classify(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	classify()
	if allocs := testing.AllocsPerRun(50, classify); allocs != 0 {
		t.Fatalf("classification on touched rows allocates %.0f objects per run", allocs)
	}
}

// probeSubarraysExhaustive is the paper's boundary scan (§IV-C): it
// classifies every physically adjacent row pair in order. It is the
// reference the search in ProbeSubarrays is held to.
func probeSubarraysExhaustive(h *host.Host, bank int, order *RowOrder, scan SubarrayScan) (*SubarrayLayout, error) {
	s := newLayoutScan(h, bank, order, scan)
	for p := 0; p+1 < s.out.ScannedRows; p++ {
		cls, pol, err := s.classify(p, p+1)
		if err != nil {
			return nil, err
		}
		s.record(p, cls, pol)
	}
	return s.finish()
}

// topoBoundaries derives the boundaries and region edges of the first
// n physical positions under order from the ground-truth copy relation
// of each adjacent pair: a full copy is no boundary, no copy is a
// region edge, anything else is a plain boundary.
func topoBoundaries(tp *topo.Topology, order *RowOrder, n int) (boundaries, edges []int) {
	for p := 0; p+1 < n; p++ {
		a, _ := tp.MapRow(order.RowAt(p))
		b, _ := tp.MapRow(order.RowAt(p + 1))
		switch tp.CopyRelationOf(a, b) {
		case topo.CopyFull:
		case topo.CopyNone:
			boundaries = append(boundaries, p)
			edges = append(edges, p)
		default:
			boundaries = append(boundaries, p)
		}
	}
	return boundaries, edges
}

// The boundary search must recover exactly the layout of the exhaustive
// walk, on every catalog device over several seeds, and both must match
// the ground truth. Each scan runs on its own fresh chip after its own
// row-order probe. On the figure device the cell-polarity and swizzle
// probes then run on both chips and must agree: the search issues far
// fewer commands first, and the later probes must not depend on that
// history. -short runs a sample.
func TestSubarraySearchMatchesReference(t *testing.T) {
	t.Parallel()
	const figDevice = "MfrA-DDR4-x4-2021"
	profiles, seeds := topo.Catalog(), []uint64{1, 5, 7}
	if testing.Short() {
		profiles, seeds = topo.Representative(), seeds[:1]
	}
	for _, prof := range profiles {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", prof.Name, seed), func(t *testing.T) {
				t.Parallel()
				// A bank survey scans one pattern block plus slack, so its
				// scan ends inside a subarray.
				bounded := SubarrayScan{MaxRows: 64, Cols: DefaultSubarrayScan.Cols}
				for _, height := range prof.Block {
					bounded.MaxRows += height
				}
				type probed struct {
					lay, bankLay *SubarrayLayout
					pol          *CellPolarity
					swz          *SwizzleMap
					order        *RowOrder
				}
				run := func(scan func(*host.Host, int, *RowOrder, SubarrayScan) (*SubarrayLayout, error)) probed {
					c := chip.MustNew(prof, seed)
					defer c.Free()
					h := host.New(c)
					order, err := ProbeRowOrder(h, 0)
					if err != nil {
						t.Fatal(err)
					}
					lay, err := scan(h, 0, order, DefaultSubarrayScan)
					if err != nil {
						t.Fatal(err)
					}
					out := probed{lay: lay, order: order}
					if out.bankLay, err = scan(h, 1, order, bounded); err != nil {
						t.Fatal(err)
					}
					if prof.Name != figDevice {
						return out
					}
					if out.pol, err = ProbeCellPolarity(h, 0, lay); err != nil {
						t.Fatal(err)
					}
					if out.swz, err = ProbeSwizzle(h, 0, order, lay, out.pol); err != nil {
						t.Fatal(err)
					}
					return out
				}
				search, ref := run(ProbeSubarrays), run(probeSubarraysExhaustive)
				if search.order.LUT != ref.order.LUT {
					t.Fatalf("row order differs between fresh chips: %v vs %v", search.order.LUT, ref.order.LUT)
				}
				if !reflect.DeepEqual(search.lay, ref.lay) {
					t.Fatalf("search layout differs from the exhaustive walk:\nsearch: %+v\nwalk:   %+v", search.lay, ref.lay)
				}
				if !reflect.DeepEqual(search.bankLay, ref.bankLay) {
					t.Fatalf("bounded search layout differs from the exhaustive walk:\nsearch: %+v\nwalk:   %+v",
						search.bankLay, ref.bankLay)
				}
				if err := layoutRules(search.lay); err != nil {
					t.Fatal(err)
				}
				if err := (&ProbeState{Order: search.order, Subarrays: search.lay}).Validate(); err != nil {
					t.Fatalf("probed layout fails validation: %v", err)
				}
				tp := prof.MustBuild()
				for _, lay := range []*SubarrayLayout{ref.lay, ref.bankLay} {
					b, e := topoBoundaries(tp, ref.order, lay.ScannedRows)
					if !reflect.DeepEqual(lay.Boundaries, b) || !reflect.DeepEqual(lay.RegionEdges, e) {
						t.Fatalf("%d-row scan: boundaries %v, region edges %v; ground truth %v, %v",
							lay.ScannedRows, lay.Boundaries, lay.RegionEdges, b, e)
					}
				}
				if !reflect.DeepEqual(search.pol, ref.pol) {
					t.Fatalf("cell polarity after the search %+v, after the walk %+v", search.pol, ref.pol)
				}
				if !reflect.DeepEqual(search.swz, ref.swz) {
					t.Fatalf("swizzle after the search %+v, after the walk %+v", search.swz, ref.swz)
				}
			})
		}
	}
}

// BenchmarkSubarrayScan times the cold boundary search: each iteration
// runs one full-bank ProbeSubarrays on a freshly built
// MfrB-DDR4-x8-2017 chip (32,768 rows). Building the chip and the
// row-order probe that precedes the search are untimed; the chip is
// freed afterwards, as a suite frees its devices. ns/row is the probe's
// wall time over the rows it covers, not over the rows it classifies:
// the search classifies about 21 pairs per subarray of some 800 rows.
func BenchmarkSubarrayScan(b *testing.B) {
	prof, ok := topo.ByName("MfrB-DDR4-x8-2017")
	if !ok {
		b.Fatal("MfrB-DDR4-x8-2017 missing from the catalog")
	}
	rows := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := chip.MustNew(prof, 7)
		h := host.New(c)
		order, err := ProbeRowOrder(h, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		lay, err := ProbeSubarrays(h, 0, order, SubarrayScan{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if lay.ScannedRows != h.Rows() {
			b.Fatalf("scanned %d of %d rows", lay.ScannedRows, h.Rows())
		}
		rows += lay.ScannedRows
		c.Free()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// probeRowOrderRefillAll is the row-order probe as §III-C runs it: the
// whole window is re-filled before every hammer. It is the reference
// ProbeRowOrder, which re-fills only the rows a hammer may have
// changed, is held to.
func probeRowOrderRefillAll(h *host.Host, bank int) (*RowOrder, error) {
	const base, wnd = 16, 16
	if h.Rows() < base+2*wnd {
		return nil, fmt.Errorf("core: bank too small for row-order probe")
	}
	lo, hi := base-4, base+wnd+4
	adj := make(map[int][]int)
	ones := allOnes(h)
	got := make([]uint64, h.Columns())
	for aggr := base; aggr < base+wnd; aggr++ {
		for r := lo; r < hi; r++ {
			v := ones
			if r == aggr {
				v = 0
			}
			if err := h.FillRow(bank, r, v); err != nil {
				return nil, err
			}
		}
		if err := h.Hammer(bank, aggr, rowOrderHammerActs); err != nil {
			return nil, err
		}
		for r := lo; r < hi; r++ {
			if r == aggr {
				continue
			}
			if err := h.ReadRowInto(bank, r, got); err != nil {
				return nil, err
			}
			flips := 0
			for _, v := range got {
				flips += bits.OnesCount64(v ^ ones)
			}
			if flips > 0 {
				adj[aggr] = append(adj[aggr], r)
			}
		}
	}
	lut, err := lutFromAdjacency(adj, base, wnd)
	if err != nil {
		return nil, err
	}
	return &RowOrder{LUT: lut}, nil
}

// warmChain runs the whole probe chain on a fresh chip, bank 0, the
// way a suite's device Env warms it, with probeOrder as the first
// probe. It returns the encoded ProbeState, or the first error.
func warmChain(prof topo.Profile, seed uint64, probeOrder func(*host.Host, int) (*RowOrder, error)) ([]byte, error) {
	c := chip.MustNew(prof, seed)
	defer c.Free()
	h := host.New(c)
	var ps ProbeState
	var err error
	if ps.Order, err = probeOrder(h, 0); err != nil {
		return nil, err
	}
	if ps.Subarrays, err = ProbeSubarrays(h, 0, ps.Order, DefaultSubarrayScan); err != nil {
		return nil, err
	}
	if ps.Cells, err = ProbeCellPolarity(h, 0, ps.Subarrays); err != nil {
		return nil, err
	}
	if ps.Swizzle, err = ProbeSwizzle(h, 0, ps.Order, ps.Subarrays, ps.Cells); err != nil {
		return nil, err
	}
	return EncodeProbeState(&ps)
}

// ProbeRowOrder must recover the reference's LUT, or fail with its
// error, on every catalog device over several seeds, each side on its
// own fresh chip. The chain warmed after it (subarrays, cell polarity,
// swizzle) must then be the same too, or fail the same way: the
// skipped fills change the sim clock and ±1 ACT of neighbour stress,
// and no later probe may depend on that. -short runs a sample.
func TestRowOrderMatchesReference(t *testing.T) {
	t.Parallel()
	profiles, seeds := topo.Catalog(), []uint64{1, 5, 7}
	if testing.Short() {
		profiles, seeds = topo.Representative(), seeds[:1]
	}
	for _, prof := range profiles {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", prof.Name, seed), func(t *testing.T) {
				t.Parallel()
				got, gotErr := warmChain(prof, seed, ProbeRowOrder)
				want, wantErr := warmChain(prof, seed, probeRowOrderRefillAll)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("chain error %v, reference %v", gotErr, wantErr)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("probe chain differs from the full re-fill reference:\ngot:  %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// BenchmarkRowOrder times one cold ProbeRowOrder on a freshly built
// MfrB-DDR4-x8-2017 chip; building and freeing the chip are untimed.
// WR/op and ACT/op are the commands one probe issues: its fills' bursts
// and its hammers' 16 × 1.5 M ACTs plus one per fill and read.
func BenchmarkRowOrder(b *testing.B) {
	prof, ok := topo.ByName("MfrB-DDR4-x8-2017")
	if !ok {
		b.Fatal("MfrB-DDR4-x8-2017 missing from the catalog")
	}
	var cmds host.Counters
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := chip.MustNew(prof, 7)
		h := host.New(c)
		b.StartTimer()
		if _, err := ProbeRowOrder(h, 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cmds = cmds.Add(h.Counters())
		c.Free()
		b.StartTimer()
	}
	b.ReportMetric(float64(cmds.WR)/float64(b.N), "WR/op")
	b.ReportMetric(float64(cmds.ACT)/float64(b.N), "ACT/op")
}
