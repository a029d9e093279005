package core

import (
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

// BenchmarkSubarrayScan times the cold RowCopy boundary scan: each
// iteration runs one full-bank ProbeSubarrays on a freshly built
// MfrB-DDR4-x8-2017 chip (32,768 rows). Building the chip and the
// row-order probe that precedes the scan are untimed; the chip is freed
// afterwards, as a suite frees its devices.
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
