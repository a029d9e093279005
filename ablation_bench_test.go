package main

import (
	"testing"

	"dramscope/internal/chip"
	"dramscope/internal/core"
	"dramscope/internal/expt"
	"dramscope/internal/host"
	"dramscope/internal/topo"
)

// Ablation benchmarks for the design choices the chip model's package
// docs call out: the
// O(1) hammer pulse path, the stress-floor scan skip that keeps
// incidental activations cheap, and the end-to-end cost of the blind
// probe chain.

// BenchmarkAblationPulseVsExplicit quantifies the hammer fast path:
// the same 100K-activation train via Pulse and via an explicit
// per-command ACT/PRE loop (semantically identical; chip tests assert
// equivalence).
func BenchmarkAblationPulseVsExplicit(b *testing.B) {
	b.Run("pulse", func(b *testing.B) {
		h := host.New(chip.MustNew(topo.Small(), 1))
		for i := 0; i < b.N; i++ {
			if err := h.Hammer(0, 40, 100_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explicit", func(b *testing.B) {
		h := host.New(chip.MustNew(topo.Small(), 1))
		for i := 0; i < b.N; i++ {
			for n := 0; n < 100_000; n++ {
				if err := h.Activate(0, 40); err != nil {
					b.Fatal(err)
				}
				if err := h.Precharge(0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationScanThroughput measures the RowCopy boundary-scan
// rate — the operation the stress-floor skip keeps at O(1) per row.
func BenchmarkAblationScanThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := host.New(chip.MustNew(topo.Small(), 1))
		sub, err := core.ProbeSubarrays(h, 0, &core.RowOrder{LUT: [4]int{0, 1, 3, 2}},
			core.SubarrayScan{MaxRows: 448, Cols: []int{0, 1}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sub.ScannedRows), "rows")
	}
}

// BenchmarkDiscoverPipeline is the end-to-end blind discovery cost on
// the small test device: expt.Env's probe chain (row order, subarrays,
// cell polarity, swizzle) from a fresh chip.
func BenchmarkDiscoverPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := expt.NewEnv(topo.Small(), 11)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Warm(expt.ProbeSwizzle); err != nil {
			b.Fatal(err)
		}
		if sm, _ := e.Swizzle(); sm.MATWidthBits != 512 {
			b.Fatal("pipeline result wrong")
		}
	}
}

// BenchmarkFig5Module measures the module-level pitfall analysis with
// a full 8-chip RDIMM (the catalog benches use 4 chips).
func BenchmarkFig5Module(b *testing.B) {
	p, ok := topo.ByName("MfrB-DDR4-x8-2017")
	if !ok {
		b.Fatal("profile missing")
	}
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig5(p, 8, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DistinctDQImages), "dqImages")
	}
}
