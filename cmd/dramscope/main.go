// Command dramscope runs the reverse-engineering pipeline against a
// simulated DRAM device and prints what it uncovers — the tool-shaped
// entry point to the library.
//
// Usage:
//
//	dramscope [-profile NAME] [-seed N] [-swizzle] [-store DIR]
//	dramscope -list
//
// With -store DIR the recovered probe chain is persisted in the same
// content-addressed artifact store cmd/experiments and cmd/dramscoped
// use, keyed by (profile, seed, probe level): a repeated invocation —
// or a suite run that happens to share the key — loads the results and
// skips the probing entirely ("probe cost: none"). -store-readonly
// serves hits without ever writing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"dramscope/internal/cli"
	"dramscope/internal/core"
	"dramscope/internal/expt"
	"dramscope/internal/stats"
	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

func main() {
	profile := flag.String("profile", "MfrA-DDR4-x4-2016", "device profile to probe (see -list)")
	seed := flag.Uint64("seed", 1, "fault-map seed")
	list := flag.Bool("list", false, "list available device profiles")
	swizzle := flag.Bool("swizzle", false, "also reverse-engineer the data swizzle (slower)")
	storeFlags := cli.BindStoreFlags(flag.CommandLine)
	traceFlags := cli.BindTraceFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Print(expandedCatalog())
		return
	}
	if err := run(*profile, *seed, *swizzle, storeFlags, traceFlags); err != nil {
		fmt.Fprintln(os.Stderr, "dramscope:", err)
		os.Exit(1)
	}
}

func expandedCatalog() string {
	t := stats.NewTable("Profile", "Kind", "Vendor", "Coupled", "Remap", "MAT width", "Cells")
	for _, p := range topo.Catalog() {
		t.Row(p.Name, p.Kind, p.Vendor, p.Coupled, p.RowRemap, p.MATWidth, p.Scheme)
	}
	return t.String()
}

func run(name string, seed uint64, withSwizzle bool, storeFlags *cli.StoreFlags, traceFlags *cli.TraceFlags) error {
	prof, err := cli.Profile(name)
	if err != nil {
		return err
	}
	st, err := storeFlags.Open()
	if err != nil {
		return err
	}

	e, err := expt.NewEnv(prof, seed)
	if err != nil {
		return err
	}
	fmt.Printf("Probing %s (bank 0, %d rows x %d cols x %d-bit bursts)\n\n",
		prof.Name, e.Host.Rows(), e.Host.Columns(), e.Host.DataWidth())

	// -trace: one "probe" root named by (profile, seed), with one child
	// per probe stage carrying that stage's DRAM command bill.
	rec := traceFlags.Recorder()
	rec.SetTraceID(trace.DeriveID(prof.Name, strconv.FormatUint(seed, 10)))
	root := rec.Root("probe", fmt.Sprintf("probe %s seed %d", prof.Name, seed)).Begin()
	root.SetAttr("profile", prof.Name).SetAttr("seed", seed)

	level := expt.ProbeCells
	if withSwizzle {
		level = expt.ProbeSwizzle
	}
	warm := root.Child("warm", "probe-chain warm-up").Begin()
	warm.SetAttr("level", int(level))
	if err := e.WarmStored(st, level); err != nil {
		return err
	}
	warm.AddCounters(e.Commands())
	warm.AddBatches(e.Host.Batches())
	warm.End()
	if cost := e.Commands(); cost.Total() == 0 {
		fmt.Println("probe cost: none (loaded from store)")
	} else {
		fmt.Printf("probe cost: %s\n", cost)
	}

	ro, err := e.Order()
	if err != nil {
		return err
	}
	fmt.Printf("Row order: remapped=%v LUT=%v\n", ro.Remapped(), ro.LUT)

	sub, err := e.Subarrays()
	if err != nil {
		return err
	}
	fmt.Printf("Subarrays: %d boundaries in %d scanned rows; heights %v...\n",
		len(sub.Boundaries), sub.ScannedRows, head(sub.Heights, 8))
	fmt.Printf("  open bitline: %v, cross-boundary copy inverted: %v\n",
		sub.OpenBitline, sub.InvertedCopy)
	fmt.Printf("  edge region: %d subarrays; region gaps at %v\n",
		sub.EdgeRegionSubarrays, sub.RegionEdges)

	// The coupled-row probe is not part of the persisted chain, so it
	// runs on a pristine clone: fresh device, probe cache primed from
	// above. That makes its output a pure function of (profile, seed) —
	// identical whether the chain was probed or loaded.
	mc, err := e.Clone()
	if err != nil {
		return err
	}
	cs := root.Child("coupled", "coupled-row probe").Begin()
	coupled, err := core.ProbeCoupledRows(mc.Host, mc.Bank, ro)
	if err != nil {
		return err
	}
	cs.AddCounters(mc.Commands())
	cs.AddBatches(mc.Host.Batches())
	cs.End()
	if coupled.Coupled() {
		fmt.Printf("Coupled rows: (n, n+%d) alias one wordline\n", coupled.Distance)
	} else {
		fmt.Println("Coupled rows: none detected")
	}

	pol, err := e.Cells()
	if err != nil {
		return err
	}
	fmt.Printf("Cell polarity: interleaved=%v anti-by-subarray=%v...\n",
		pol.Interleaved, headBool(pol.AntiBySubarray, 6))

	if withSwizzle {
		// Warmed to ProbeSwizzle above: the probe's cost is on probe/warm.
		sm, err := e.Swizzle()
		if err != nil {
			return err
		}
		fmt.Printf("\nData swizzle: %d MATs x %d bits per burst, MAT width %d cells, column stride %d\n",
			sm.MATsPerBurst(), sm.BitsPerMAT, sm.MATWidthBits, sm.ColumnStride)
		for i, ord := range sm.Orders {
			fmt.Printf("  MAT %d cell order: %v\n", i, ord)
		}
	}
	root.End()
	return traceFlags.Write(rec)
}

func head(xs []int, n int) []int {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func headBool(xs []bool, n int) []bool {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
