package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"dramscope/internal/expt"
)

// The committed golden reports are the benchmark's independent
// reference: each workload reproduces one of them, outside the measured
// window, through the same path its operations take, and a byte that
// moves marks the run incorrect. `make golden` writes both fixtures.

// checkGolden compares a report with the named fixture.
func checkGolden(b *bench, fixture string, got []byte) error {
	want, err := os.ReadFile(filepath.Join(b.testdata, fixture))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from the committed %s", fixture)
	}
	return nil
}

// checkGoldenSuite runs the full suite at the default profile and seed
// the way the suite workloads do and compares it with suite_report.json.
func checkGoldenSuite(b *bench) error {
	data, err := runSuite(expt.DefaultSeed, nil, nil)
	if err != nil {
		return err
	}
	return checkGolden(b, "suite_report.json", data)
}

// goldenCampaign is the population of campaign_report.json, as the expt
// package's GoldenCampaign defines it: one representative device per
// vendor, crossed with two seeds, each recovering its Table III row.
func goldenCampaign() []spec {
	var specs []spec
	for _, prof := range []string{"MfrA-DDR4-x4-2016", "MfrB-DDR4-x4-2019", "MfrC-DDR4-x8-2016"} {
		for _, seed := range []uint64{5, 7} {
			specs = append(specs, spec{Profile: prof, Seed: seed, Only: []string{"recover"}})
		}
	}
	return specs
}

// checkGoldenCampaign posts the golden campaign to a dramscoped and
// compares the served aggregate with campaign_report.json.
func checkGoldenCampaign(b *bench, c *client) error {
	_, data, err := c.campaign(goldenCampaign())
	if err != nil {
		return err
	}
	return checkGolden(b, "campaign_report.json", data)
}
