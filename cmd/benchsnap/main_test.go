package main

import (
	"testing"
	"time"
)

func millis(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

// The trace-overhead gate compares medians: one slow run on either side
// (a scheduler hiccup) must not decide it, while a steady slowdown of
// every traced run must fail it.
func TestTraceVerdict(t *testing.T) {
	untraced := millis(500, 512, 488, 530, 495)
	for _, tc := range []struct {
		name             string
		untraced, traced []time.Duration
		pass             bool
	}{
		{"equal", untraced, millis(498, 515, 490, 527, 501), true},
		{"one slow traced outlier", untraced, millis(498, 1304, 490, 527, 501), true},
		{"one slow untraced outlier", millis(500, 512, 488, 2000, 495), millis(498, 515, 490, 527, 501), true},
		{"steady +10%", untraced, millis(550, 563, 537, 583, 545), false},
		{"steady +10% beside a slow untraced outlier", millis(500, 512, 488, 2000, 495), millis(550, 563, 537, 583, 545), false},
	} {
		ratio, err := traceVerdict(tc.untraced, tc.traced, 1.05)
		if (err == nil) != tc.pass {
			t.Errorf("%s: ratio %.3f, err %v, want pass=%v", tc.name, ratio, err, tc.pass)
		}
	}
}

// The suite gate compares the median of three runs' ns/ACT with the
// snapshot: one slow run must not fail it, two must.
func TestSuiteVerdict(t *testing.T) {
	const acts, want = 1_000_000_000, 0.5 // a 500 ms suite
	for _, tc := range []struct {
		name  string
		walls []time.Duration
		pass  bool
	}{
		{"equal", millis(500, 510, 490), true},
		{"one run at 2x", millis(500, 1000, 490), true},
		{"two runs at 1.6x", millis(800, 810, 490), false},
		{"steady 1.6x", millis(800, 810, 790), false},
	} {
		err := suiteVerdict("cold", tc.walls, acts, want, 1.5)
		if (err == nil) != tc.pass {
			t.Errorf("%s: err %v, want pass=%v", tc.name, err, tc.pass)
		}
	}
	if err := suiteVerdict("warm", millis(500, 500, 500), 0, want, 1.5); err == nil {
		t.Error("a suite that metered no activations passed")
	}
}
