package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func validState() *ProbeState {
	return &ProbeState{
		Order: &RowOrder{LUT: [4]int{0, 1, 3, 2}},
		Subarrays: &SubarrayLayout{
			ScannedRows: 1024, Boundaries: []int{511}, Heights: []int{512},
			OpenBitline: true, InvertedCopy: true, EdgeRegionSubarrays: 2,
		},
		Cells: &CellPolarity{AntiBySubarray: []bool{false, true}, Interleaved: true},
		Swizzle: &SwizzleMap{
			ColumnStride: 1,
			Components:   [][]int{{0, 1}, {2, 3}},
			Orders:       [][]int{{1, 0}, {2, 3}},
			Parity:       []int{0, 1, 0, 1},
			MATWidthBits: 128, BitsPerMAT: 2,
		},
	}
}

// validPrefixes returns validState's chain cut after each probe.
func validPrefixes() []*ProbeState {
	full := validState()
	return []*ProbeState{
		{Order: full.Order},
		{Order: full.Order, Subarrays: full.Subarrays},
		{Order: full.Order, Subarrays: full.Subarrays, Cells: full.Cells},
		full,
	}
}

// misprimedLayout is well-formed JSON with positive heights, but the
// heights do not match the boundaries and the edge region is larger
// than the layout: primed into an Env, it would report a wrong Table
// III row.
const misprimedLayout = `{"version":1,"order":{"lut":[0,1,3,2]},"subarrays":` +
	`{"scannedRows":1024,"boundaries":[99,199],"heights":[640,7,3],"openBitline":true,` +
	`"invertedCopy":true,"edgeRegionSubarrays":57}}`

// layoutRules restates what ProbeSubarrays guarantees about a layout,
// independently of Validate: the heights are the gaps between
// consecutive boundaries (from row -1), optionally closed by one
// trailing height that ends at the last scanned row; the region edges
// are a strictly increasing subset of the boundaries; and the edge
// region spans at most every subarray of the layout.
func layoutRules(s *SubarrayLayout) error {
	var gaps []int
	prev := -1
	for _, b := range s.Boundaries {
		gaps = append(gaps, b-prev)
		prev = b
	}
	closed := append(append([]int(nil), gaps...), s.ScannedRows-1-prev)
	if !reflect.DeepEqual(s.Heights, gaps) && !reflect.DeepEqual(s.Heights, closed) {
		return fmt.Errorf("heights %v are neither %v nor %v", s.Heights, gaps, closed)
	}
	for _, h := range closed {
		if h <= 0 {
			return fmt.Errorf("boundaries %v within %d rows leave an empty subarray", s.Boundaries, s.ScannedRows)
		}
	}
	j := 0
	for i, e := range s.RegionEdges {
		if i > 0 && e <= s.RegionEdges[i-1] {
			return fmt.Errorf("region edges %v not strictly increasing", s.RegionEdges)
		}
		for j < len(s.Boundaries) && s.Boundaries[j] < e {
			j++
		}
		if j == len(s.Boundaries) || s.Boundaries[j] != e {
			return fmt.Errorf("region edge %d is not a boundary of %v", e, s.Boundaries)
		}
	}
	if s.EdgeRegionSubarrays < 0 || s.EdgeRegionSubarrays > len(s.Boundaries)+1 {
		return fmt.Errorf("edge region of %d subarrays in a layout of %d", s.EdgeRegionSubarrays, len(s.Boundaries)+1)
	}
	return nil
}

func TestProbeStateRoundTrip(t *testing.T) {
	t.Parallel()
	// Full chain and every shorter prefix round-trip losslessly.
	for i, ps := range validPrefixes() {
		data, err := EncodeProbeState(ps)
		if err != nil {
			t.Fatalf("prefix %d: encode: %v", i, err)
		}
		got, err := DecodeProbeState(data)
		if err != nil {
			t.Fatalf("prefix %d: decode: %v", i, err)
		}
		re, err := EncodeProbeState(got)
		if err != nil {
			t.Fatalf("prefix %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(data, re) {
			t.Errorf("prefix %d: round trip not stable:\nfirst:  %s\nsecond: %s", i, data, re)
		}
	}
}

func TestProbeStateRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := DecodeProbeState([]byte(`{"version":999}`)); err == nil {
		t.Error("future schema version decoded")
	}
	if _, err := DecodeProbeState([]byte(`{"version":1`)); err == nil {
		t.Error("truncated JSON decoded")
	}
	if _, err := DecodeProbeState([]byte(`{"version":1,"order":{"lut":[0,1,3,2]}} trailing`)); err == nil {
		t.Error("state followed by trailing bytes decoded")
	}
	if _, err := DecodeProbeState([]byte(misprimedLayout)); err == nil {
		t.Error("layout whose heights contradict its boundaries decoded")
	}

	// Chain-prefix and structural violations fail validation.
	for name, mutate := range map[string]func(*ProbeState){
		"swizzle-without-cells": func(ps *ProbeState) { ps.Cells = nil },
		"cells-without-layout":  func(ps *ProbeState) { ps.Subarrays = nil; ps.Swizzle = nil },
		"lut-not-permutation":   func(ps *ProbeState) { ps.Order.LUT = [4]int{0, 0, 3, 2} },
		"boundary-out-of-range": func(ps *ProbeState) { ps.Subarrays.Boundaries = []int{4096} },
		"boundary-at-scan-end": func(ps *ProbeState) {
			ps.Subarrays.Boundaries, ps.Subarrays.Heights = []int{1023}, []int{1024}
		},
		"height-not-gap":         func(ps *ProbeState) { ps.Subarrays.Heights = []int{640} },
		"trailing-height-wrong":  func(ps *ProbeState) { ps.Subarrays.Heights = []int{512, 7} },
		"two-trailing-heights":   func(ps *ProbeState) { ps.Subarrays.Heights = []int{512, 256, 256} },
		"region-edges-repeat":    func(ps *ProbeState) { ps.Subarrays.RegionEdges = []int{511, 511} },
		"region-edge-off-layout": func(ps *ProbeState) { ps.Subarrays.RegionEdges = []int{100} },
		"edge-region-too-large":  func(ps *ProbeState) { ps.Subarrays.EdgeRegionSubarrays = 3 },
		"polarity-count":         func(ps *ProbeState) { ps.Cells.AntiBySubarray = []bool{true} },
		"parity-uneven":          func(ps *ProbeState) { ps.Swizzle.Parity = []int{0, 0, 0, 1} },
		"order-not-permutation":  func(ps *ProbeState) { ps.Swizzle.Orders[0] = []int{0, 0} },
	} {
		ps := validState()
		mutate(ps)
		if err := ps.Validate(); err == nil {
			t.Errorf("%s: invalid state passed validation", name)
		}
		if _, err := EncodeProbeState(ps); err == nil {
			t.Errorf("%s: invalid state encoded", name)
		}
	}
}

// FuzzDecodeProbeState feeds arbitrary bytes to the decoder that
// guards the store's probe entries. It must never panic. A state it
// accepts must re-encode to bytes that decode to the same state, and an
// accepted layout must satisfy what ProbeSubarrays guarantees.
func FuzzDecodeProbeState(f *testing.F) {
	for _, ps := range validPrefixes() {
		data, err := EncodeProbeState(ps)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(misprimedLayout))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeProbeState(data)
		if err != nil {
			return
		}
		re, err := EncodeProbeState(ps)
		if err != nil {
			t.Fatalf("accepted state does not encode: %v", err)
		}
		again, err := DecodeProbeState(re)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v\n%s", err, re)
		}
		if !reflect.DeepEqual(ps, again) {
			t.Fatalf("state moved through a re-encode:\nfirst:  %+v\nsecond: %+v", ps, again)
		}
		if ps.Subarrays != nil {
			if err := layoutRules(ps.Subarrays); err != nil {
				t.Fatalf("accepted layout breaks the probe's guarantees: %v", err)
			}
		}
	})
}
