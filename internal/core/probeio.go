package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// This file defines the stable wire format for the probe-chain result
// types (RowOrder, SubarrayLayout, CellPolarity, SwizzleMap) so they
// can be persisted by internal/store and reloaded into a fresh Env.
// The format is versioned and decodes defensively: every load is
// validated structurally before it is trusted, so a truncated,
// corrupted, or stale entry surfaces as a decode error (and the caller
// falls back to re-probing) instead of as silently wrong measurements.
//
// The wire structs mirror the in-memory types field by field with
// explicit JSON tags. That indirection is deliberate: renaming or
// reshaping an in-memory type breaks the conversion code loudly at
// compile time instead of silently changing the on-disk schema. Any
// change to the probes' semantics or to this format must bump
// ProbeSchemaVersion, which invalidates every existing entry.

// ProbeSchemaVersion is the wire-format generation of the serialized
// probe results. Bump it whenever a probe's output semantics or the
// encoding below changes; stores key and check entries by it, so a
// bump orphans (never mis-reads) old entries.
const ProbeSchemaVersion = 1

// ProbeState bundles the recovered probe-chain results of one device
// at one chain depth. Fields are a strict prefix of the chain
// Order -> Subarrays -> Cells -> Swizzle: a deeper result is never
// present without every shallower one (Validate enforces this),
// because each probe consumes its predecessors' output.
type ProbeState struct {
	Order     *RowOrder
	Subarrays *SubarrayLayout
	Cells     *CellPolarity
	Swizzle   *SwizzleMap
}

// Wire mirrors of the four probe result types.

type probeStateWire struct {
	Version   int                 `json:"version"`
	Order     *rowOrderWire       `json:"order,omitempty"`
	Subarrays *subarrayLayoutWire `json:"subarrays,omitempty"`
	Cells     *cellPolarityWire   `json:"cells,omitempty"`
	Swizzle   *swizzleMapWire     `json:"swizzle,omitempty"`
}

type rowOrderWire struct {
	LUT [4]int `json:"lut"`
}

type subarrayLayoutWire struct {
	ScannedRows         int   `json:"scannedRows"`
	Boundaries          []int `json:"boundaries"`
	RegionEdges         []int `json:"regionEdges,omitempty"`
	Heights             []int `json:"heights"`
	OpenBitline         bool  `json:"openBitline"`
	InvertedCopy        bool  `json:"invertedCopy"`
	EdgeRegionSubarrays int   `json:"edgeRegionSubarrays"`
}

type cellPolarityWire struct {
	AntiBySubarray []bool `json:"antiBySubarray"`
	Interleaved    bool   `json:"interleaved"`
}

type swizzleMapWire struct {
	ColumnStride int     `json:"columnStride"`
	Components   [][]int `json:"components"`
	Orders       [][]int `json:"orders"`
	Parity       []int   `json:"parity"`
	MATWidthBits int     `json:"matWidthBits"`
	BitsPerMAT   int     `json:"bitsPerMat"`
}

// EncodeProbeState serializes a probe state in the versioned wire
// format. The encoding is deterministic for a given state.
func EncodeProbeState(ps *ProbeState) ([]byte, error) {
	if ps == nil {
		return nil, fmt.Errorf("core: nil probe state")
	}
	if err := ps.Validate(); err != nil {
		return nil, fmt.Errorf("core: refusing to encode invalid probe state: %w", err)
	}
	w := probeStateWire{Version: ProbeSchemaVersion}
	if ps.Order != nil {
		w.Order = &rowOrderWire{LUT: ps.Order.LUT}
	}
	if ps.Subarrays != nil {
		s := ps.Subarrays
		w.Subarrays = &subarrayLayoutWire{
			ScannedRows:         s.ScannedRows,
			Boundaries:          s.Boundaries,
			RegionEdges:         s.RegionEdges,
			Heights:             s.Heights,
			OpenBitline:         s.OpenBitline,
			InvertedCopy:        s.InvertedCopy,
			EdgeRegionSubarrays: s.EdgeRegionSubarrays,
		}
	}
	if ps.Cells != nil {
		w.Cells = &cellPolarityWire{
			AntiBySubarray: ps.Cells.AntiBySubarray,
			Interleaved:    ps.Cells.Interleaved,
		}
	}
	if ps.Swizzle != nil {
		m := ps.Swizzle
		w.Swizzle = &swizzleMapWire{
			ColumnStride: m.ColumnStride,
			Components:   m.Components,
			Orders:       m.Orders,
			Parity:       m.Parity,
			MATWidthBits: m.MATWidthBits,
			BitsPerMAT:   m.BitsPerMAT,
		}
	}
	return json.Marshal(w)
}

// DecodeProbeState parses and validates a serialized probe state.
// Any structural problem — bad JSON, unknown fields, bytes after the
// state, a version other than ProbeSchemaVersion, or data that fails
// Validate — is an error; callers treat it as a cache miss and
// re-probe.
func DecodeProbeState(data []byte) (*ProbeState, error) {
	var w probeStateWire
	dec := json.NewDecoder(bytes.NewReader(data))
	// Strict: an unknown field means the wire format moved without a
	// version bump (or the file is foreign) — reject rather than
	// silently dropping data into zero values.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("core: decode probe state: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: decode probe state: data after the state")
	}
	if w.Version != ProbeSchemaVersion {
		return nil, fmt.Errorf("core: probe state schema v%d, want v%d", w.Version, ProbeSchemaVersion)
	}
	ps := &ProbeState{}
	if w.Order != nil {
		ps.Order = &RowOrder{LUT: w.Order.LUT}
	}
	if w.Subarrays != nil {
		s := w.Subarrays
		if len(s.RegionEdges) == 0 {
			s.RegionEdges = nil // as the probe leaves it, and as it re-encodes
		}
		ps.Subarrays = &SubarrayLayout{
			ScannedRows:         s.ScannedRows,
			Boundaries:          s.Boundaries,
			RegionEdges:         s.RegionEdges,
			Heights:             s.Heights,
			OpenBitline:         s.OpenBitline,
			InvertedCopy:        s.InvertedCopy,
			EdgeRegionSubarrays: s.EdgeRegionSubarrays,
		}
	}
	if w.Cells != nil {
		ps.Cells = &CellPolarity{
			AntiBySubarray: w.Cells.AntiBySubarray,
			Interleaved:    w.Cells.Interleaved,
		}
	}
	if w.Swizzle != nil {
		m := w.Swizzle
		ps.Swizzle = &SwizzleMap{
			ColumnStride: m.ColumnStride,
			Components:   m.Components,
			Orders:       m.Orders,
			Parity:       m.Parity,
			MATWidthBits: m.MATWidthBits,
			BitsPerMAT:   m.BitsPerMAT,
		}
	}
	if err := ps.Validate(); err != nil {
		return nil, fmt.Errorf("core: decoded probe state invalid: %w", err)
	}
	return ps, nil
}

// Validate checks the structural invariants every genuinely probed
// state satisfies. It is the trust boundary for deserialized data: a
// state that passes can be primed into an Env without poisoning later
// measurements with impossible geometry.
func (ps *ProbeState) Validate() error {
	if ps.Subarrays != nil && ps.Order == nil {
		return fmt.Errorf("subarray layout without row order")
	}
	if ps.Cells != nil && ps.Subarrays == nil {
		return fmt.Errorf("cell polarity without subarray layout")
	}
	if ps.Swizzle != nil && ps.Cells == nil {
		return fmt.Errorf("swizzle map without cell polarity")
	}
	if ps.Order != nil {
		var seen [4]bool
		for _, v := range ps.Order.LUT {
			if v < 0 || v > 3 || seen[v] {
				return fmt.Errorf("row-order LUT %v is not a permutation of 0..3", ps.Order.LUT)
			}
			seen[v] = true
		}
	}
	if s := ps.Subarrays; s != nil {
		if s.ScannedRows <= 0 {
			return fmt.Errorf("subarray layout scanned %d rows", s.ScannedRows)
		}
		if len(s.Boundaries) == 0 {
			return fmt.Errorf("subarray layout has no boundaries")
		}
		// A boundary p separates rows p and p+1, so both are scanned.
		prev := -1
		for _, b := range s.Boundaries {
			if b <= prev || b >= s.ScannedRows-1 {
				return fmt.Errorf("subarray boundaries %v not strictly increasing within %d scanned rows",
					s.Boundaries, s.ScannedRows)
			}
			prev = b
		}
		// One height per boundary (the gap to the previous one, from
		// row -1), plus at most one trailing height that closes the
		// scan range.
		if nb := len(s.Boundaries); len(s.Heights) != nb && len(s.Heights) != nb+1 {
			return fmt.Errorf("%d subarray heights for %d boundaries", len(s.Heights), nb)
		}
		prev = -1
		for i, h := range s.Heights {
			want := s.ScannedRows - 1 - prev
			if i < len(s.Boundaries) {
				want = s.Boundaries[i] - prev
				prev = s.Boundaries[i]
			}
			if h != want {
				return fmt.Errorf("subarray height %d is %d, boundaries %v give %d", i, h, s.Boundaries, want)
			}
		}
		isBoundary := make(map[int]bool, len(s.Boundaries))
		for _, b := range s.Boundaries {
			isBoundary[b] = true
		}
		prev = -1
		for _, e := range s.RegionEdges {
			if e <= prev || !isBoundary[e] {
				return fmt.Errorf("region edges %v are not strictly increasing boundaries", s.RegionEdges)
			}
			prev = e
		}
		if s.EdgeRegionSubarrays < 0 || s.EdgeRegionSubarrays > len(s.Boundaries)+1 {
			return fmt.Errorf("edge region of %d subarrays, layout has %d",
				s.EdgeRegionSubarrays, len(s.Boundaries)+1)
		}
	}
	if c := ps.Cells; c != nil {
		if len(c.AntiBySubarray) != len(ps.Subarrays.Boundaries)+1 {
			return fmt.Errorf("cell polarity covers %d subarrays, layout has %d",
				len(c.AntiBySubarray), len(ps.Subarrays.Boundaries)+1)
		}
		interleaved := false
		for i := 1; i < len(c.AntiBySubarray); i++ {
			if c.AntiBySubarray[i] != c.AntiBySubarray[i-1] {
				interleaved = true
			}
		}
		if c.Interleaved != interleaved {
			return fmt.Errorf("cell polarity interleaved flag %v contradicts per-subarray data", c.Interleaved)
		}
	}
	if m := ps.Swizzle; m != nil {
		if err := validateSwizzle(m); err != nil {
			return err
		}
	}
	return nil
}

// validateSwizzle checks a SwizzleMap's internal consistency: parity
// splits into even halves, the components partition the burst bits,
// and each component's order is a permutation of its members.
func validateSwizzle(m *SwizzleMap) error {
	w := len(m.Parity)
	if w == 0 {
		return fmt.Errorf("swizzle map has no parity classes")
	}
	n0 := 0
	for _, p := range m.Parity {
		switch p {
		case 0:
			n0++
		case 1:
		default:
			return fmt.Errorf("parity class %d out of range", p)
		}
	}
	if n0*2 != w {
		return fmt.Errorf("parity split %d/%d, want even halves", n0, w-n0)
	}
	if m.ColumnStride <= 0 {
		return fmt.Errorf("non-positive column stride %d", m.ColumnStride)
	}
	if m.MATWidthBits <= 0 {
		return fmt.Errorf("non-positive MAT width %d", m.MATWidthBits)
	}
	if len(m.Components) == 0 || len(m.Orders) != len(m.Components) {
		return fmt.Errorf("swizzle map has %d components and %d orders", len(m.Components), len(m.Orders))
	}
	if m.BitsPerMAT <= 0 || m.BitsPerMAT*len(m.Components) != w {
		return fmt.Errorf("%d components x %d bits do not cover %d burst bits",
			len(m.Components), m.BitsPerMAT, w)
	}
	covered := make([]bool, w)
	for ci, comp := range m.Components {
		if len(comp) != m.BitsPerMAT {
			return fmt.Errorf("component %d has %d bits, want %d", ci, len(comp), m.BitsPerMAT)
		}
		members := make(map[int]bool, len(comp))
		for _, b := range comp {
			if b < 0 || b >= w || covered[b] {
				return fmt.Errorf("component %d repeats or exceeds burst bit %d", ci, b)
			}
			covered[b] = true
			members[b] = true
		}
		if len(m.Orders[ci]) != len(comp) {
			return fmt.Errorf("component %d order covers %d bits, want %d", ci, len(m.Orders[ci]), len(comp))
		}
		seen := make(map[int]bool, len(comp))
		for _, b := range m.Orders[ci] {
			if !members[b] || seen[b] {
				return fmt.Errorf("component %d order is not a permutation of its members", ci)
			}
			seen[b] = true
		}
	}
	return nil
}
