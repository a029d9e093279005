// Package store is the persistent probe-artifact store: a
// content-addressed, versioned on-disk cache of recovered
// reverse-engineering results (the Order -> Subarrays -> Cells ->
// Swizzle probe chain) and, above them, full suite reports. The
// expensive part of a DRAMScope run is not the measurements but the
// probe chain that every run re-derives — yet for a fixed (profile,
// seed) it is a pure function, so its result is a reusable artifact:
// persist it once and every later suite, CLI invocation, or server
// process skips straight to measurement.
//
// Entries are keyed by a SHA-256 digest of the canonical key material:
// the store schema version, the probe wire-format version
// (core.ProbeSchemaVersion), a build fingerprint, and — for probes —
// the full device profile, env seed, and probe level, or — for
// reports — the run's canonical spec form verbatim
// (expt.(*ResolvedSpec).Canonical, which itself embeds the full
// profile, seed, selection closure, and activation budget, and whose
// digest also keys the service's in-memory result cache — one
// canonicalization site for both). Anything that could change the artifact
// changes the digest, so stale entries are never read — they are
// merely orphaned, and `make clean-store` reclaims the directory.
// The determinism contract this rests on is the suite's: a store hit
// can never change a byte of a report, because a loaded probe state is
// bit-identical to the one a fresh probe run would recover.
//
// The store is safe for concurrent writers across goroutines and
// processes: writes go to a temp file in the destination directory and
// are published with an atomic rename, and racing writers of the same
// key write identical bytes by construction. Loads never trust the
// disk: a truncated, corrupted, or wrong-version entry fails
// validation, is quarantined (deleted, unless the store is read-only),
// and reads as a miss so the caller re-probes.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"dramscope/internal/core"
	"dramscope/internal/topo"
)

// SchemaVersion is the store's on-disk layout generation. Entries live
// under a v<N> subdirectory and carry the version in their envelope;
// both the digest and the envelope check guard against mixing
// generations.
const SchemaVersion = 1

// Store is one artifact directory. The zero value is not usable; use
// Open or OpenReadOnly.
type Store struct {
	dir      string
	readonly bool
}

// Open opens (creating if necessary) an artifact store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// OpenReadOnly opens a store that serves hits but never writes: no
// saves, no quarantine of corrupt entries, no directory creation. CI
// determinism checks use it to prove a warm run cannot perturb the
// store it reads from.
func OpenReadOnly(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	return &Store{dir: dir, readonly: true}, nil
}

// OpenDir is the flag-shaped constructor the binaries share: an empty
// dir means "no store" (nil, nil — every consumer treats a nil *Store
// as a plain cold run), a non-empty dir opens read-write or read-only,
// and read-only without a directory is a usage error.
func OpenDir(dir string, readonly bool) (*Store, error) {
	if dir == "" {
		if readonly {
			return nil, fmt.Errorf("store: read-only requested without a store directory")
		}
		return nil, nil
	}
	if readonly {
		return OpenReadOnly(dir)
	}
	return Open(dir)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ProbeKey identifies one persisted probe-chain state: the full device
// profile (so any geometry or timing change invalidates), the env
// seed, and the chain depth (expt.ProbeLevel) the state was warmed to.
type ProbeKey struct {
	Profile topo.Profile
	Seed    uint64
	Level   int
}

// ReportKey identifies one persisted suite report by the run's
// canonical spec form (expt.(*ResolvedSpec).Canonical) — full profile,
// seed, resolved selection closure, activation budget, in a fixed
// field order. The store does not re-canonicalize anything: the same
// bytes the serve LRU digests are embedded here verbatim, so the repo
// has exactly one definition of "the same run" and the two caches can
// never drift.
type ReportKey struct {
	// Spec is the canonical spec JSON.
	Spec []byte
}

// envelope is the on-disk entry format. Probes carry the
// core-serialized payload; reports carry the exact report bytes as a
// JSON string (strings round-trip byte-exactly, raw embedding would
// not survive re-encoding).
type envelope struct {
	Schema int    `json:"schema"`
	Core   int    `json:"coreSchema"`
	Kind   string `json:"kind"`
	Key    string `json:"key"` // human-readable echo, for debugging only

	Probes json.RawMessage `json:"probes,omitempty"`
	Report string          `json:"report,omitempty"`
}

const (
	kindProbes = "probes"
	kindReport = "report"
)

// codeFingerprint distinguishes builds so artifacts recorded by one
// binary are not trusted by a code-divergent one. Release builds carry
// the VCS revision and dirty flag; builds without VCS stamping (go
// run, go test) fall back to a shared "dev" fingerprint — within one
// working tree that is the desired sharing, across probe-code edits it
// is why ProbeSchemaVersion must be bumped (see README).
var codeFingerprint = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, modified := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return "dev"
	}
	return rev + ":" + modified
})

// keyString canonicalizes a probe key. The profile is embedded as its
// full JSON encoding: two profiles that differ in any parameter can
// never share an entry.
func (k ProbeKey) keyString() (string, error) {
	prof, err := json.Marshal(k.Profile)
	if err != nil {
		return "", fmt.Errorf("store: encode profile: %w", err)
	}
	return fmt.Sprintf("%s|store-v%d|core-v%d|%s|%s|seed-%d|level-%d",
		kindProbes, SchemaVersion, core.ProbeSchemaVersion, codeFingerprint(), prof, k.Seed, k.Level), nil
}

// keyString frames the canonical spec with the store's own
// invalidation material (schema versions, build fingerprint). The spec
// itself already embeds the full profile JSON, so a profile-parameter
// edit invalidates persisted reports along with the probe chains
// recovered under it.
func (k ReportKey) keyString() string {
	return fmt.Sprintf("%s|store-v%d|core-v%d|%s|%s",
		kindReport, SchemaVersion, core.ProbeSchemaVersion, codeFingerprint(), k.Spec)
}

// path maps a canonical key string to its content-addressed file.
func (s *Store) path(kind, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("v%d", SchemaVersion), kind,
		hex.EncodeToString(sum[:])+".json")
}

// LoadProbes returns the persisted probe state for a key, or false on
// any miss — absent, truncated, corrupt, wrong-version, or
// structurally invalid entries all read as misses, and invalid files
// are quarantined on writable stores so they are not re-parsed
// forever.
func (s *Store) LoadProbes(k ProbeKey) (*core.ProbeState, bool) {
	key, err := k.keyString()
	if err != nil {
		return nil, false
	}
	path := s.path(kindProbes, key)
	env, ok := s.readEnvelope(path, kindProbes)
	if !ok {
		return nil, false
	}
	ps, err := core.DecodeProbeState(env.Probes)
	if err != nil {
		s.quarantine(path)
		return nil, false
	}
	return ps, true
}

// SaveProbes persists a probe state under a key. On read-only stores
// it is a no-op. Racing writers are safe: each writes a private temp
// file and atomically renames it into place, and two writers of the
// same key carry identical bytes by the determinism contract.
func (s *Store) SaveProbes(k ProbeKey, ps *core.ProbeState) error {
	if s.readonly {
		return nil
	}
	key, err := k.keyString()
	if err != nil {
		return err
	}
	payload, err := core.EncodeProbeState(ps)
	if err != nil {
		return err
	}
	return s.writeEnvelope(s.path(kindProbes, key), &envelope{
		Schema: SchemaVersion,
		Core:   core.ProbeSchemaVersion,
		Kind:   kindProbes,
		Key:    key,
		Probes: payload,
	})
}

// LoadReport returns the persisted report bytes for a key, verbatim as
// saved, or false on any miss.
func (s *Store) LoadReport(k ReportKey) ([]byte, bool) {
	key := k.keyString()
	path := s.path(kindReport, key)
	env, ok := s.readEnvelope(path, kindReport)
	if !ok {
		return nil, false
	}
	if env.Report == "" {
		s.quarantine(path)
		return nil, false
	}
	return []byte(env.Report), true
}

// SaveReport persists a finished report's exact bytes under a key. On
// read-only stores it is a no-op.
func (s *Store) SaveReport(k ReportKey, report []byte) error {
	if s.readonly {
		return nil
	}
	if len(report) == 0 {
		return fmt.Errorf("store: refusing to save an empty report")
	}
	if len(k.Spec) == 0 {
		return fmt.Errorf("store: refusing to save a report under an empty spec key")
	}
	key := k.keyString()
	return s.writeEnvelope(s.path(kindReport, key), &envelope{
		Schema: SchemaVersion,
		Core:   core.ProbeSchemaVersion,
		Kind:   kindReport,
		Key:    key,
		Report: string(report),
	})
}

// readEnvelope loads and version-checks one entry file. Any failure is
// a miss; structurally broken files are quarantined.
func (s *Store) readEnvelope(path, kind string) (*envelope, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false // absent (the common miss) or unreadable
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		s.quarantine(path)
		return nil, false
	}
	if env.Schema != SchemaVersion || env.Core != core.ProbeSchemaVersion || env.Kind != kind {
		// A foreign or stale-generation file under our digest: do not
		// trust it, do not delete it (it may belong to another build).
		return nil, false
	}
	return &env, true
}

// writeEnvelope publishes an entry with write-to-temp + atomic rename.
func (s *Store) writeEnvelope(path string, env *envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: encode entry: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// quarantine removes a broken entry so the next run re-probes and
// overwrites it cleanly. Read-only stores leave the disk untouched.
func (s *Store) quarantine(path string) {
	if s.readonly {
		return
	}
	os.Remove(path)
}
