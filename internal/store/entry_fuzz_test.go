package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dramscope/internal/core"
)

// FuzzStoreEntry puts arbitrary bytes where a probes entry and where a
// report entry live, and loads each through a writable and a read-only
// store over the same directory. Properties: loads never panic; a load
// is a miss or a value — a probe state that passes Validate, or the
// envelope's non-empty report bytes — and both stores give the same
// answer; a writable store keeps an entry it loaded or that belongs to
// another generation or kind, and quarantines one it cannot parse; a
// read-only store leaves the file untouched.
func FuzzStoreEntry(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	pk, rk := fuzzKeys()
	if err := st.SaveProbes(pk, testProbeState()); err != nil {
		f.Fatal(err)
	}
	if err := st.SaveReport(rk, []byte("{\"seed\": 7}\n")); err != nil {
		f.Fatal(err)
	}
	for _, kind := range []string{kindProbes, kindReport} {
		valid, err := os.ReadFile(entryFile(f, st, kind))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(bytes.Replace(valid, []byte(`"schema":1,`), []byte(`"schema":2,`), 1))
		f.Add(bytes.Replace(valid, []byte(`"kind":"`+kind+`"`), []byte(`"kind":"other"`), 1))
	}
	f.Add([]byte(fmt.Sprintf(`{"schema":%d,"coreSchema":%d,"kind":"report","report":""}`, SchemaVersion, core.ProbeSchemaVersion)))
	f.Add([]byte(fmt.Sprintf(`{"schema":%d,"coreSchema":%d,"kind":"probes","probes":{}}`, SchemaVersion, core.ProbeSchemaVersion)))

	dir := f.TempDir()
	rw, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []string{kindProbes, kindReport} {
			path := entryFile(t, rw, kind)
			roVal, roHit := loadAt(t, ro, kind, path, data)
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: read-only load changed the entry (err %v)", kind, err)
			}
			val, hit := loadAt(t, rw, kind, path, data)
			if hit != roHit || !bytes.Equal(val, roVal) {
				t.Fatalf("%s: writable hit=%v, read-only hit=%v", kind, hit, roHit)
			}

			var env envelope
			parsed := json.Unmarshal(data, &env) == nil
			current := parsed && env.Schema == SchemaVersion && env.Core == core.ProbeSchemaVersion && env.Kind == kind
			if hit {
				if !current {
					t.Fatalf("%s: loaded an entry that is not a current %s envelope", kind, kind)
				}
				if kind == kindReport && (len(val) == 0 || string(val) != env.Report) {
					t.Fatalf("report hit %q, envelope carries %q", val, env.Report)
				}
			}
			got, err := os.ReadFile(path)
			switch kept := err == nil; {
			case kept && !bytes.Equal(got, data):
				t.Fatalf("%s: load rewrote the entry", kind)
			case hit && !kept:
				t.Fatalf("%s: quarantined an entry it loaded", kind)
			case parsed && !current && !kept:
				t.Fatalf("%s: quarantined another generation's entry", kind)
			case !hit && (!parsed || current) && kept:
				t.Fatalf("%s: kept an entry it cannot parse", kind)
			}
		}
	})
}

// fuzzKeys are the probes and report keys FuzzStoreEntry's entries sit
// under.
func fuzzKeys() (ProbeKey, ReportKey) {
	return testKey(7, 4), ReportKey{Spec: []byte(`{"profile":"Small-test","seed":7,"experiments":["a"]}`)}
}

// entryFile is the path of the fuzzed entry of kind in s.
func entryFile(t testing.TB, s *Store, kind string) string {
	pk, rk := fuzzKeys()
	if kind == kindReport {
		return s.path(kindReport, rk.keyString())
	}
	key, err := pk.keyString()
	if err != nil {
		t.Fatal(err)
	}
	return s.path(kindProbes, key)
}

// loadAt writes data at path and loads the entry of kind through s: a
// probe hit must pass Validate and comes back re-encoded, a report hit
// as its bytes.
func loadAt(t *testing.T, s *Store, kind, path string, data []byte) ([]byte, bool) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pk, rk := fuzzKeys()
	if kind == kindReport {
		return s.LoadReport(rk)
	}
	ps, ok := s.LoadProbes(pk)
	if !ok {
		return nil, false
	}
	if err := ps.Validate(); err != nil {
		t.Fatalf("loaded probe state fails Validate: %v", err)
	}
	enc, err := core.EncodeProbeState(ps)
	if err != nil {
		t.Fatalf("loaded probe state does not encode: %v", err)
	}
	return enc, true
}
