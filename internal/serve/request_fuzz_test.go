package serve

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"

	"dramscope/internal/expt"
)

// FuzzRunRequest fuzzes the POST /runs body from the wire to the run's
// identity: the bytes are decoded exactly as decodeBody decodes them
// (unknown fields rejected) and resolved against the default suite.
// Properties: nothing panics; Normalized is idempotent; a resolved
// selection is the registration-order closure of the requested names
// over After edges, without duplicates; re-resolving the resolved
// RunSpec reproduces the canonical bytes; and the digest does not
// depend on the Jobs/Shards execution hints.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"only":["all"]}`,
		`{"only":[" table3 ",""]}`,
		`{"seed":0}`,
		`{"seed":5,"only":["fig12","table1"],"jobs":3,"shards":9}`,
		`{"maxActivations":-1}`,
		`{"profile":"NoSuchChip-DDR9"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		r := httptest.NewRequest("POST", "/runs", bytes.NewReader(body))
		if !decodeBody(httptest.NewRecorder(), r, &req) {
			return
		}
		sp := req.spec()
		if again := sp.Normalized(); !reflect.DeepEqual(again, sp) {
			t.Fatalf("Normalized is not idempotent: %+v then %+v", sp, again)
		}
		rs, suite, err := resolveRequest(req, expt.DefaultSuite)
		if err != nil {
			return
		}
		if want := closure(t, suite, rs.Only); !reflect.DeepEqual(rs.Names, want) {
			t.Fatalf("selection %q resolved to %q, want the closure %q", rs.Only, rs.Names, want)
		}

		again, _, err := expt.ResolveSpec(rs.RunSpec, expt.DefaultSuite)
		if err != nil {
			t.Fatalf("resolved spec %+v does not re-resolve: %v", rs.RunSpec, err)
		}
		if !bytes.Equal(again.Canonical(), rs.Canonical()) {
			t.Fatalf("re-resolving moved the canonical form:\n%s\n%s", rs.Canonical(), again.Canonical())
		}

		hinted := rs.RunSpec
		hinted.Jobs, hinted.Shards = rs.Jobs+3, rs.Shards+64
		other, _, err := expt.ResolveSpec(hinted, expt.DefaultSuite)
		if err != nil {
			t.Fatalf("jobs/shards hints made the spec unresolvable: %v", err)
		}
		if other.Digest() != rs.Digest() {
			t.Fatalf("digest moved with jobs/shards: %s vs %s", rs.Digest(), other.Digest())
		}
	})
}

// closure is the reference selection: the named experiments plus,
// transitively, their After dependencies, in registration order (every
// experiment when only is empty). An unknown name fails the test: the
// suite resolved it.
func closure(t *testing.T, suite *expt.Suite, only []string) []string {
	t.Helper()
	infos := suite.Experiments()
	after := make(map[string][]string, len(infos))
	for _, e := range infos {
		after[e.Name] = e.After
	}
	marked := make(map[string]bool)
	var mark func(string)
	mark = func(name string) {
		if _, ok := after[name]; !ok {
			t.Fatalf("resolved selection names unknown experiment %q", name)
		}
		if marked[name] {
			return
		}
		marked[name] = true
		for _, dep := range after[name] {
			mark(dep)
		}
	}
	for _, name := range only {
		mark(name)
	}
	var out []string
	for _, e := range infos {
		if len(only) == 0 || marked[e.Name] {
			out = append(out, e.Name)
		}
	}
	return out
}
