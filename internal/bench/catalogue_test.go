package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// freshRun is an experiment's one execution in this test binary.
type freshRun struct {
	once   sync.Once
	report any
	data   []byte
	err    error
}

var freshRuns = func() map[string]*freshRun {
	runs := map[string]*freshRun{}
	for _, e := range Catalogue {
		runs[e.Name] = &freshRun{}
	}
	return runs
}()

func experiment(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Catalogue {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q in the catalogue", name)
	return Experiment{}
}

// fresh returns the named experiment's report and its encoding from the
// one run this test binary makes of it — the run TestCommittedArtifacts
// compares with the committed artifact — so a test that reads figures
// out of a report does not execute the experiment again.
func fresh(t *testing.T, name string) (any, []byte) {
	t.Helper()
	e, r := experiment(t, name), freshRuns[name]
	r.once.Do(func() { r.report, r.data, r.err = e.encoded() })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.report, r.data
}

// decodeFresh decodes the shared run's bytes, so every caller gets its
// own copy of the report to pick apart.
func decodeFresh[R any](t *testing.T, name string) R {
	t.Helper()
	_, data := fresh(t, name)
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// TestCommittedArtifacts is the artifact gate inside tier-1: every
// catalogue row with a report must reproduce what pins it (Check, on the
// shared run), so a stale BENCH_*.json fails `go test ./...`, not only
// `make check`. Equal to the committed bytes on every run also means
// equal run to run, which is why no report has a run-twice test of its
// own. The catalogue and the committed files must cover each other.
func TestCommittedArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every report; skipped with -short")
	}
	const root = "../.."
	pinned := map[string]bool{}
	for _, e := range Catalogue {
		if e.Schema == "" {
			if e.Artifact != "" {
				t.Errorf("%s: artifact %s but no schema, so Check would skip it", e.Name, e.Artifact)
			}
			continue
		}
		if e.Artifact != "" {
			pinned[e.Artifact] = true
			if _, err := os.Stat(filepath.Join(root, e.Artifact)); err != nil {
				t.Errorf("%s: artifact not committed: %v", e.Name, err)
				continue
			}
		}
		report, data := fresh(t, e.Name)
		if err := e.verify(root, report, data); err != nil {
			t.Error(err)
		}
	}
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no BENCH_*.json under %s (err %v)", root, err)
	}
	for _, path := range committed {
		if name := filepath.Base(path); !pinned[name] {
			t.Errorf("%s is committed but no catalogue row pins it", name)
		}
	}
}

// TestCheckNamesTheStaleArtifact: a one-byte edit of an artifact must
// fail the gate with the file's name and the make target that
// regenerates it; the untouched copy must pass.
func TestCheckNamesTheStaleArtifact(t *testing.T) {
	e := experiment(t, "nvariant")
	report, data := fresh(t, e.Name)
	pinned, err := os.ReadFile(filepath.Join("../..", e.Artifact))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	copyPath := filepath.Join(root, e.Artifact)
	if err := os.WriteFile(copyPath, pinned, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.verify(root, report, data); err != nil {
		t.Fatalf("faithful copy rejected: %v", err)
	}
	i := strings.Index(string(pinned), `"tolerated": true`)
	if i < 0 {
		t.Fatal("artifact has no tolerated row to edit")
	}
	edited := append([]byte(nil), pinned...)
	edited[i+len(`"tolerated": `)] = 'T'
	if err := os.WriteFile(copyPath, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	err = e.verify(root, report, data)
	if err == nil {
		t.Fatal("one-byte edit accepted")
	}
	for _, want := range []string{"BENCH_nvariant.json", "make bench-nvariant"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q: %v", want, err)
		}
	}
	if err := os.Remove(copyPath); err != nil {
		t.Fatal(err)
	}
	if err := e.verify(root, report, data); err == nil {
		t.Error("missing artifact accepted")
	}
}
