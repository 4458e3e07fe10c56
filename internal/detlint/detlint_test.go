package detlint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweptPackages are the determinism-critical directories: everything
// that runs inside (or schedules) the virtual-time simulation. A map
// range here whose order escapes — into scheduling decisions, traces,
// or artifacts — breaks the run-twice reproducibility contract.
var sweptPackages = []string{
	"internal/sim",
	"internal/mve",
	"internal/dsu",
	"internal/core",
	"internal/vos",
	"internal/obs",
	"internal/apps/ftpd",
	"internal/apps/kvstore",
	"internal/apps/libevent",
	"internal/apps/memcache",
	"internal/apps/tkv",
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// TestMapRangeDeterminism is the `make lint-maps` gate: every map range
// in the swept packages must be allowlisted with a `maporder:` comment
// justifying it.
func TestMapRangeDeterminism(t *testing.T) {
	sw := NewSweeper(repoRoot(t), "mvedsua")
	findings, err := sw.Sweep(sweptPackages)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s — iterate in a sorted/deterministic order, or annotate with %q explaining why the order cannot be observed", f, Marker)
	}
}

// writeTestPkg materializes a throwaway package under root so the
// sweeper lints it like repo code.
func writeTestPkg(t *testing.T, src string) (*Sweeper, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "p")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return NewSweeper(dir, "example"), "p"
}

func TestFlagsUnannotatedMapRange(t *testing.T) {
	sw, rel := writeTestPkg(t, `package p

func f(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`)
	findings, err := sw.SweepDir(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly one", findings)
	}
	if findings[0].Expr != "m" || !strings.HasSuffix(findings[0].Pos, "p.go:5") {
		t.Errorf("finding = %+v", findings[0])
	}
}

func TestMarkerAllowsTrailingAndPreceding(t *testing.T) {
	sw, rel := writeTestPkg(t, `package p

func f(m map[string]int) int {
	total := 0
	for _, v := range m { // maporder: ok — sum is order-insensitive
		total += v
	}
	// maporder: ok — sum is order-insensitive
	for _, v := range m {
		total += v
	}
	return total
}
`)
	findings, err := sw.SweepDir(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("annotated ranges flagged: %v", findings)
	}
}

func TestMarkerInMultiLineCommentGroup(t *testing.T) {
	sw, rel := writeTestPkg(t, `package p

func f(m map[string]int) int {
	total := 0
	// maporder: ok — the sum is order-insensitive, and this
	// explanation wraps onto a second line.
	for _, v := range m {
		total += v
	}
	return total
}
`)
	findings, err := sw.SweepDir(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("range below multi-line marker group flagged: %v", findings)
	}
}

func TestNonMapRangesIgnored(t *testing.T) {
	sw, rel := writeTestPkg(t, `package p

func f(xs []int, s string, ch chan int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	for range s {
		total++
	}
	for v := range ch {
		total += v
	}
	for i := range 3 {
		total += i
	}
	return total
}
`)
	findings, err := sw.SweepDir(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("non-map ranges flagged: %v", findings)
	}
}

// Map types reached through another repo package must still be
// recognized — the module-path importer at work.
func TestCrossPackageMapType(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		"q/q.go": `package q

type Table struct{ M map[string]int }

func New() *Table { return &Table{M: map[string]int{}} }
`,
		"p/p.go": `package p

import "example/q"

func f() int {
	total := 0
	for _, v := range q.New().M {
		total += v
	}
	return total
}
`,
	} {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sw := NewSweeper(dir, "example")
	findings, err := sw.SweepDir("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want the cross-package map range flagged", findings)
	}
}

// exportSweptPackages are the directories held to "no export that only
// tests call" (ROADMAP item 6 widens the list).
var exportSweptPackages = []string{
	"internal/mve",
	"internal/core",
}

// testOnlyAllowed are the exported identifiers of exportSweptPackages that
// no non-test file references by name and that stay anyway, each with the
// reason.
var testOnlyAllowed = map[string]string{
	"mve.FullPolicy.String":    "interface satisfaction: fmt.Stringer — policies print by name wherever they are formatted",
	"mve.VerdictAction.String": "interface satisfaction: fmt.Stringer — Verdict.String formats the action with %s",
	"core.HealthOp.String":     "interface satisfaction: fmt.Stringer — HealthRule.String formats the operator with %v",
	"mve.Monitor.Leader":       "observation point: who leads is what the lifecycle tests of mve, core and the apps assert; production code holds the leader's runtime instead",
	"mve.Proc.Role":            "observation point: read with Monitor.Leader by the same tests (a leader left retired is the regression of ISSUE 22)",
}

// TestNoTestOnlyExports is the `make lint-exports` gate: an exported
// identifier of the swept packages must be referenced from some non-test
// file of the repo (the cmd/ and examples/ programs, the root package and
// the nested benchmark module included), or be allowlisted with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	sw := NewSweeper(repoRoot(t), "mvedsua")
	findings, err := sw.TestOnlyExports(exportSweptPackages)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	found := map[string]bool{}
	for _, f := range findings {
		found[f.Name] = true
		if testOnlyAllowed[f.Name] == "" {
			t.Errorf("%s — no non-test file references it: delete it (and the tests of nothing else), or allowlist it with a reason", f)
		}
	}
	for name, reason := range testOnlyAllowed {
		if reason == "" || !found[name] {
			t.Errorf("allowlist entry %q (%q) is stale or has no reason", name, reason)
		}
	}
}

// The export sweep counts a reference from any non-test file — the
// declaring package, another package, a nested module — and nothing else.
func TestTestOnlyExportsFindsWhatOnlyTestsCall(t *testing.T) {
	dir := t.TempDir()
	for path, src := range map[string]string{
		"go.mod": "module example\n",
		"p/p.go": `package p

type T struct {
	Shown  int
	Hidden int
}

func (t *T) Called() int   { return t.own() }
func (t *T) Uncalled() int { return 0 }
func (t *T) own() int      { return Internal() }

func Internal() int { return 1 }
func External() int { return 2 }
func Nested() int   { return 3 }
func OnlyTest() int { return 4 }
`,
		"p/p_test.go": `package p

import "testing"

func TestIt(t *testing.T) { _ = OnlyTest() + (&T{Hidden: 1}).Uncalled() }
`,
		"q/q.go": `package q

import "example/p"

func F() int { return p.External() + (&p.T{Shown: 1}).Called() }
`,
		"bench/go.mod": "module example/bench\n",
		"bench/main.go": `package main

import "example/p"

func main() { _ = p.Nested() }
`,
	} {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := NewSweeper(dir, "example").TestOnlyExports([]string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Name)
	}
	if got, want := strings.Join(names, " "), "p.OnlyTest p.T.Hidden p.T.Uncalled"; got != want {
		t.Fatalf("findings = %q, want %q", got, want)
	}
}
