package detlint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	"internal/rolling",
	"internal/bench",
	"internal/apptest",
	"internal/chaos",
	"internal/ringbuf",
	"internal/dsl",
	"internal/sysabi",
	"internal/proto",
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

// repo is the one sweeper of the repository the tests share: each
// package, the standard library's included, is type-checked once for
// every sweep.
var repo struct {
	once sync.Once
	sw   *Sweeper
}

func repoSweeper(t *testing.T) *Sweeper {
	t.Helper()
	root := repoRoot(t)
	repo.once.Do(func() { repo.sw = NewSweeper(root, "mvedsua") })
	return repo.sw
}

// fixtureSweeper is a sweeper of the throwaway module "example" at dir
// that borrows the repository sweeper's file set and standard-library
// importer, so the fixtures type-check no standard package twice.
func fixtureSweeper(t *testing.T, dir string) *Sweeper {
	sw := NewSweeper(dir, "example")
	sw.fset, sw.std = repoSweeper(t).fset, repoSweeper(t).std
	return sw
}

// TestMapRangeDeterminism is the `make lint-maps` gate: every map range
// in the swept packages must be allowlisted with a `maporder:` comment
// justifying it.
func TestMapRangeDeterminism(t *testing.T) {
	findings, err := repoSweeper(t).Sweep(sweptPackages)
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
	return fixtureSweeper(t, dir), "p"
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
	sw := fixtureSweeper(t, dir)
	findings, err := sw.SweepDir("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want the cross-package map range flagged", findings)
	}
}

// exportExempt are the package directories under internal/ that
// TestNoTestOnlyExports leaves out, each with the reason. Every other
// directory there is swept: the list is walked, not kept.
var exportExempt = map[string]string{
	"internal/detlint":     "the sweeps' API: its caller is this test",
	"internal/integration": "tests only",
}

// exportSweptPackages are the directories held to "no code that only
// tests run": every package directory under internal/ but exportExempt.
func exportSweptPackages(t *testing.T, sw *Sweeper) []string {
	t.Helper()
	dirs, err := sw.PackageDirs("internal")
	if err != nil {
		t.Fatal(err)
	}
	var swept []string
	for _, dir := range dirs {
		if exportExempt[dir] == "" {
			swept = append(swept, dir)
		}
	}
	return swept
}

// testOnlyAllowed are the identifiers of the swept packages that no
// non-test file references and that stay anyway, each with the reason.
var testOnlyAllowed = map[string]string{
	"mve.Monitor.Leader": "observation point: who leads is what the lifecycle tests of mve, core and the apps assert; production code holds the leader's runtime instead",
	"mve.Proc.Role":      "observation point: read with Monitor.Leader by the same tests (a leader left retired is the regression of ISSUE 22)",

	"sim.Scheduler.Settled": "observation point: the settled-dispatch count is what the turn-wait tests of mve and the determinism test of bench pin (docs/PERFORMANCE.md's census is re-counted from it)",
	"sim.Task.State":        "observation point: mve's turn-wait tests assert that a follower thread is parked, not spinning",
	"sim.Task.Join":         "test primitive of other packages: mve's turn-wait tests join the follower threads before teardown, and the dispatch counts they pin include the joiner's wakes",
	"vos.Kernel.OpenFDs":    "observation point: the descriptor-leak tests of ftpd and vos count live descriptors; production publishes the same number as a gauge",

	"ringbuf.Buffer.Peek":      "K = 1 reference view: Buffer presents the whole consumer side of one Cursor, and ringbuf's property tests hold MultiBuffer to it; the benchmark adapter drives the other forwarders",
	"ringbuf.Buffer.DrainUpTo": "as ringbuf.Buffer.Peek",
	"ringbuf.Buffer.Reset":     "as ringbuf.Buffer.Peek",

	"apptest.CheckOwnership":   "cross-package test harness: the ownership tests of kvstore, memcache, tkv and ftpd run their apps through it",
	"apptest.Client.FD":        "observation point: bench's scenario test closes the runner's client a second time to prove the runner closed it",
	"apptest.World.Transcript": "observation point: integration's determinism test compares two runs' transcripts, and its expected-breach test reads back the steps the judge names",

	"dsl.Expr.isExpr":     "marker method: seals the interface, called by nobody by design",
	"vos.object.isObject": "marker method: seals the interface, called by nobody by design",
}

// TestNoTestOnlyExports is the `make lint-exports` gate: a function,
// method or exported identifier of the swept packages must be referenced
// from some non-test file of the repo (the cmd/ programs, the one
// example, the root package and the nested benchmark module included) or be
// reached through an interface, or be allowlisted with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	sw := repoSweeper(t)
	findings, err := sw.TestOnlyExports(exportSweptPackages(t, sw))
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

// unreadAllowed are the struct fields of the swept packages that no
// non-test file reads and that stay anyway, each with the reason.
var unreadAllowed = map[string]string{
	"rolling.ComparisonResult.Versions": "observation point: rolling's TestStatelessRestartLosesState and TestMVEDSUAUpgradeLosesNothingAndNeverPauses read each node's final version to prove the upgrade landed everywhere; UpgradeAll ignores Commit's result, so no production check makes theirs redundant",
}

// TestNoUnreadFields is the other half of the `make lint-exports` gate: a
// struct field of the swept packages must be read by some non-test file
// of the repo (the nested benchmark module included), or be allowlisted
// with a reason. A field nothing reads is state kept for nobody.
func TestNoUnreadFields(t *testing.T) {
	sw := repoSweeper(t)
	findings, err := sw.UnreadFields(exportSweptPackages(t, sw))
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	found := map[string]bool{}
	for _, f := range findings {
		found[f.Name] = true
		if unreadAllowed[f.Name] == "" {
			t.Errorf("%s — no non-test file reads it: delete it with its writes, or allowlist it with a reason", f)
		}
	}
	for name, reason := range unreadAllowed {
		if reason == "" || !found[name] {
			t.Errorf("allowlist entry %q (%q) is stale or has no reason", name, reason)
		}
	}
}

// The field sweep flags a field that is only written — assigned, stepped,
// set in a literal, stored into by index, deleted from, appended to
// itself, copied by a Clone method — or read only by a test, and not one
// that is read (by index, by len, by a range outside Clone, as the source
// of an append into another field), one with a struct tag, an embedded
// field reached only through promoted selectors, or a generic type's
// field read through an instantiation.
func TestUnreadFieldsFindsWriteOnlyFields(t *testing.T) {
	dir := t.TempDir()
	for path, src := range map[string]string{
		"go.mod": "module example\n",
		"p/p.go": `package p

type T struct {
	Assigned int
	Stepped  int
	Literal  int
	TestRead int
	Read     int
	Nested   int
	Tagged   int ` + "`json:\"tagged\"`" + `
	Inner
	sub struct{ deep int }
	_   int

	Indexed  map[int]int
	Deleted  map[int]bool
	Appended []int
	Cloned   int
	MapRead  map[int]int
	Counted  []int
	Ranged   map[int]bool
	Source   []int
	Dest     []int
}

func (t *T) Clone() *T {
	c := &T{Cloned: t.Cloned, Ranged: map[int]bool{}}
	for k := range t.Ranged {
		c.Ranged[k] = true
	}
	return c
}

type Inner struct{ Promoted int }

type ring[E any] struct{ buf []E }

func (r *ring[E]) put(e E) { r.buf = []E{e} }

func F(t *T) int {
	t.Assigned = 1
	(t.Assigned), t.Read = 2, t.Read
	t.Stepped++
	t.Stepped += 2
	t.sub.deep = 3
	_ = T{Literal: 1}
	t.Indexed[1] = 1
	(t.Indexed)[2]++
	delete(t.Deleted, 1)
	t.Appended = append(t.Appended, 1)
	t.MapRead[1] = t.MapRead[0]
	t.Counted = append(t.Counted, len(t.Counted))
	for k := range t.Ranged {
		delete(t.Ranged, k)
	}
	t.Dest = append(t.Source, 1)
	var r ring[int]
	r.put(1)
	return len(r.buf) + t.Promoted + len(t.Dest)
}
`,
		"p/p_test.go": `package p

func read(t *T) int { return t.TestRead }
`,
		"bench/go.mod": "module example/bench\n",
		"bench/main.go": `package main

import "example/p"

func main() { _ = (&p.T{}).Nested }
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
	findings, err := fixtureSweeper(t, dir).UnreadFields([]string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Name)
	}
	want := "p.T.Appended p.T.Assigned p.T.Cloned p.T.Deleted p.T.Indexed p.T.Literal p.T.Stepped p.T.TestRead p.T.sub.deep"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("findings = %q, want %q", got, want)
	}
}

// Code the checker cannot resolve adds findings at most; it never stops
// the sweep.
func TestTestOnlyExportsToleratesUnresolvedCode(t *testing.T) {
	sw, rel := writeTestPkg(t, `package p

func Used() int { return 1 }

func F() int {
	missing(Used())
	gone <- Used()
	return undefined.Call(Used())
}
`)
	findings, err := sw.TestOnlyExports([]string{rel})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Name != "p.F" {
		t.Fatalf("findings = %v, want p.F alone", findings)
	}
}

// TestExportSweepCoversInternal: a package cannot be born outside the
// gate. The swept list is held to a glob of internal/ that shares nothing
// with the walk computing it, and every exemption must still name a
// directory.
func TestExportSweepCoversInternal(t *testing.T) {
	root := repoRoot(t)
	swept := map[string]bool{}
	for _, dir := range exportSweptPackages(t, repoSweeper(t)) {
		swept[dir] = true
	}
	n := 0
	for _, pattern := range []string{"internal/*/*.go", "internal/*/*/*.go"} {
		files, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			dir := relPath(root, filepath.Dir(f))
			if strings.HasSuffix(f, "_test.go") || exportExempt[dir] != "" {
				continue
			}
			n++
			if !swept[dir] {
				t.Errorf("%s holds %s and is not swept", dir, filepath.Base(f))
			}
		}
	}
	if n == 0 {
		t.Fatal("the glob found no file under internal/")
	}
	for dir, reason := range exportExempt {
		if _, err := os.Stat(filepath.Join(root, dir)); err != nil || reason == "" || swept[dir] {
			t.Errorf("exemption %q (%q) is stale, swept anyway or has no reason", dir, reason)
		}
	}
}

// PackageDirs finds packages at any depth, and only directories that
// hold a non-test Go file.
func TestPackageDirsWalksTheTree(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{"a/a.go", "a/b/c/c.go", "a/b/c/c_test.go", "testsonly/x_test.go", "docs/readme.md", ".hidden/h.go", "a/testdata/t.go"} {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := fixtureSweeper(t, dir).PackageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(dirs, " "), "a a/b/c"; got != want {
		t.Fatalf("PackageDirs = %q, want %q", got, want)
	}
}

// The export sweep counts a reference from any non-test file — the
// declaring package, another package, a nested module — and a method
// reached through an interface, and nothing else.
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

// Doer is called through in q: Do is reached that way and nowhere by
// name. Nobody calls Orphan; Impl must have it to be a Doer, so the
// interface's declaration is the finding.
type Doer interface {
	Do() int
	Orphan() int
}

type Impl struct{}

func (Impl) Do() int     { return viaProduction() }
func (Impl) Orphan() int { return 0 }

func viaProduction() int { return 5 }
func viaTestOnly() int   { return 6 }

// solo is implemented by Hermit, but nothing calls it and nothing makes a
// Hermit a solo.
type solo interface{ Alone() }

type Hermit struct{}

func (Hermit) Alone() {}

// Named is only ever printed; ByLen only ever sorted.
type Named struct{}

func (Named) String() string { return "named" }

type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }
`,
		"p/p_test.go": `package p

import "testing"

func TestIt(t *testing.T) { _ = OnlyTest() + (&T{Hidden: 1}).Uncalled() + viaTestOnly() }
`,
		"q/q.go": `package q

import (
	"fmt"
	"sort"

	"example/p"
)

func F() int {
	var d p.Doer = p.Impl{}
	fmt.Println(p.Named{}, p.Hermit{})
	sort.Sort(p.ByLen(nil))
	return p.External() + (&p.T{Shown: 1}).Called() + d.Do()
}
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
	findings, err := fixtureSweeper(t, dir).TestOnlyExports([]string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Name)
	}
	want := "p.Doer.Orphan p.Hermit.Alone p.OnlyTest p.T.Hidden p.T.Uncalled p.solo.Alone p.viaTestOnly"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("findings = %q, want %q", got, want)
	}
}
