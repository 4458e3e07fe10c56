package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvedsua/internal/bench"
)

// -report writes the run's four instrument files, and turning it on
// changes nothing the run prints: instruments never advance virtual time.
func TestReportWritesBundleAndLeavesStdoutAlone(t *testing.T) {
	for _, fault := range []string{"", "stall"} {
		var bare, reported bytes.Buffer
		if err := run([]string{"-app", "redis", "-fault", fault}, &bare); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := run([]string{"-app", "redis", "-fault", fault, "-report", dir}, &reported); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(bare.String(), "\nlifecycle:\n") {
			t.Fatalf("fault %q: no lifecycle section:\n%s", fault, bare.String())
		}
		if bare.String() != reported.String() {
			t.Errorf("fault %q: stdout differs with -report:\n%s\nwithout:\n%s", fault, reported.String(), bare.String())
		}
		if files, err := os.ReadDir(dir); err != nil || len(files) != 4 {
			t.Errorf("fault %q: report holds %d files (%v), want 4", fault, len(files), err)
		}
		for _, name := range []string{"metrics.txt", "trace.json", "profile.folded", "profile.pprof"} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil || len(data) == 0 {
				t.Errorf("fault %q: %s: %d bytes, %v", fault, name, len(data), err)
				continue
			}
			if name == "trace.json" {
				if err := bench.ValidateChromeTrace(data); err != nil {
					t.Errorf("fault %q: trace.json: %v", fault, err)
				}
			}
		}
	}
}

// The stall demo's one lifecycle section tells the whole story: the fault,
// the stall, the verdict and the rollback.
func TestLifecycleTellsTheStallStory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "redis", "-fault", "stall"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"injected follower", "no progress for 50ms", "rollback-candidate", "rolled back: stall"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("lifecycle lacks %q:\n%s", want, out.String())
		}
	}
}

// The cluster demo builds no world, so there is nothing to report.
func TestReportRefusesCluster(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "cluster", "-report", t.TempDir()}, &out); err == nil {
		t.Fatal("-app cluster -report succeeded")
	}
}
