package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvedsua/internal/bench"
)

// faultDemos are every -app/-fault pair, each with the note its
// lifecycle's last stage milestone must hold: how the run recovered.
var faultDemos = []struct{ app, fault, recovery string }{
	{"redis", "newcode", "rolled back: follower crashed"},
	{"redis", "xform", "rolled back: state transformation"},
	{"redis", "stall", "rolled back: stall"},
	{"memcached", "xform", "rolled back: follower crashed"},
	{"memcached", "timing", "forked follower for 1.2.3"},
}

// Every fault demo is its bench row: the run succeeds, the row's verdict
// says the fault was tolerated, and the lifecycle ends in the row's
// recovery. The timing demo's update must still be installed at the end,
// after the retry the divergence forced.
func TestFaultDemosTellTheirRows(t *testing.T) {
	for _, tc := range faultDemos {
		t.Run(tc.app+"/"+tc.fault, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-app", tc.app, "-fault", tc.fault}, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			story, lifecycle, ok := strings.Cut(out.String(), "\nlifecycle:\n")
			if !ok {
				t.Fatalf("no lifecycle section:\n%s", out.String())
			}
			if !strings.Contains(story, " TOLERATED ") {
				t.Errorf("verdict does not read TOLERATED:\n%s", story)
			}
			last := ""
			for _, line := range strings.Split(lifecycle, "\n") {
				if strings.Contains(line, "] stage ") {
					last = line
				}
			}
			if !strings.Contains(last, tc.recovery) {
				t.Errorf("last stage milestone %q lacks %q:\n%s", last, tc.recovery, lifecycle)
			}
			if tc.fault == "timing" && !strings.Contains(lifecycle, "retry 1 scheduled") {
				t.Errorf("no retry in the timing story:\n%s", lifecycle)
			}
		})
	}
}

// -report writes the run's four instrument files, and turning it on
// changes nothing the run prints: instruments never advance virtual time.
func TestReportWritesBundleAndLeavesStdoutAlone(t *testing.T) {
	runs := [][]string{{"-app", "redis"}}
	for _, tc := range faultDemos {
		runs = append(runs, []string{"-app", tc.app, "-fault", tc.fault})
	}
	for _, args := range runs {
		name := strings.Join(args, " ")
		var bare, reported bytes.Buffer
		if err := run(args, &bare); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := run(append(args, "-report", dir), &reported); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(bare.String(), "\nlifecycle:\n") {
			t.Fatalf("%s: no lifecycle section:\n%s", name, bare.String())
		}
		if bare.String() != reported.String() {
			t.Errorf("%s: stdout differs with -report:\n%s\nwithout:\n%s", name, reported.String(), bare.String())
		}
		if files, err := os.ReadDir(dir); err != nil || len(files) != 4 {
			t.Errorf("%s: report holds %d files (%v), want 4", name, len(files), err)
		}
		for _, file := range []string{"metrics.txt", "trace.json", "profile.folded", "profile.pprof"} {
			data, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil || len(data) == 0 {
				t.Errorf("%s: %s: %d bytes, %v", name, file, len(data), err)
				continue
			}
			if file == "trace.json" {
				if err := bench.ValidateChromeTrace(data); err != nil {
					t.Errorf("%s: trace.json: %v", name, err)
				}
			}
		}
	}
}

// The stall demo's one lifecycle section tells the whole story: the fault,
// the stall past the chaos cell's 60ms deadline, the verdict and the
// rollback.
func TestLifecycleTellsTheStallStory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "redis", "-fault", "stall"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"injected follower", "no progress for 60ms", "rollback-candidate", "rolled back: stall"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("lifecycle lacks %q:\n%s", want, out.String())
		}
	}
}
