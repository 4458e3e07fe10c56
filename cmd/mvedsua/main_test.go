package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvedsua/internal/bench"
	"mvedsua/internal/core"
)

// faultDemos are every -app/-fault pair, each with the note the last
// entry of its controller's timeline must hold: how the run recovered.
var faultDemos = []struct{ app, fault, recovery string }{
	{"redis", "newcode", "rolled back: follower crashed"},
	{"redis", "xform", "rolled back: state transformation"},
	{"redis", "stall", "rolled back: stall"},
	{"memcached", "xform", "rolled back: follower crashed"},
	{"memcached", "timing", "forked follower for 1.2.3"},
}

// Every fault demo is its bench row: the run succeeds, the row's verdict
// says the fault was tolerated, and the controller's timeline — the
// row's own, every entry of it printed in the lifecycle section — ends
// in the row's recovery. The timing demo's update must still be
// installed at the end, after the one retry the divergence forced.
func TestFaultDemosTellTheirRows(t *testing.T) {
	for _, tc := range faultDemos {
		t.Run(tc.app+"/"+tc.fault, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-app", tc.app, "-fault", tc.fault}, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			_, w, err := bench.Story(tc.app+"/"+tc.fault, nil)
			if err != nil {
				t.Fatal(err)
			}
			story, lifecycle, ok := strings.Cut(out.String(), "\nlifecycle:\n")
			if !ok {
				t.Fatalf("no lifecycle section:\n%s", out.String())
			}
			if !strings.Contains(story, " TOLERATED ") {
				t.Errorf("verdict does not read TOLERATED:\n%s", story)
			}
			timeline := w.C.Timeline()
			retries := 0
			for _, ev := range timeline {
				if line := "  " + ev.String() + "\n"; !strings.Contains(lifecycle, line) {
					t.Errorf("lifecycle lacks %q:\n%s", line, lifecycle)
				}
				if ev.Kind == core.KindRetry {
					retries++
				}
			}
			if last := timeline[len(timeline)-1]; !strings.Contains(last.Note, tc.recovery) {
				t.Errorf("last timeline entry %q lacks %q:\n%s", last.Note, tc.recovery, lifecycle)
			}
			want := 0
			if tc.fault == "timing" {
				want = 1
			}
			if retries != want {
				t.Errorf("%d retry entries, want %d:\n%s", retries, want, lifecycle)
			}
		})
	}
}

// -report writes the run's four instrument files, and turning it on
// changes nothing the run prints: instruments never advance virtual time.
func TestReportWritesBundleAndLeavesStdoutAlone(t *testing.T) {
	runs := [][]string{{"-app", "redis"}, {"-app", "tkv"}, {"-app", "memcached"}, {"-app", "vsftpd"}}
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

// The stall demo tells the whole story: its lifecycle section the
// violation past the chaos cell's 60ms deadline, the verdict and the
// rollback, its milestones the fault and the stall.
func TestLifecycleTellsTheStallStory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "redis", "-fault", "stall"}, &out); err != nil {
		t.Fatal(err)
	}
	_, sections, _ := strings.Cut(out.String(), "\nlifecycle:\n")
	lifecycle, milestones, ok := strings.Cut(sections, "\nmilestones:\n")
	if !ok {
		t.Fatalf("no lifecycle and milestones sections:\n%s", out.String())
	}
	for _, want := range []string{"no progress for 60ms", "rollback-candidate", "rolled back: stall"} {
		if !strings.Contains(lifecycle, want) {
			t.Errorf("lifecycle lacks %q:\n%s", want, lifecycle)
		}
	}
	for _, want := range []string{"] fault ", "injected follower", "] stall ", "no progress for 60ms"} {
		if !strings.Contains(milestones, want) {
			t.Errorf("milestones lack %q:\n%s", want, milestones)
		}
	}
}
