package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// TestValidateChromeTraceFlowPairing pins the flow-arc validator: a
// flow start ("s") without a matching finish ("f") of the same
// category and id — or the reverse — must be rejected.
func TestValidateChromeTraceFlowPairing(t *testing.T) {
	mk := func(events ...map[string]any) []byte {
		data, err := json.Marshal(map[string]any{"traceEvents": events})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	slice := map[string]any{"name": "run", "ph": "X", "ts": 0.0, "pid": 1, "tid": 1}
	start := map[string]any{"name": "msg", "ph": "s", "ts": 1.0, "pid": 1, "tid": 1, "cat": "xshard", "id": "7"}
	finish := map[string]any{"name": "msg", "ph": "f", "ts": 2.0, "pid": 2, "tid": 1, "cat": "xshard", "id": "7"}

	if err := ValidateChromeTrace(mk(slice, start, finish)); err != nil {
		t.Fatalf("paired flow rejected: %v", err)
	}
	if err := ValidateChromeTrace(mk(slice, start)); err == nil {
		t.Fatal("begin-without-end flow accepted")
	} else if !strings.Contains(err.Error(), "flow") {
		t.Fatalf("wrong error for dangling start: %v", err)
	}
	if err := ValidateChromeTrace(mk(slice, finish)); err == nil {
		t.Fatal("end-without-begin flow accepted")
	}
	// Same id under a different category is a distinct flow and must
	// not satisfy the pairing.
	other := map[string]any{"name": "msg", "ph": "f", "ts": 2.0, "pid": 2, "tid": 1, "cat": "other", "id": "7"}
	if err := ValidateChromeTrace(mk(slice, start, other)); err == nil {
		t.Fatal("finish in a different category accepted as the pair")
	}
}

// TestProfileSweepDeterministic is the profiler determinism gate: at
// every shard placement the full folded output is byte-identical run
// to run, and the cpu-only fold is byte-identical ACROSS placements
// (the off-CPU dimension measures elapsed wait including preemption,
// so it legitimately varies with placement; cpu charges must not).
func TestProfileSweepDeterministic(t *testing.T) {
	var baseCPU string
	for _, shards := range []int{1, 2, 4} {
		_, profA, err := runProfileSweep(shards)
		if err != nil {
			t.Fatalf("sweep shards=%d: %v", shards, err)
		}
		_, profB, err := runProfileSweep(shards)
		if err != nil {
			t.Fatalf("sweep shards=%d rerun: %v", shards, err)
		}
		a, b := profA.Folded(), profB.Folded()
		if a != b {
			t.Errorf("shards=%d: folded output differs between identical runs:\n--- run A\n%s\n--- run B\n%s", shards, a, b)
		}
		cpu := profA.FoldedCPU()
		if baseCPU == "" {
			baseCPU = cpu
		} else if cpu != baseCPU {
			t.Errorf("shards=%d: cpu fold differs from 1-shard placement:\n--- 1 shard\n%s\n--- %d shards\n%s",
				shards, baseCPU, shards, cpu)
		}
	}
}

// TestProfilerSinkIsTheSwitch: attaching a sink to the scheduler is all
// profiling takes. With no recorder at all, the mve chokepoints still
// label the leader's service and the follower's validation.
func TestProfilerSinkIsTheSwitch(t *testing.T) {
	s := sim.New()
	prof := obs.NewProfiler()
	s.SetProfiler(prof.ShardSink(0, s.Now))
	err := measure(s, RedisTarget(), ModeVaran2, 256, nil, NewMetrics(0), func(_ *world, tk *sim.Task) error {
		tk.Sleep(20 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	folded := prof.Folded()
	for _, want := range []string{";leader;service", ";follower;validate"} {
		if !strings.Contains(folded, want) {
			t.Errorf("folded output has no %q stack:\n%s", want, folded)
		}
	}
}

// TestProfileReportClaims spot-checks the claims the profile experiment
// exists to demonstrate, on the run TestCommittedArtifacts pins.
func TestProfileReportClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full profile experiment; skipped with -short")
	}
	r := decodeFresh[ProfileReport](t, "profile")
	if !r.FoldedCPUInvariant {
		t.Error("cpu fold not placement-invariant")
	}
	for _, group := range [][]ProfileScenario{r.Duo, r.Fleet, r.Sweep} {
		for _, sc := range group {
			if !sc.SumsToMakespan {
				t.Errorf("%s: busy+idle != makespan on some shard", sc.Name)
			}
		}
	}
	if len(r.Duo) >= 2 {
		if r.Duo[0].LockstepWaitUS == 0 {
			t.Error("lockstep duo shows no lockstep_wait")
		}
		if r.Duo[1].LockstepWaitUS != 0 {
			t.Errorf("ring-buffered duo still shows lockstep_wait = %dus", r.Duo[1].LockstepWaitUS)
		}
	}
	var prevValidate int64
	for _, sc := range r.Fleet {
		if sc.Name == "fleet-k3-canary" {
			continue
		}
		if sc.ValidateUS <= prevValidate {
			t.Errorf("fleet validate not increasing with K: %s has %dus after %dus", sc.Name, sc.ValidateUS, prevValidate)
		}
		prevValidate = sc.ValidateUS
	}
}
