package bench

import (
	"encoding/json"
	"testing"
)

// stripMeasured reduces a speedup point to its deterministic fields.
func stripMeasured(p SpeedupPoint) SpeedupPoint {
	p.WallMS, p.WallOpsPerSec, p.SpeedupX = 0, 0, 0
	return p
}

// The strong-scaling contract: every sweep point completes the same
// bounded workload (TotalOps invariant), and because a shard's clock
// only advances for its own groups' work, the virtual makespan strictly
// shrinks as the fixed workload spreads over more shards — the
// deterministic speedup curve.
func TestSpeedupPointInvariantAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup sweep is a full workload run")
	}
	base, err := runSpeedupPoint(1)
	if err != nil {
		t.Fatalf("shards=1: %v", err)
	}
	if base.TotalOps != int64(speedupGroups*speedupClients*speedupOps) {
		t.Fatalf("TotalOps = %d, want %d (bounded clients must run to completion)",
			base.TotalOps, speedupGroups*speedupClients*speedupOps)
	}
	if base.Syscalls == 0 || base.Dispatches == 0 || base.VirtualUS == 0 {
		t.Fatalf("empty accounting: %+v", base)
	}
	prevVirtual := base.VirtualUS
	for _, shards := range []int{2, 4} {
		p, err := runSpeedupPoint(shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if p.TotalOps != base.TotalOps {
			t.Errorf("shards=%d TotalOps = %d, want %d", shards, p.TotalOps, base.TotalOps)
		}
		if p.VirtualUS >= prevVirtual {
			t.Errorf("shards=%d virtual makespan %dus did not shrink (previous %dus)",
				shards, p.VirtualUS, prevVirtual)
		}
		prevVirtual = p.VirtualUS
	}
}

// Run-twice determinism for one multi-shard point: parallel execution
// must not leak OS scheduling into the accounting.
func TestSpeedupPointRunTwiceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup sweep is a full workload run")
	}
	a, err := runSpeedupPoint(2)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := runSpeedupPoint(2)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if stripMeasured(a) != stripMeasured(b) {
		t.Errorf("two runs diverged: %+v vs %+v", stripMeasured(a), stripMeasured(b))
	}
}

// The sharddet scenario must actually exercise the machinery it claims
// to: both groups commit their update, and the scoped ledgers record it.
func TestShardDetReportOutcomes(t *testing.T) {
	r := decodeFresh[ShardDetReport](t, "sharddet")
	if len(r.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(r.Groups))
	}
	for _, g := range r.Groups {
		if g.Updates < 1 || g.Commits < 1 {
			t.Errorf("group %d scoped ledger updates=%d commits=%d, want >= 1 each",
				g.Group, g.Updates, g.Commits)
		}
		if want := "single-leader leader=2.0.1"; g.Outcome != want {
			t.Errorf("group %d outcome %q, want %q", g.Group, g.Outcome, want)
		}
	}
	if r.Merged.Counters["core.commits"] != 2 {
		t.Errorf("merged core.commits = %d, want 2", r.Merged.Counters["core.commits"])
	}
	if len(r.TraceTail) == 0 {
		t.Error("merged trace tail is empty")
	}
}

// ComparePerfReports must accept wall-clock drift and reject
// deterministic drift.
func TestComparePerfReports(t *testing.T) {
	mk := func(mutate func(*PerfReport)) []byte {
		r := &PerfReport{
			Schema:    PerfSchemaID,
			Scenarios: []PerfScenario{{Name: "s", Mode: "m", SyscallsLeader: 7}},
			Speedup: &SpeedupCurve{
				Groups: 8, MaxProcs: 4,
				Points: []SpeedupPoint{{Shards: 1, TotalOps: 100, WallMS: 5, SpeedupX: 1}},
			},
		}
		if mutate != nil {
			mutate(r)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := mk(nil)
	if err := ComparePerfReports(base, mk(func(r *PerfReport) {
		r.Speedup.MaxProcs = 64
		r.Speedup.Points[0].WallMS = 0.3
		r.Speedup.Points[0].WallOpsPerSec = 1e6
		r.Speedup.Points[0].SpeedupX = 3.7
	})); err != nil {
		t.Errorf("wall-clock drift rejected: %v", err)
	}
	if err := ComparePerfReports(base, mk(func(r *PerfReport) {
		r.Speedup.Points[0].TotalOps = 99
	})); err == nil {
		t.Error("TotalOps drift accepted")
	}
	if err := ComparePerfReports(base, mk(func(r *PerfReport) {
		r.Scenarios[0].SyscallsLeader = 8
	})); err == nil {
		t.Error("scenario drift accepted")
	}
}
