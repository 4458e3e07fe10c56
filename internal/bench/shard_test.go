package bench

import (
	"fmt"
	"testing"
	"time"

	"mvedsua/internal/sim"
)

// The speedup curve of the shared perf run is strong scaling: every
// point completes the same bounded workload, and because a shard's clock
// only advances for its own groups' work, the virtual makespan strictly
// shrinks as the workload spreads over more shards. Which of the
// workload's other figures must not move with placement is the
// relation table's shard row, TestShardCountDoesNotChangeWorkloads.
func TestSpeedupCurveScales(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup sweep is a full workload run")
	}
	c := decodeFresh[PerfReport](t, "perf").Speedup
	if c == nil || len(c.Points) < 2 {
		t.Fatalf("speedup curve %+v, want two points or more", c)
	}
	want := int64(c.Groups * c.ClientsPerGroup * c.OpsPerClient)
	for i, p := range c.Points {
		if p.TotalOps != want {
			t.Errorf("%d shards: TotalOps = %d, want %d (bounded clients must run to completion)", p.Shards, p.TotalOps, want)
		}
		if i > 0 && p.VirtualUS >= c.Points[i-1].VirtualUS {
			t.Errorf("%d shards: virtual makespan %dus did not shrink (previous %dus)", p.Shards, p.VirtualUS, c.Points[i-1].VirtualUS)
		}
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
	if a != b {
		t.Errorf("two runs diverged: %+v vs %+v", a, b)
	}
}

// BenchmarkShardSpeedup is the speedup sweep on the wall clock: the
// perf experiment's fixed workload at each shard count, timing ss.Run
// alone. One pass is noise; compare shard counts at -count 3 or more.
func BenchmarkShardSpeedup(b *testing.B) {
	want := int64(speedupGroups * speedupClients * speedupOps)
	for shards := 1; shards <= speedupShardMax; shards *= 2 {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.StopTimer()
			var ops int64
			for i := 0; i < b.N; i++ {
				ss := sim.NewSharded(shards, speedupQuantum)
				groups := placeGroups(ss, speedupGroups, speedupClients, speedupOps)
				b.StartTimer()
				err := ss.Run()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				var n int64
				for _, gr := range groups {
					n += gr.m.Ops
				}
				if n < want {
					b.Fatalf("%d ops, want %d (bounded clients must run to completion)", n, want)
				}
				ops += n
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// The sharddet scenario must actually exercise the machinery it claims
// to: both groups commit their update, and their ledgers record it.
func TestShardDetReportOutcomes(t *testing.T) {
	r := decodeFresh[ShardDetReport](t, "sharddet")
	if len(r.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(r.Groups))
	}
	for _, g := range r.Groups {
		if g.Updates < 1 || g.Commits < 1 {
			t.Errorf("group %d ledger updates=%d commits=%d, want >= 1 each",
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

// The sharddet trace tail is one timeline: every line reads
// "s<shard>|<µs>:<task>", time never goes backwards across the merge,
// and no shard contributes more than its last traceTailLen dispatches.
// The report's two shards happen to end at different times, so the
// merge is also checked on two shards whose dispatches interleave.
func TestShardDetTraceTailOrdered(t *testing.T) {
	r := decodeFresh[ShardDetReport](t, "sharddet")
	checkTraceTail(t, r.TraceTail, r.Shards)

	ss := sim.NewSharded(2, time.Millisecond)
	tail := recordTraceTail(ss)
	for sh := 0; sh < 2; sh++ {
		ss.Go(sh, fmt.Sprintf("ticker%d", sh), func(tk *sim.Task) {
			for i := 0; i < 2*traceTailLen; i++ {
				tk.Sleep(time.Duration(300+70*sh) * time.Microsecond)
			}
		})
	}
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	lines := tail()
	if len(lines) != 2*traceTailLen {
		t.Fatalf("tail has %d lines, want %d", len(lines), 2*traceTailLen)
	}
	checkTraceTail(t, lines, 2)
}

// checkTraceTail checks one merged trace tail of a run on shards shards.
func checkTraceTail(t *testing.T, lines []string, shards int) {
	t.Helper()
	perShard := map[int]int{}
	last := int64(-1)
	for _, line := range lines {
		var shard int
		var us int64
		var task string
		if _, err := fmt.Sscanf(line, "s%d|%d:%s", &shard, &us, &task); err != nil {
			t.Fatalf("unparseable trace tail line %q: %v", line, err)
		}
		if us < last {
			t.Fatalf("trace tail went backwards at %q (prev %dus)", line, last)
		}
		last = us
		perShard[shard]++
	}
	for shard, n := range perShard { // maporder: ok — each entry is checked alone
		if n > traceTailLen {
			t.Errorf("shard %d has %d tail lines, want at most %d", shard, n, traceTailLen)
		}
	}
	if len(perShard) != shards {
		t.Errorf("tail covers %d of %d shards", len(perShard), shards)
	}
}
