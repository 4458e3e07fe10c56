package bench

import (
	"strings"
	"testing"
	"time"
)

// Short windows keep the unit-test suite fast; the benchtool runs the
// full-scale versions.
var smokeCfg = Table2Config{Warmup: 50 * time.Millisecond, Window: 300 * time.Millisecond}

// redisCells caches the Redis steady-state cells at smokeCfg: the runs
// are deterministic, so the two tests below read one measurement each.
var redisCells = map[Mode]float64{}

func redisCell(t *testing.T, mode Mode) float64 {
	t.Helper()
	if ops, ok := redisCells[mode]; ok {
		return ops
	}
	opsPerSec, err := RunSteadyState(RedisTarget(), mode, smokeCfg.Warmup, smokeCfg.Window)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	redisCells[mode] = opsPerSec
	return opsPerSec
}

func TestSteadyStateAllModesRedis(t *testing.T) {
	var native float64
	for _, mode := range Modes {
		ops := redisCell(t, mode)
		if ops <= 0 {
			t.Fatalf("%v: zero throughput", mode)
		}
		if mode == ModeNative {
			native = ops
		} else if ops > native*1.001 {
			t.Errorf("%v faster than native: %.0f vs %.0f", mode, ops, native)
		}
		t.Logf("%-10v %10.0f ops/s", mode, ops)
	}
}

func TestSteadyStateOverheadOrdering(t *testing.T) {
	// The structural ordering the paper's Table 2 shows: duo modes cost
	// more than single-leader modes, which cost more than native. And
	// the ablation of §7: a leader that waits for its follower after
	// every syscall (the MUC/Mx lockstep model) costs more than the ring.
	native := redisCell(t, ModeNative)
	m1 := redisCell(t, ModeMvedsua1)
	m2 := redisCell(t, ModeMvedsua2)
	lockstep := redisCell(t, ModeLockstep)
	if !(native > m1 && m1 > m2 && m2 > lockstep) {
		t.Fatalf("ordering broken: native %.0f, mvedsua-1 %.0f, mvedsua-2 %.0f, lockstep %.0f", native, m1, m2, lockstep)
	}
	ov1 := 1 - m1/native
	ov2 := 1 - m2/native
	ovLock := 1 - lockstep/native
	if ov1 < 0.01 || ov1 > 0.15 {
		t.Errorf("Mvedsua-1 overhead %.1f%%, want in the paper's 3-9%% band (loosely)", ov1*100)
	}
	if ov2 < 0.15 || ov2 > 0.60 {
		t.Errorf("Mvedsua-2 overhead %.1f%%, want in the paper's 25-52%% band (loosely)", ov2*100)
	}
	if ovLock < 0.23 || ovLock > 0.87 {
		t.Errorf("lockstep overhead %.1f%%, want in MUC's 23-87%% band", ovLock*100)
	}
	t.Logf("native %.0f, mvedsua-2 %.0f, lockstep %.0f ops/s: overheads %.1f%% and %.1f%%", native, m2, lockstep, ov2*100, ovLock*100)
}

func TestSteadyStateMemcachedDuo(t *testing.T) {
	target := MemcachedTarget()
	opsPerSec, err := RunSteadyState(target, ModeMvedsua2, smokeCfg.Warmup, smokeCfg.Window)
	if err != nil {
		t.Fatalf("Mvedsua-2: %v", err)
	}
	if opsPerSec <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestSteadyStateVsftpdSmall(t *testing.T) {
	target := VsftpdTarget("small", 5)
	for _, mode := range []Mode{ModeNative, ModeVaran2} {
		opsPerSec, err := RunSteadyState(target, mode, smokeCfg.Warmup, smokeCfg.Window)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if opsPerSec <= 0 {
			t.Fatalf("%v: zero throughput", mode)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := []int{0, 2, 0, 2, 0, 0, 3, 0, 1, 1, 1, 1, 0}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Rules != want[i] {
			t.Errorf("%s->%s = %d, want %d", r.From, r.To, r.Rules, want[i])
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Average         0.85") {
		t.Errorf("FormatTable1 = %s", out)
	}
}

func TestFig6Small(t *testing.T) {
	cfg := Fig6Config{Total: 1200 * time.Millisecond, Buckets: 12}
	results, err := Fig6(cfg)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.OpsPerSec) < cfg.Buckets-1 {
			t.Errorf("%s: only %d buckets", r.Target, len(r.OpsPerSec))
		}
		// Service never stops: every bucket has throughput.
		for i, v := range r.OpsPerSec {
			if v <= 0 {
				t.Errorf("%s bucket %d: service stopped", r.Target, i)
			}
		}
		// The validation window is slower than the steady-state edges.
		first, mid := r.OpsPerSec[0], r.OpsPerSec[len(r.OpsPerSec)/2]
		if mid >= first {
			t.Errorf("%s: no visible dip during validation (%.0f -> %.0f)", r.Target, first, mid)
		}
		last := r.OpsPerSec[len(r.OpsPerSec)-1]
		if last < first*0.9 {
			t.Errorf("%s: throughput did not recover after commit (%.0f -> %.0f)", r.Target, first, last)
		}
	}
	_ = FormatFig6(results)
}

func TestFig7Small(t *testing.T) {
	// 20k entries -> ~124ms transformation; buffers scaled accordingly,
	// the middle one to the entry count as in Fig7's own row. Every
	// pause asserted on happens in the first 150ms after the update.
	cfg := Fig7Config{Entries: 20000, PostUpdate: 600 * time.Millisecond}
	run := func(name string, mode Mode, bufCap int, immediate bool) time.Duration {
		t.Helper()
		r, err := fig7One(name, mode, bufCap, true, immediate, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r.MaxLatency
	}
	kitsune := run("kitsune", ModeKitsune, 0, false)
	tiny := run("tiny", ModeMvedsua2, 1<<10, false)
	medium := run("medium", ModeMvedsua2, cfg.Entries, false)
	big := run("big", ModeMvedsua2, 1<<22, false)
	immediate := run("immediate", ModeMvedsua2, 1<<22, true)
	// Kitsune pauses for at least the transformation time.
	if kitsune < 100*time.Millisecond {
		t.Errorf("kitsune pause = %v, want >= xform time (~124ms)", kitsune)
	}
	// A tiny buffer cannot mask the pause; a big one masks it well; a
	// bigger buffer never pauses longer.
	if tiny < kitsune/2 {
		t.Errorf("tiny buffer pause = %v, implausibly small vs kitsune %v", tiny, kitsune)
	}
	if big >= tiny/2 {
		t.Errorf("big buffer pause = %v, want well under tiny %v", big, tiny)
	}
	if medium > tiny || big > medium {
		t.Errorf("pause rose with the buffer: 2^10 %v, %d entries %v, 2^22 %v", tiny, cfg.Entries, medium, big)
	}
	// Promoting before the backlog drains (§6.1) drains it while nobody
	// serves: a longer pause than the outdated-leader stage's.
	if immediate <= big {
		t.Errorf("immediate promotion pause = %v, want longer than the drain's %v", immediate, big)
	}
	t.Logf("kitsune %v, 2^10 %v, %d entries %v, 2^22 %v, 2^22 immediate %v", kitsune, tiny, cfg.Entries, medium, big, immediate)
}

func TestModeStrings(t *testing.T) {
	if ModeNative.String() != "Native" || ModeMvedsua2.String() != "Mvedsua-2" ||
		Mode(99).String() != "mode(99)" {
		t.Fatal("Mode.String mismatch")
	}
}
